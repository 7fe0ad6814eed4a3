/// Ablation of AliteMatcher's design choices (DESIGN.md calls out three
/// evidence signals + a type gate): F1 of the full matcher vs each signal
/// alone and vs the gate removed, under clean and scrambled headers.
///
/// Expected shape: value+embedding evidence carries noisy headers (header-
/// only collapses there); header evidence carries disjoint-value cases;
/// the full combination dominates or ties every ablation; removing the
/// type gate hurts precision.

#include <cstdio>
#include <vector>

#include "align/alite_matcher.h"
#include "core/eval.h"
#include "lake/lake_generator.h"

namespace {

using namespace dialite;

struct Variant {
  const char* name;
  AliteMatcher::Params params;
};

std::vector<Variant> Variants() {
  AliteMatcher::Params full;  // defaults
  AliteMatcher::Params value_only = full;
  value_only.embedding_weight = 0.0;
  value_only.header_exact_bonus = 0.0;
  value_only.header_fuzzy_weight = 0.0;
  value_only.threshold = 0.25;  // rescaled: max evidence is now 0.4
  AliteMatcher::Params emb_only = full;
  emb_only.value_weight = 0.0;
  emb_only.header_exact_bonus = 0.0;
  emb_only.header_fuzzy_weight = 0.0;
  emb_only.threshold = 0.2;
  AliteMatcher::Params header_only = full;
  header_only.value_weight = 0.0;
  header_only.embedding_weight = 0.0;
  header_only.threshold = 0.35;
  AliteMatcher::Params no_gate = full;
  no_gate.type_gate = false;
  return {{"full", full},
          {"value_only", value_only},
          {"embedding_only", emb_only},
          {"header_only", header_only},
          {"no_type_gate", no_gate}};
}

}  // namespace

int main() {
  std::printf("=== Ablation: AliteMatcher evidence signals ===\n");
  std::printf("%-6s | %-15s | precision | recall | F1\n", "noise", "variant");
  std::printf("-------+-----------------+-----------+--------+------\n");

  double full_f1_noisy = 0.0;
  double header_f1_noisy = 1.0;
  double full_f1_clean = 0.0;
  for (double noise : {0.0, 1.0}) {
    for (const Variant& v : Variants()) {
      double p_sum = 0.0;
      double r_sum = 0.0;
      double f_sum = 0.0;
      size_t sets = 0;
      for (const char* domain : {"world_cities", "companies", "universities"}) {
        LakeGeneratorParams params;
        params.domains = {domain};
        params.fragments_per_domain = 4;
        params.header_noise = noise;
        params.min_rows = 30;
        params.max_rows = 80;
        params.seed = 99;
        auto out = SyntheticLakeGenerator(params).Generate();
        std::vector<const Table*> tables = out.lake.tables();
        AliteMatcher matcher(v.params);
        auto r = matcher.Align(tables);
        if (!r.ok()) {
          std::printf("FAIL: %s\n", r.status().ToString().c_str());
          return 1;
        }
        AlignmentMetrics prf = EvaluateAlignment(*r, out.truth, tables);
        p_sum += prf.precision;
        r_sum += prf.recall;
        f_sum += prf.f1;
        ++sets;
      }
      double f1 = f_sum / static_cast<double>(sets);
      std::printf("%-6.1f | %-15s | %9.3f | %6.3f | %5.3f\n", noise, v.name,
                  p_sum / static_cast<double>(sets),
                  r_sum / static_cast<double>(sets), f1);
      if (noise == 1.0 && std::string(v.name) == "full") full_f1_noisy = f1;
      if (noise == 1.0 && std::string(v.name) == "header_only") {
        header_f1_noisy = f1;
      }
      if (noise == 0.0 && std::string(v.name) == "full") full_f1_clean = f1;
    }
  }
  bool ok = full_f1_noisy > header_f1_noisy && full_f1_clean >= 0.9;
  std::printf("\nshape: full matcher beats header-only under noise "
              "(%.3f > %.3f) and stays >= 0.9 clean (%.3f) -> %s\n",
              full_f1_noisy, header_f1_noisy, full_f1_clean,
              ok ? "REPRODUCED" : "MISMATCH");
  return ok ? 0 : 1;
}
