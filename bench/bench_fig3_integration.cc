/// Experiment Fig. 3 + Example 2 (Align & Integrate): ALITE over the
/// integration set {T1, T2, T3} must produce exactly the paper's 7 tuples
/// f1..f7 with the printed TIDs and null kinds. Regenerates Fig. 3.
///
/// --metrics-json [path]: run with observability enabled and dump the
/// per-stage metrics/span export as JSON (to stdout, or to `path`).
///
/// --bench-json [path]: additionally time Align + Integrate on the paper
/// set and on a deterministic synthetic fragment workload, and the
/// facade's align over that workload, whose lake columns borrow the lake's
/// tokens and embeddings, record FD's work counters on both sets, then
/// write a stable schema-v1 trajectory report (bench_json.h) for
/// tools/bench_compare.py.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "align/alite_matcher.h"
#include "bench_json.h"
#include "core/dialite.h"
#include "integrate/full_disjunction.h"
#include "lake/lake_generator.h"
#include "lake/paper_fixtures.h"
#include "obs/observability.h"

namespace {

/// One timed Align + Integrate over `set`; wall micros are written to
/// `*align_us` / `*integrate_us` (minimum over `reps` runs). Returns the
/// integrated table, or an error.
dialite::Result<dialite::Table> TimedIntegrate(
    const std::vector<const dialite::Table*>& set, int reps,
    double* align_us, double* integrate_us) {
  using Clock = std::chrono::steady_clock;
  dialite::Result<dialite::Table> out =
      dialite::Status::Internal("no integration rep ran");
  *align_us = -1.0;
  *integrate_us = -1.0;
  for (int r = 0; r < reps; ++r) {
    dialite::AliteMatcher matcher;
    auto t0 = Clock::now();
    auto alignment = matcher.Align(set);
    auto t1 = Clock::now();
    if (!alignment.ok()) return alignment.status();
    dialite::FullDisjunction fd;
    auto t2 = Clock::now();
    auto result = fd.Integrate(set, *alignment);
    auto t3 = Clock::now();
    if (!result.ok()) return result.status();
    const double au =
        std::chrono::duration<double, std::micro>(t1 - t0).count();
    const double iu =
        std::chrono::duration<double, std::micro>(t3 - t2).count();
    if (*align_us < 0.0 || au < *align_us) *align_us = au;
    if (*integrate_us < 0.0 || iu < *integrate_us) *integrate_us = iu;
    out = std::move(result);
  }
  return out;
}

/// Records the integrate.fd.* work counters of one observed alite_fd run
/// over `set` as report.deterministic["work.fd.<label>.<counter>"]: pair
/// evaluations, merges, worklist items, subsumed tuples, output rows. They
/// are deterministic, so bench_compare.py gates them exactly. False on
/// error.
bool RecordFdWork(const std::vector<const dialite::Table*>& set,
                  const std::string& label,
                  benchjson::BenchReport* report) {
  dialite::AliteMatcher matcher;
  auto alignment = matcher.Align(set);
  if (!alignment.ok()) return false;
  dialite::ObservabilityContext obs;
  dialite::FullDisjunction fd;
  fd.set_observability(&obs);
  const bool ok = fd.Integrate(set, *alignment).ok();
  fd.set_observability(nullptr);
  for (const char* counter : {"rows_scanned", "merges", "fixpoint_iterations",
                              "subsumed_tuples", "output_rows"}) {
    report->deterministic["work.fd." + label + "." + counter] =
        obs.metrics().CounterValue(std::string("integrate.fd.") + counter);
  }
  return ok;
}

/// An integration operator that integrates nothing, so a timed
/// Dialite::AlignAndIntegrate measures the facade's align stage alone.
class AlignOnly : public dialite::IntegrationOperator {
 public:
  std::string name() const override { return "align_only"; }
  using dialite::IntegrationOperator::Integrate;
  dialite::Result<dialite::Table> Integrate(
      const std::vector<const dialite::Table*>& /*tables*/,
      const dialite::Alignment& /*alignment*/,
      const dialite::CancelToken* /*cancel*/) const override {
    return dialite::Table("align_only", dialite::Schema());
  }
};

/// Minimum wall micros of `reps` facade aligns over `set`, after one
/// untimed align that builds the lake's tokens and embeddings. Negative on
/// error.
double TimedResidentAlign(const dialite::DataLake& lake,
                          const std::vector<const dialite::Table*>& set,
                          int reps) {
  using Clock = std::chrono::steady_clock;
  dialite::Dialite facade(&lake);
  if (!facade.RegisterMatcher(std::make_unique<dialite::AliteMatcher>()).ok() ||
      !facade.RegisterIntegration(std::make_unique<AlignOnly>()).ok() ||
      !facade.AlignAndIntegrate(set, "align_only").ok()) {
    return -1.0;
  }
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    if (!facade.AlignAndIntegrate(set, "align_only").ok()) return -1.0;
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (best < 0.0 || us < best) best = us;
  }
  return best;
}

/// The integration trajectory: the paper's 3-table set plus a synthetic
/// same-domain fragment set (all fragments of the generator's first
/// domain), both integrated end to end. Deterministic outputs (row/column
/// counts, the Fig. 3 alignment digest) are recorded exactly; wall times
/// loosely; the integrate/align split and the cold/resident align split as
/// same-run ratios.
int RunBenchJson(const std::string& path) {
  using namespace dialite;
  std::printf("\n=== bench-json: integration trajectory ===\n");

  benchjson::BenchReport report;
  report.bench = "integration";

  // Paper set (Fig. 3).
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> paper_set = {&t1, &t2, &t3};
  double au = 0.0, iu = 0.0;
  auto fig3 = TimedIntegrate(paper_set, /*reps=*/3, &au, &iu);
  if (!fig3.ok()) {
    std::printf("FAIL: fig3 integrate: %s\n", fig3.status().ToString().c_str());
    return 1;
  }
  fig3->SortRowsLexicographic();
  const bool fig3_match = fig3->SameRowsAs(paper::MakeFig3Expected());
  report.deterministic["fig3_match"] = fig3_match ? 1 : 0;
  report.deterministic["fig3_rows"] = fig3->num_rows();
  report.deterministic["fig3_columns"] = fig3->num_columns();
  report.timings_us["fig3_align"] = au;
  report.timings_us["fig3_integrate"] = iu;
  {
    AliteMatcher matcher;
    auto alignment = matcher.Align(paper_set);
    if (alignment.ok()) {
      report.deterministic_text["fig3_alignment"] = alignment->ToString();
    }
  }
  if (!RecordFdWork(paper_set, "fig3", &report)) {
    std::printf("FAIL: fig3 observed integrate\n");
    return 1;
  }

  // Synthetic workload: every fragment of the generator's first domain —
  // same-schema shards, the integration-set shape Discover hands to Align.
  LakeGeneratorParams params;
  params.fragments_per_domain = 12;
  params.seed = 3;
  SyntheticLakeGenerator::Output out = SyntheticLakeGenerator(params).Generate();
  const DataLake& lake = out.lake;
  const std::string& first = lake.table_names().front();
  const std::string prefix = first.substr(0, first.find("_frag"));
  std::vector<const Table*> synth_set;
  for (const std::string& name : lake.table_names()) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      synth_set.push_back(lake.Get(name));
    }
  }
  report.config["synth_fragments"] = synth_set.size();
  report.config["synth_seed"] = params.seed;
  auto synth = TimedIntegrate(synth_set, /*reps=*/3, &au, &iu);
  if (!synth.ok()) {
    std::printf("FAIL: synth integrate: %s\n",
                synth.status().ToString().c_str());
    return 1;
  }
  report.deterministic["synth_rows"] = synth->num_rows();
  report.deterministic["synth_columns"] = synth->num_columns();
  if (!RecordFdWork(synth_set, "synth", &report)) {
    std::printf("FAIL: synth observed integrate\n");
    return 1;
  }
  report.timings_us["synth_align"] = au;
  report.timings_us["synth_integrate"] = iu;
  // Same-run split between the two stages: machine-portable, trips when
  // either stage regresses relative to the other.
  report.ratios["synth_integrate_vs_align"] = au > 0.0 ? iu / au : 0.0;
  // The same set through the facade, whose lake columns borrow the lake's
  // tokens and embeddings: the align stage minus signing, so the
  // cold/resident ratio trips if lake columns stop being borrowed. A
  // resident align takes a few milliseconds; more reps than the cold
  // timings keep its minimum steady on a shared host.
  const double ru = TimedResidentAlign(lake, synth_set, /*reps=*/15);
  if (ru < 0.0) {
    std::printf("FAIL: synth resident align\n");
    return 1;
  }
  report.timings_us["synth_align_resident"] = ru;
  report.ratios["synth_align_cold_vs_resident"] = ru > 0.0 ? au / ru : 0.0;

  std::printf("fig3:  %zu rows, match=%d\n", fig3->num_rows(),
              fig3_match ? 1 : 0);
  std::printf("synth: %zu fragments -> %zu rows x %zu cols\n",
              synth_set.size(), synth->num_rows(), synth->num_columns());
  if (!report.WriteTo(path)) {
    std::printf("FAIL: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("trajectory written to %s\n", path.c_str());
  return fig3_match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dialite;
  const char* metrics_path = nullptr;  // "-" = stdout
  bool metrics = false;
  const char* bench_path = nullptr;
  bool bench = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-json") == 0) {
      metrics = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--bench-json") == 0) {
      bench = true;
      bench_path = "-";
      if (i + 1 < argc &&
          (argv[i + 1][0] != '-' || std::strcmp(argv[i + 1], "-") == 0)) {
        bench_path = argv[++i];
      }
    }
  }
  ObservabilityContext obs;

  std::printf("=== Fig. 3 / Example 2: Align & Integrate (ALITE) ===\n");
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> set = {&t1, &t2, &t3};

  AliteMatcher matcher;
  if (metrics) matcher.set_observability(&obs);
  auto alignment = matcher.Align(set);
  if (!alignment.ok()) {
    std::printf("FAIL: %s\n", alignment.status().ToString().c_str());
    return 1;
  }
  std::printf("integration IDs: %s\n\n", alignment->ToString().c_str());

  FullDisjunction fd;
  if (metrics) fd.set_observability(&obs);
  auto result = fd.Integrate(set, *alignment);
  if (!result.ok()) {
    std::printf("FAIL: %s\n", result.status().ToString().c_str());
    return 1;
  }
  Table out = std::move(result).value();
  out.SortRowsLexicographic();  // stable presentation
  std::printf("%s\n", out.ToPrettyString().c_str());

  Table expected = paper::MakeFig3Expected();
  bool same = out.SameRowsAs(expected);
  std::printf("rows: %zu (paper: 7)\n", out.num_rows());
  std::printf("matches Fig. 3 exactly (values, null kinds, multiset): %s\n",
              same ? "REPRODUCED" : "MISMATCH");

  if (metrics) {
    const std::string json = obs.ToJson();
    if (metrics_path != nullptr && std::strcmp(metrics_path, "-") != 0) {
      std::ofstream f(metrics_path, std::ios::binary);
      f << json << '\n';
      std::printf("metrics written to %s\n", metrics_path);
    } else {
      std::printf("--- metrics-json ---\n%s\n", json.c_str());
    }
  }
  if (!same) return 1;
  if (bench) return RunBenchJson(bench_path);
  return 0;
}
