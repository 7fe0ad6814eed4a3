/// Experiment Fig. 2 + Example 1 (Discover): query T1 with intent column
/// City; SANTOS must retrieve the unionable T2 as its top hit and LSH
/// Ensemble must retrieve the joinable T3, against a lake with
/// distractors. Regenerates the discovery rows of the paper's Example 1.
///
/// --metrics-json [path]: run with observability enabled and dump the
/// offline+online discovery metrics as JSON (to stdout, or to `path`).
///
/// --bench-json [path]: additionally run the fast-vs-reference scale sweep
/// of all seven algorithms over a ~1000-table synthetic lake and write a
/// stable schema-v1 trajectory report (bench_json.h) for
/// tools/bench_compare.py. This mode enforces two gates in-binary: default
/// (kCascade) results must equal the kExhaustive reference on every query,
/// and at least two algorithms must clear a 2x speedup.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/dialite.h"
#include "discovery/cocoa.h"
#include "discovery/josie.h"
#include "discovery/keyword_search.h"
#include "discovery/lsh_ensemble_search.h"
#include "discovery/santos.h"
#include "discovery/starmie.h"
#include "discovery/tus.h"
#include "lake/lake_generator.h"
#include "lake/paper_fixtures.h"
#include "obs/observability.h"
#include "table/column_view.h"

namespace {

/// The column an analyst marks, picked as servebench picks it: the string
/// column with the most distinct tokens (the first on ties). Empty when the
/// table has no string column.
std::optional<size_t> IntentColumn(const dialite::Table& t) {
  std::optional<size_t> intent;
  size_t best_distinct = 0;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    if (t.schema().column(c).type != dialite::ValueType::kString) continue;
    const size_t distinct = dialite::ColumnTokens(t.column(c)).size();
    if (!intent || distinct > best_distinct) {
      best_distinct = distinct;
      intent = c;
    }
  }
  return intent;
}

/// One Search pass over every query; returns wall micros (negative on
/// error). Hits are appended to `hits_out` when non-null.
double RunPass(dialite::DiscoveryAlgorithm* algo,
               const std::vector<dialite::DiscoveryQuery>& queries,
               std::vector<std::vector<dialite::DiscoveryHit>>* hits_out) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  for (const dialite::DiscoveryQuery& dq : queries) {
    auto hits = algo->Search(dq);
    if (!hits.ok()) {
      std::printf("FAIL: %s search: %s\n", algo->name().c_str(),
                  hits.status().ToString().c_str());
      return -1.0;
    }
    if (hits_out != nullptr) hits_out->push_back(std::move(hits).value());
  }
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// The tiered-discovery trajectory sweep: all seven algorithms over the
/// largest synthetic lake config (96 fragments/domain ≈ 1056 tables), timed
/// in both search modes, equivalence-checked, pruning and pair-level work
/// counters captured.
int RunBenchJson(const std::string& path) {
  using namespace dialite;
  std::printf("\n=== bench-json: tiered discovery cascade sweep ===\n");
  LakeGeneratorParams params;
  params.fragments_per_domain = 96;
  params.header_noise = 0.5;
  params.seed = 3;
  SyntheticLakeGenerator::Output out = SyntheticLakeGenerator(params).Generate();
  const DataLake& lake = out.lake;

  // Deterministic query set: for each of the first five domains
  // (generation order), its first fragment with a string column, queried
  // at k=10 on its intent column. A fragment of numeric columns only has
  // no intent an analyst would mark, and gives SANTOS nothing to annotate.
  std::vector<DiscoveryQuery> queries;
  std::set<std::string> domains;
  for (const std::string& name : lake.table_names()) {
    const std::string domain = name.substr(0, name.rfind("_frag"));
    if (domains.count(domain) != 0) continue;
    const Table* t = lake.Get(name);
    const std::optional<size_t> intent = IntentColumn(*t);
    if (!intent) continue;
    domains.insert(domain);
    queries.push_back({t, *intent, /*k=*/10});
    if (queries.size() == 5) break;
  }
  if (queries.size() < 5) {
    std::printf("FAIL: expected 5 query fragments, found %zu\n",
                queries.size());
    return 1;
  }

  std::vector<std::unique_ptr<DiscoveryAlgorithm>> algos;
  algos.push_back(std::make_unique<SantosSearch>());
  algos.push_back(std::make_unique<LshEnsembleSearch>());
  algos.push_back(std::make_unique<JosieSearch>());
  algos.push_back(std::make_unique<TusSearch>());
  algos.push_back(std::make_unique<StarmieSearch>());
  algos.push_back(std::make_unique<CocoaSearch>());
  algos.push_back(std::make_unique<KeywordSearch>());

  benchjson::BenchReport report;
  report.bench = "discovery";
  report.config["fragments_per_domain"] = params.fragments_per_domain;
  report.config["k"] = 10;
  report.config["lake_tables"] = lake.size();
  report.config["queries"] = queries.size();
  report.config["seed"] = params.seed;

  ObservabilityContext obs;
  size_t fast_algos = 0;
  std::printf("%-15s | %12s | %12s | %8s | %s\n", "algorithm",
              "exhaustive", "cascade", "speedup", "pruned/total");
  for (auto& algo : algos) {
    Status built = algo->BuildIndex(lake);
    if (!built.ok()) {
      std::printf("FAIL: %s build: %s\n", algo->name().c_str(),
                  built.ToString().c_str());
      return 1;
    }
    // Warm-up passes double as the equivalence gate: cascade must return
    // exactly the exhaustive reference hits on every query.
    std::vector<std::vector<DiscoveryHit>> ex_hits;
    std::vector<std::vector<DiscoveryHit>> cas_hits;
    algo->set_search_mode(SearchMode::kExhaustive);
    if (RunPass(algo.get(), queries, &ex_hits) < 0) return 1;
    algo->set_search_mode(SearchMode::kCascade);
    if (RunPass(algo.get(), queries, &cas_hits) < 0) return 1;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (cas_hits[i] != ex_hits[i]) {
        std::printf("FAIL: %s cascade != exhaustive on query %zu\n",
                    algo->name().c_str(), i);
        return 1;
      }
    }
    // Timed: best of 3 passes per mode.
    double t_ex = -1.0;
    double t_cas = -1.0;
    for (int rep = 0; rep < 3; ++rep) {
      algo->set_search_mode(SearchMode::kExhaustive);
      double ex = RunPass(algo.get(), queries, nullptr);
      algo->set_search_mode(SearchMode::kCascade);
      double cas = RunPass(algo.get(), queries, nullptr);
      if (ex < 0 || cas < 0) return 1;
      if (t_ex < 0 || ex < t_ex) t_ex = ex;
      if (t_cas < 0 || cas < t_cas) t_cas = cas;
    }
    // One instrumented cascade pass for the pruning counters (untimed).
    algo->set_observability(&obs);
    if (RunPass(algo.get(), queries, nullptr) < 0) return 1;
    algo->set_observability(nullptr);

    const std::string n = algo->name();
    const double speedup = t_ex / t_cas;
    if (speedup >= 2.0) ++fast_algos;
    report.timings_us["cascade_us." + n] = t_cas;
    report.timings_us["exhaustive_us." + n] = t_ex;
    report.ratios["cascade_speedup." + n] = speedup;
    size_t hits_total = 0;
    for (const auto& hits : ex_hits) hits_total += hits.size();
    report.deterministic["hits_total." + n] = hits_total;
    report.deterministic_text["top1." + n] =
        ex_hits[0].empty() ? "(none)" : ex_hits[0][0].table_name;
    const auto counters = obs.metrics().CounterSnapshot();
    uint64_t total = 0;
    uint64_t pruned = 0;
    // Stage counters of the algorithms on RunBoundedTopK (keyword and
    // COCOA rank without it), then every pair-level work counter.
    if (counters.count("discover." + n + ".cascade.candidates_total") != 0) {
      for (const char* c : {"candidates_total", "pruned_stage0",
                            "scored_exact", "early_terminated"}) {
        uint64_t v = counters.at("discover." + n + ".cascade." + c);
        report.deterministic["cascade." + n + "." + c] = v;
        if (std::strcmp(c, "candidates_total") == 0) total = v;
        if (std::strcmp(c, "pruned_stage0") == 0) pruned = v;
      }
    }
    const std::string work = "discover." + n + ".work.";
    for (const auto& [key, v] : counters) {
      if (key.compare(0, work.size(), work) == 0) {
        report.deterministic["work." + n + "." + key.substr(work.size())] = v;
      }
    }
    std::printf("%-15s | %9.0f us | %9.0f us | %7.2fx | %llu/%llu\n",
                n.c_str(), t_ex, t_cas, speedup,
                static_cast<unsigned long long>(pruned),
                static_cast<unsigned long long>(total));
  }

  if (!report.WriteTo(path)) {
    std::printf("FAIL: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("trajectory written to %s\n", path.c_str());
  std::printf("gate: %zu/%zu algorithms at >=2x cascade speedup "
              "(need >=2): %s\n",
              fast_algos, algos.size(), fast_algos >= 2 ? "PASS" : "FAIL");
  return fast_algos >= 2 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dialite;
  const char* metrics_path = nullptr;  // "-" = stdout
  const char* bench_path = nullptr;    // "-" = stdout
  bool metrics = false;
  bool bench_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-json") == 0) {
      metrics = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--bench-json") == 0) {
      bench_json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') bench_path = argv[++i];
    }
  }
  ObservabilityContext obs;

  std::printf("=== Fig. 2 / Example 1: Discover ===\n");
  DataLake lake = paper::MakeDemoLake(/*num_distractors=*/20);
  std::printf("lake: %zu tables (T2..T6 + distractors)\n\n", lake.size());

  Dialite dialite(&lake);
  if (metrics) dialite.set_observability(&obs);
  if (!dialite.RegisterDefaults().ok() || !dialite.BuildIndexes().ok()) {
    std::printf("FAIL: setup\n");
    return 1;
  }
  Table query = paper::MakeT1();
  DiscoveryQuery dq{&query, /*query_column=*/1 /* City */, /*k=*/5};
  auto hits = dialite.DiscoverAll(dq);
  if (!hits.ok()) {
    std::printf("FAIL: %s\n", hits.status().ToString().c_str());
    return 1;
  }

  std::printf("%-15s | %-22s | %s\n", "algorithm", "top hits", "score");
  std::printf("----------------+------------------------+------\n");
  for (const auto& [algo, list] : *hits) {
    bool first = true;
    for (const DiscoveryHit& h : list) {
      std::printf("%-15s | %-22s | %.3f\n", first ? algo.c_str() : "",
                  h.table_name.c_str(), h.score);
      first = false;
    }
    if (list.empty()) std::printf("%-15s | (none)\n", algo.c_str());
  }

  bool santos_t2 = !hits->at("santos").empty() &&
                   hits->at("santos")[0].table_name == "T2";
  bool lsh_t3 = false;
  for (const DiscoveryHit& h : hits->at("lsh_ensemble")) {
    lsh_t3 |= h.table_name == "T3";
  }
  std::printf("\npaper expectation: SANTOS -> T2 (unionable): %s\n",
              santos_t2 ? "REPRODUCED" : "MISMATCH");
  std::printf("paper expectation: LSH Ensemble -> T3 (joinable): %s\n",
              lsh_t3 ? "REPRODUCED" : "MISMATCH");
  std::printf("integration set persisted: {T1, T2, T3}\n");

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
  if (!santos_t2 || !lsh_t3) return 1;
  if (bench_json) {
    return RunBenchJson(bench_path != nullptr ? bench_path : "-");
  }
  return 0;
}
