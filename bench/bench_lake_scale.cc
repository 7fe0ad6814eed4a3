/// Experiment EXT-6 (discovery scalability): offline index-build time and
/// online query latency of every discovery algorithm as the lake grows.
/// Backs the demo's "indexes are built offline" design — build cost is
/// orders of magnitude above query cost, so precomputing them is what
/// makes the interactive pipeline feasible.
///
///   BM_Build_<algo>/<frags>/threads:<t>   one full cold BuildIndex
///   BM_Query_<algo>/<frags>               one top-10 Search
///   BM_BuildAll/threads:<t>               whole default registry (7 algos)
///
/// threads:0 = hardware concurrency, threads:1 = the sequential path.
/// A lake's tokens (LakeTokens) are built once per lake, in the first
/// build iteration; later iterations time the indexes' own work, with the
/// tokens reused.
///
/// --bench-json [path]: instead of the google-benchmark sweep, run the
/// snapshot cold-start trajectory on the 1056-table sweep lake: time
/// CSV-rebuild-to-first-query against SaveSnapshot/OpenSnapshot-to-first-
/// query, equivalence-check the discovery results of both systems, and
/// write a schema-v1 report (bench_json.h) for tools/bench_compare.py.
/// Gates in-binary: results must match exactly and the snapshot open path
/// must stay >=10x faster than the CSV rebuild (the committed
/// BENCH_lake_scale.json carries that floor in `ratios_min`).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "bench_json.h"
#include "core/dialite.h"
#include "discovery/cocoa.h"
#include "discovery/josie.h"
#include "discovery/lsh_ensemble_search.h"
#include "discovery/santos.h"
#include "discovery/starmie.h"
#include "discovery/tus.h"
#include "lake/lake_generator.h"
#include "obs/observability.h"

namespace {

using namespace dialite;

const SyntheticLakeGenerator::Output& GetLake(size_t fragments_per_domain) {
  static auto& cache =
      *new std::map<size_t,
                    std::unique_ptr<SyntheticLakeGenerator::Output>>();
  auto it = cache.find(fragments_per_domain);
  if (it != cache.end()) return *it->second;
  LakeGeneratorParams params;
  params.fragments_per_domain = fragments_per_domain;
  params.header_noise = 0.5;
  params.seed = 3;
  auto out = std::make_unique<SyntheticLakeGenerator::Output>(
      SyntheticLakeGenerator(params).Generate());
  const auto& ref = *out;
  cache.emplace(fragments_per_domain, std::move(out));
  return ref;
}

template <typename Algo>
void RunBuild(benchmark::State& state) {
  const auto& out = GetLake(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Algo algo;
    algo.set_num_threads(static_cast<size_t>(state.range(1)));
    Status s = algo.BuildIndex(out.lake);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(algo.name());
  }
  state.counters["tables"] = static_cast<double>(out.lake.size());
}

template <typename Algo>
void RunQuery(benchmark::State& state) {
  const auto& out = GetLake(static_cast<size_t>(state.range(0)));
  static std::map<std::pair<const void*, size_t>, std::unique_ptr<Algo>>
      built;
  auto key = std::make_pair(static_cast<const void*>(&out),
                            static_cast<size_t>(state.range(0)));
  auto it = built.find(key);
  if (it == built.end()) {
    auto algo = std::make_unique<Algo>();
    Status s = algo->BuildIndex(out.lake);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    it = built.emplace(key, std::move(algo)).first;
  }
  const Table* query = out.lake.Get("world_cities_frag0");
  if (query == nullptr) {
    state.SkipWithError("query fragment missing");
    return;
  }
  DiscoveryQuery q{query, 0, 10};
  for (auto _ : state) {
    auto hits = it->second->Search(q);
    if (!hits.ok()) {
      state.SkipWithError(hits.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(hits->size());
  }
  state.counters["tables"] = static_cast<double>(out.lake.size());
}

// Scale sweep stays sequential (comparable to older runs); the thread sweep
// holds the lake at 18 fragments/domain (11 domains -> ~200 tables, the
// speedup acceptance lake).
#define LAKE_SCALE_BENCH(Algo)                                       \
  void BM_Build_##Algo(benchmark::State& state) {                    \
    RunBuild<Algo>(state);                                           \
  }                                                                  \
  void BM_Query_##Algo(benchmark::State& state) {                    \
    RunQuery<Algo>(state);                                           \
  }                                                                  \
  BENCHMARK(BM_Build_##Algo)                                         \
      ->ArgNames({"", "threads"})                                    \
      ->ArgsProduct({{4, 8, 16}, {1}})                               \
      ->ArgsProduct({{18}, {1, 4, 0}})                               \
      ->Unit(benchmark::kMillisecond);                               \
  BENCHMARK(BM_Query_##Algo)->Arg(4)->Arg(8)->Arg(16)->Unit(         \
      benchmark::kMicrosecond)

LAKE_SCALE_BENCH(JosieSearch);
LAKE_SCALE_BENCH(LshEnsembleSearch);
LAKE_SCALE_BENCH(SantosSearch);
LAKE_SCALE_BENCH(StarmieSearch);
LAKE_SCALE_BENCH(TusSearch);
LAKE_SCALE_BENCH(CocoaSearch);

/// The whole offline phase: every default algorithm (the six above plus
/// keyword) built over the ~200-table lake through the Dialite facade —
/// algorithm-level and table-level parallelism.
void BM_BuildAll(benchmark::State& state) {
  const auto& out = GetLake(18);
  for (auto _ : state) {
    Dialite dialite(&out.lake);
    Status s = dialite.RegisterDefaults();
    if (s.ok()) {
      dialite.set_num_threads(static_cast<size_t>(state.range(0)));
      s = dialite.BuildIndexes();
    }
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.counters["tables"] = static_cast<double>(out.lake.size());
}
BENCHMARK(BM_BuildAll)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

double MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The snapshot cold-start trajectory (acceptance gate of the snapshot
/// refactor): on the 1056-table sweep lake, "open the persisted system and
/// answer the first query" must beat "re-read the CSVs and re-run the
/// offline pass" by >=10x, returning bit-identical discovery results.
int RunBenchJson(const std::string& report_path) {
  namespace fs = std::filesystem;
  using Clock = std::chrono::steady_clock;
  std::printf("\n=== bench-json: snapshot cold-start trajectory ===\n");

  LakeGeneratorParams params;
  params.fragments_per_domain = 96;
  params.header_noise = 0.5;
  params.seed = 3;
  SyntheticLakeGenerator::Output out =
      SyntheticLakeGenerator(params).Generate();

  const fs::path tmp = fs::temp_directory_path() / "dialite_lake_scale";
  const fs::path csv_dir = tmp / "csv";
  const fs::path snap_path = tmp / "lake.snap";
  std::error_code ec;
  fs::remove_all(tmp, ec);
  Status saved = out.lake.SaveDirectory(csv_dir.string());
  if (!saved.ok()) {
    std::printf("FAIL: SaveDirectory: %s\n", saved.ToString().c_str());
    return 1;
  }

  // Cold rebuild: CSV parse + interning + the whole offline pass + the
  // first top-10 DiscoverAll — what every session paid before snapshots.
  auto t0 = Clock::now();
  DataLake rebuilt;
  Result<size_t> loaded = rebuilt.LoadDirectory(csv_dir.string());
  if (!loaded.ok()) {
    std::printf("FAIL: LoadDirectory: %s\n",
                loaded.status().ToString().c_str());
    return 1;
  }
  Dialite cold(&rebuilt);
  Status setup = cold.RegisterDefaults();
  if (setup.ok()) setup = cold.BuildIndexes();
  if (!setup.ok()) {
    std::printf("FAIL: offline pass: %s\n", setup.ToString().c_str());
    return 1;
  }
  std::string query_name;
  for (const std::string& name : rebuilt.table_names()) {
    if (name.size() > 6 && name.compare(name.size() - 6, 6, "_frag0") == 0) {
      query_name = name;
      break;
    }
  }
  if (query_name.empty()) {
    std::printf("FAIL: query fragment missing\n");
    return 1;
  }
  DiscoveryQuery cold_q{rebuilt.Get(query_name), /*query_column=*/0,
                        /*k=*/10};
  auto cold_hits = cold.DiscoverAll(cold_q);
  if (!cold_hits.ok()) {
    std::printf("FAIL: rebuild query: %s\n",
                cold_hits.status().ToString().c_str());
    return 1;
  }
  const double rebuild_us = MicrosSince(t0);

  t0 = Clock::now();
  Status snap = cold.SaveSnapshot(snap_path.string());
  const double save_us = MicrosSince(t0);
  if (!snap.ok()) {
    std::printf("FAIL: SaveSnapshot: %s\n", snap.ToString().c_str());
    return 1;
  }

  // Snapshot open + first query, best of 3; every pass must reproduce the
  // rebuilt system's results exactly.
  double open_us = -1.0;
  for (int rep = 0; rep < 3; ++rep) {
    t0 = Clock::now();
    Result<SnapshotSystem> sys = Dialite::OpenSnapshot(snap_path.string());
    if (!sys.ok()) {
      std::printf("FAIL: OpenSnapshot: %s\n",
                  sys.status().ToString().c_str());
      return 1;
    }
    DiscoveryQuery open_q{sys->lake->Get(query_name), /*query_column=*/0,
                          /*k=*/10};
    auto hits = sys->dialite->DiscoverAll(open_q);
    if (!hits.ok()) {
      std::printf("FAIL: open query: %s\n",
                  hits.status().ToString().c_str());
      return 1;
    }
    const double us = MicrosSince(t0);
    if (open_us < 0 || us < open_us) open_us = us;
    if (*hits != *cold_hits) {
      std::printf("FAIL: opened system results != rebuilt system results\n");
      for (const auto& [algo, cold_list] : *cold_hits) {
        const auto it = hits->find(algo);
        if (it == hits->end()) {
          std::printf("  %s: missing from opened system\n", algo.c_str());
          continue;
        }
        for (size_t i = 0; i < cold_list.size() || i < it->second.size();
             ++i) {
          const bool have_both =
              i < cold_list.size() && i < it->second.size();
          if (have_both && cold_list[i] == it->second[i]) continue;
          std::printf(
              "  %s[%zu]: rebuilt=%s/%.17g opened=%s/%.17g\n", algo.c_str(),
              i, i < cold_list.size() ? cold_list[i].table_name.c_str() : "-",
              i < cold_list.size() ? cold_list[i].score : 0.0,
              i < it->second.size() ? it->second[i].table_name.c_str() : "-",
              i < it->second.size() ? it->second[i].score : 0.0);
        }
      }
      return 1;
    }
  }

  // One untimed instrumented open for the loaded/rebuilt accounting.
  ObservabilityContext obs;
  Result<SnapshotSystem> counted =
      Dialite::OpenSnapshot(snap_path.string(), &obs);
  if (!counted.ok()) {
    std::printf("FAIL: instrumented open: %s\n",
                counted.status().ToString().c_str());
    return 1;
  }
  const auto counters = obs.metrics().CounterSnapshot();
  auto counter = [&counters](const char* name) -> uint64_t {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };

  benchjson::BenchReport report;
  report.bench = "lake_scale";
  report.config["fragments_per_domain"] = params.fragments_per_domain;
  report.config["k"] = 10;
  report.config["lake_tables"] = out.lake.size();
  report.config["seed"] = params.seed;
  report.deterministic["indexes_loaded"] = counter("snapshot.indexes_loaded");
  report.deterministic["indexes_rebuilt"] =
      counter("snapshot.indexes_rebuilt");
  report.deterministic["snapshot_bytes"] = fs::file_size(snap_path);
  size_t hits_total = 0;
  for (const auto& [algo, hits] : *cold_hits) hits_total += hits.size();
  report.deterministic["hits_total"] = hits_total;
  report.deterministic_text["query"] = query_name;
  report.timings_us["open_to_first_query_us"] = open_us;
  report.timings_us["rebuild_to_first_query_us"] = rebuild_us;
  report.timings_us["snapshot_save_us"] = save_us;
  const double speedup = rebuild_us / open_us;
  report.ratios_min["cold_start_speedup"] = speedup;

  if (!report.WriteTo(report_path)) {
    std::printf("FAIL: cannot write %s\n", report_path.c_str());
    return 1;
  }
  std::printf("tables: %zu   snapshot: %llu bytes\n", out.lake.size(),
              static_cast<unsigned long long>(fs::file_size(snap_path)));
  std::printf("rebuild-to-first-query: %.0f us\n", rebuild_us);
  std::printf("open-to-first-query:    %.0f us (save: %.0f us)\n", open_us,
              save_us);
  std::printf("trajectory written to %s\n", report_path.c_str());
  std::printf("gate: cold-start speedup %.1fx (need >=10x): %s\n", speedup,
              speedup >= 10.0 ? "PASS" : "FAIL");
  fs::remove_all(tmp, ec);
  return speedup >= 10.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json") == 0) {
      const bool has_path = i + 1 < argc && argv[i + 1][0] != '-';
      return RunBenchJson(has_path ? argv[i + 1] : "-");
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
