/// Experiment EXT-2 (integration scalability, backs "ALITE ... faster than
/// the existing FD algorithms"): wall time of the integration operators as
/// the integration set grows, over ground-truth-aligned lake fragments.
///
/// Expected shape: indexed FD (ALITE) beats the naive pairwise-rescan FD
/// by a growing factor; parallel FD runs the same pipeline with each
/// connected component of the key column — one per entity, ~400 — as its
/// own part on four threads, so it undercuts single-part indexed FD in
/// wall time when cores are free; outer join is cheapest but loses facts
/// (see bench_er_downstream / bench_fig8).
///
/// Google-benchmark binary: rows are
///   BM_<operator>/<num_tables>   time per integration

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "align/alite_matcher.h"
#include "integrate/full_disjunction.h"
#include "integrate/join_ops.h"
#include "common/rng.h"

namespace {

using namespace dialite;

struct Workload {
  std::vector<Table> storage;
  std::vector<const Table*> tables;
  Alignment alignment;
};

/// Builds (and caches) the classic FD workload: a universal relation of
/// `kEntities` entities with a key and `kAttrs` attributes, vertically
/// partitioned into `n` fragments that all keep the key column plus a
/// rotating attribute subset, with row sampling and missing nulls. This is
/// the "reassemble the universal relation" task FD papers benchmark on;
/// fragments overlap through the key, so FD cost is driven by chaining,
/// not by non-key cross products (those are measured separately in
/// bench_er_downstream / the fig8 bench).
const Workload& GetWorkload(size_t n) {
  static auto& cache = *new std::map<size_t, std::unique_ptr<Workload>>();
  auto it = cache.find(n);
  if (it != cache.end()) return *it->second;

  constexpr size_t kEntities = 400;
  constexpr size_t kAttrs = 6;
  auto w = std::make_unique<Workload>();
  Rng rng(91 + n);

  // Universal relation values: key "e<i>", attrs "a<j>_<i>".
  w->storage.reserve(n);
  for (size_t f = 0; f < n; ++f) {
    // Each fragment: key + 2 attributes (rotating), 70% row sample.
    size_t a1 = f % kAttrs;
    size_t a2 = (f + 1 + f / kAttrs) % kAttrs;
    if (a2 == a1) a2 = (a1 + 1) % kAttrs;
    Table frag("frag" + std::to_string(f),
               Schema::FromNames({"key", "attr" + std::to_string(a1),
                                  "attr" + std::to_string(a2)}));
    for (size_t i = 0; i < kEntities; ++i) {
      if (rng.NextBool(0.3)) continue;  // row sampling
      auto cell = [&](size_t a) -> Value {
        if (rng.NextBool(0.05)) return Value::Null();
        return Value::String("a" + std::to_string(a) + "_" +
                             std::to_string(i));
      };
      (void)frag.AddRow({Value::String("e" + std::to_string(i)), cell(a1),
                         cell(a2)});
    }
    w->storage.push_back(std::move(frag));
  }
  for (const Table& t : w->storage) w->tables.push_back(&t);

  // Ground-truth alignment by column name.
  std::map<std::string, std::vector<ColumnRef>> clusters;
  for (const Table* t : w->tables) {
    for (size_t c = 0; c < t->num_columns(); ++c) {
      clusters[t->schema().column(c).name].push_back({t->name(), c});
    }
  }
  for (auto& [key, members] : clusters) {
    w->alignment.AddCluster(std::move(members), key);
  }
  const Workload& ref = *w;
  cache.emplace(n, std::move(w));
  return ref;
}

void RunOperator(benchmark::State& state, const IntegrationOperator& op) {
  const Workload& w = GetWorkload(static_cast<size_t>(state.range(0)));
  size_t out_rows = 0;
  for (auto _ : state) {
    auto r = op.Integrate(w.tables, w.alignment);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    out_rows = r->num_rows();
    benchmark::DoNotOptimize(out_rows);
  }
  size_t in_rows = 0;
  for (const Table* t : w.tables) in_rows += t->num_rows();
  state.counters["tables"] = static_cast<double>(w.tables.size());
  state.counters["rows_in"] = static_cast<double>(in_rows);
  state.counters["rows_out"] = static_cast<double>(out_rows);
}

void BM_AliteFd(benchmark::State& state) {
  RunOperator(state, FullDisjunction());
}
void BM_NaiveFd(benchmark::State& state) {
  RunOperator(state, NaiveFullDisjunction());
}
void BM_ParallelFd(benchmark::State& state) {
  RunOperator(state, ParallelFullDisjunction(4));
}
void BM_OuterJoin(benchmark::State& state) {
  RunOperator(state, OuterJoinIntegration());
}
void BM_UnionAll(benchmark::State& state) {
  RunOperator(state, UnionIntegration());
}

BENCHMARK(BM_AliteFd)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NaiveFd)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelFd)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OuterJoin)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UnionAll)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Holistic alignment cost itself (the Align half of ALITE).
void BM_AliteAlign(benchmark::State& state) {
  const Workload& w = GetWorkload(static_cast<size_t>(state.range(0)));
  AliteMatcher matcher;
  for (auto _ : state) {
    auto r = matcher.Align(w.tables);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->num_clusters());
  }
}
BENCHMARK(BM_AliteAlign)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
