/// The paper's offline-preprocessing story, made tangible: "the indexes
/// used in SANTOS and LSH Ensemble are built offline, i.e., they are
/// already available for the user to use."
///
/// Session 1 builds every stock index over a generated lake and saves the
/// whole system as one snapshot. Session 2 opens that snapshot: the lake's
/// tables come back zero-copy, the indexes that are costly to derive
/// (SANTOS, TUS, keyword) load from their sections, and the others (JOSIE,
/// COCOA, Starmie, LSH Ensemble) are derived from the lake's persisted
/// token dictionary. Both sessions must answer every algorithm's query
/// identically; the timings show what the snapshot saves.
///
///   ./offline_indexing [snapshot-path]   (default: ./offline_indexing.snap)

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/dialite.h"
#include "lake/lake_generator.h"
#include "obs/observability.h"

namespace {

double MillisSince(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dialite;
  const std::string path =
      argc > 1 ? argv[1] : std::string("./offline_indexing.snap");

  LakeGeneratorParams params;
  params.fragments_per_domain = 8;
  params.seed = 21;
  SyntheticLakeGenerator::Output out =
      SyntheticLakeGenerator(params).Generate();
  std::printf("lake: %zu tables\n", out.lake.size());

  const Table* query = out.lake.Get("world_cities_frag0");
  if (query == nullptr) return 1;

  // ---- session 1: the offline pass, then one snapshot of the result.
  auto t0 = std::chrono::steady_clock::now();
  Dialite built(&out.lake);
  if (Status s = built.RegisterDefaults(); !s.ok()) return 1;
  if (Status s = built.BuildIndexes(); !s.ok()) {
    std::printf("build failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const double build_ms = MillisSince(t0);
  auto t1 = std::chrono::steady_clock::now();
  if (Status s = built.SaveSnapshot(path); !s.ok()) {
    std::printf("save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const double save_ms = MillisSince(t1);
  auto h1 = built.DiscoverAll(DiscoveryQuery{query, 0, 5});
  if (!h1.ok()) return 1;

  // ---- session 2: open the snapshot instead of re-running the pass.
  ObservabilityContext obs;
  auto t2 = std::chrono::steady_clock::now();
  Result<SnapshotSystem> opened = Dialite::OpenSnapshot(path, &obs);
  if (!opened.ok()) {
    std::printf("open failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  const double open_ms = MillisSince(t2);
  const Table* opened_query = opened->lake->Get("world_cities_frag0");
  if (opened_query == nullptr) return 1;
  auto h2 = opened->dialite->DiscoverAll(DiscoveryQuery{opened_query, 0, 5});
  if (!h2.ok()) return 1;

  std::printf("session 1: BuildIndexes %.1f ms, SaveSnapshot %.1f ms "
              "(%llu bytes)\n",
              build_ms, save_ms,
              static_cast<unsigned long long>(
                  std::filesystem::file_size(path)));
  std::printf("session 2: OpenSnapshot %.1f ms (%llu indexes loaded, "
              "%llu derived from the lake's tokens)\n",
              open_ms,
              static_cast<unsigned long long>(
                  obs.metrics().CounterValue("snapshot.indexes_loaded")),
              static_cast<unsigned long long>(
                  obs.metrics().CounterValue("snapshot.indexes_rebuilt")));

  const bool same = *h1 == *h2;
  std::printf("identical answers from all %zu algorithms, built vs opened: "
              "%s\n",
              h1->size(), same ? "yes" : "NO (bug!)");
  std::filesystem::remove(path);
  return same ? 0 : 1;
}
