/// Concurrency tests (run under TSan via the "concurrency" label) for the
/// serving layer's epoch swap: worker threads hammer Discover — through
/// the raw LakeService handle and through DialiteServer::Handle — or align
/// overlapping lake sets while the main thread reloads snapshots. Every
/// request must succeed against a coherent epoch; a pinned epoch must stay
/// valid (mmap included) after an arbitrary number of swaps.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "align/alite_matcher.h"
#include "common/thread_pool.h"
#include "core/dialite.h"
#include "lake/paper_fixtures.h"
#include "server/server.h"
#include "server/service.h"
#include "table/csv.h"

namespace dialite {
namespace {

/// Unique per process: ctest runs discovered tests as parallel processes
/// and snapshot files must not collide across them.
std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name + "." + std::to_string(::getpid());
}

std::string MakeSnapshot(const std::string& name, size_t distractors) {
  DataLake lake = paper::MakeDemoLake(distractors);
  Dialite system(&lake);
  EXPECT_TRUE(system.RegisterDefaults().ok());
  EXPECT_TRUE(system.BuildIndexes().ok());
  std::string path = TempPath(name);
  EXPECT_TRUE(system.SaveSnapshot(path).ok());
  return path;
}

/// Runs one discovery against `epoch` and checks it answers coherently.
void DiscoverAgainst(const Epoch& epoch, const Table& query_table,
                     std::atomic<size_t>* ok_count) {
  DiscoveryQuery query;
  query.table = &query_table;
  query.k = 5;
  Result<std::vector<DiscoveryHit>> hits =
      epoch.system->dialite->Discover(query, "santos");
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  // Every hit must name a table the pinned epoch's lake actually holds —
  // a torn swap would hand back hits from a different generation.
  for (const DiscoveryHit& hit : *hits) {
    EXPECT_TRUE(epoch.system->lake->Contains(hit.table_name))
        << "hit '" << hit.table_name << "' not in pinned epoch "
        << epoch.id;
  }
  ok_count->fetch_add(1, std::memory_order_relaxed);
}

TEST(EpochSwapTest, ConcurrentDiscoverAcrossReloads) {
  const std::string snap_a = MakeSnapshot("epoch_a.snap", 4);
  const std::string snap_b = MakeSnapshot("epoch_b.snap", 8);
  LakeService service;
  ASSERT_TRUE(service.Open(snap_a).ok());

  const Table query_table = paper::MakeT1();
  constexpr size_t kWorkers = 4;
  constexpr int kReloads = 12;
  std::atomic<bool> stop{false};
  std::atomic<size_t> ok_count{0};

  {
    ThreadPool pool(kWorkers);
    for (size_t w = 0; w < kWorkers; ++w) {
      pool.Submit([&] {
        while (!stop.load(std::memory_order_acquire)) {
          std::shared_ptr<const Epoch> epoch = service.current();
          ASSERT_NE(epoch, nullptr);
          DiscoverAgainst(*epoch, query_table, &ok_count);
        }
      });
    }
    for (int i = 0; i < kReloads; ++i) {
      ASSERT_TRUE(service.Reload(i % 2 == 0 ? snap_b : snap_a).ok());
    }
    stop.store(true, std::memory_order_release);
    pool.Wait();
  }

  EXPECT_GT(ok_count.load(), 0u);
  EXPECT_EQ(service.current()->id, 1u + kReloads);
  std::remove(snap_a.c_str());
  std::remove(snap_b.c_str());
}

TEST(EpochSwapTest, PinnedEpochSurvivesSwaps) {
  const std::string snap = MakeSnapshot("epoch_pin.snap", 4);
  LakeService service;
  ASSERT_TRUE(service.Open(snap).ok());

  // Pin epoch 1, then swap it out repeatedly.
  std::shared_ptr<const Epoch> pinned = service.current();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.Reload(snap).ok());
  }
  ASSERT_EQ(service.current()->id, 5u);
  EXPECT_EQ(pinned->id, 1u);

  // The pinned epoch's mmap-backed lake must still answer queries.
  const Table query_table = paper::MakeT1();
  std::atomic<size_t> ok_count{0};
  DiscoverAgainst(*pinned, query_table, &ok_count);
  EXPECT_EQ(ok_count.load(), 1u);
  std::remove(snap.c_str());
}

/// The tables of `names` in `epoch`'s lake.
std::vector<const Table*> Resolve(const Epoch& epoch,
                                  const std::vector<std::string>& names) {
  std::vector<const Table*> tables;
  for (const std::string& name : names) {
    tables.push_back(epoch.system->lake->Get(name));
  }
  return tables;
}

TEST(EpochSwapTest, ConcurrentAlignmentsAcrossReloadsShareSignatures) {
  const std::string snap = MakeSnapshot("epoch_align.snap", 8);
  ObservabilityContext obs;
  LakeService service(&obs);
  ASSERT_TRUE(service.Open(snap).ok());
  auto computed = [&obs] {
    return obs.metrics().CounterValue("align.signatures.computed");
  };

  // Overlapping sets: every window of three consecutive lake tables.
  const std::shared_ptr<const Epoch> first = service.current();
  const std::vector<std::string> names = first->system->lake->table_names();
  std::vector<std::vector<std::string>> sets;
  for (size_t i = 0; i + 2 < names.size(); ++i) {
    sets.push_back({names[i], names[i + 1], names[i + 2]});
  }
  // Reference alignments from a standalone matcher, which has no lake.
  std::vector<std::string> expected;
  for (const std::vector<std::string>& set : sets) {
    Result<Alignment> a = AliteMatcher().Align(Resolve(*first, set));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    expected.push_back(a->ToString());
  }
  auto align = [&](const Epoch& epoch, size_t s) {
    Result<IntegrationResult> r = epoch.system->dialite->AlignAndIntegrate(
        Resolve(epoch, sets[s]), "union_all");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->alignment.ToString(), expected[s]) << "set " << s;
  };

  constexpr size_t kWorkers = 4;
  constexpr int kReloads = 6;
  std::atomic<bool> stop{false};
  std::atomic<size_t> ok_count{0};
  {
    ThreadPool pool(kWorkers);
    for (size_t w = 0; w < kWorkers; ++w) {
      pool.Submit([&, w] {
        for (size_t i = w; !stop.load(std::memory_order_acquire); ++i) {
          std::shared_ptr<const Epoch> epoch = service.current();
          align(*epoch, i % sets.size());
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (int i = 0; i < kReloads; ++i) {
      // Let the workers align against this epoch before swapping it out
      // (bounded, so a failed worker cannot hang the test).
      const size_t target = ok_count.load() + 2 * kWorkers;
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (ok_count.load() < target &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      EXPECT_TRUE(service.Reload(snap).ok());
    }
    stop.store(true, std::memory_order_release);
    pool.Wait();
  }
  EXPECT_GE(ok_count.load(), 2 * kWorkers * kReloads);

  // Every epoch's lake columns borrow the tokens and embeddings its
  // snapshot decoded, so no epoch, fresh or not, signs a lake column.
  EXPECT_EQ(computed(), 0u);
  EXPECT_GT(obs.metrics().CounterValue("align.signatures.reused"), 0u);
  std::remove(snap.c_str());
}

TEST(EpochSwapTest, ServerHandleDiscoverDuringReloads) {
  const std::string snap = MakeSnapshot("epoch_srv.snap", 4);
  ServerOptions options;
  options.port = 0;
  DialiteServer server(options);
  ASSERT_TRUE(server.Start(snap).ok());

  const std::string query_csv = CsvWriter::ToString(paper::MakeT1());
  constexpr size_t kWorkers = 4;
  constexpr int kReloads = 8;
  std::atomic<bool> stop{false};
  std::atomic<size_t> ok_count{0};

  {
    ThreadPool pool(kWorkers);
    for (size_t w = 0; w < kWorkers; ++w) {
      pool.Submit([&] {
        HttpRequest req;
        req.method = "POST";
        req.path = "/discover";
        req.query = {{"algorithm", "santos"}, {"k", "5"}};
        req.body = query_csv;
        while (!stop.load(std::memory_order_acquire)) {
          HttpResponse resp = server.Handle(req, nullptr);
          ASSERT_EQ(resp.status, 200) << resp.body;
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    HttpRequest reload;
    reload.method = "POST";
    reload.path = "/reload";
    for (int i = 0; i < kReloads; ++i) {
      HttpResponse resp = server.Handle(reload, nullptr);
      ASSERT_EQ(resp.status, 200) << resp.body;
    }
    stop.store(true, std::memory_order_release);
    pool.Wait();
  }

  EXPECT_GT(ok_count.load(), 0u);
  EXPECT_EQ(server.lake_service().current()->id, 1u + kReloads);
  server.Shutdown();
  std::remove(snap.c_str());
}

}  // namespace
}  // namespace dialite
