/// Determinism tests for parallel offline indexing: for every discovery
/// algorithm, building with 1, 2, or 8 threads must produce identical
/// search results — and for the persistent indexes, byte-identical
/// payloads.
/// This is the contract that lets num_threads default to hardware
/// concurrency without changing any observable behavior.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dialite.h"
#include "discovery/cocoa.h"
#include "discovery/josie.h"
#include "discovery/keyword_search.h"
#include "discovery/lsh_ensemble_search.h"
#include "discovery/santos.h"
#include "discovery/starmie.h"
#include "discovery/tus.h"
#include "lake/data_lake.h"
#include "lake/lake_generator.h"
#include "lake/lake_tokens.h"
#include "snapshot/bytes.h"
#include "snapshot/lake_codec.h"

namespace dialite {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

/// One seeded lake shared by every test in this file (the cache inside is
/// deterministic and immutable, so sharing cannot couple tests).
const DataLake& SharedLake() {
  static const DataLake* lake = [] {
    LakeGeneratorParams params;
    params.fragments_per_domain = 2;
    params.seed = 7;
    SyntheticLakeGenerator gen(params);
    return new DataLake(std::move(gen.Generate().lake));
  }();
  return *lake;
}

/// Builds `Algo` at each thread count and verifies the top-20 search
/// results (names and exact scores) are identical.
template <typename Algo>
void ExpectDeterministicSearch() {
  const DataLake& lake = SharedLake();
  DiscoveryQuery query{lake.tables().front(), 0, 20};
  std::vector<std::vector<DiscoveryHit>> per_thread_hits;
  for (size_t threads : kThreadCounts) {
    Algo algo;
    algo.set_num_threads(threads);
    ASSERT_TRUE(algo.BuildIndex(lake).ok());
    Result<std::vector<DiscoveryHit>> hits = algo.Search(query);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    per_thread_hits.push_back(std::move(hits).value());
  }
  // DiscoveryHit::operator== compares scores exactly — bitwise, not
  // approximately: parallel builds must not even reorder float additions.
  EXPECT_EQ(per_thread_hits[0], per_thread_hits[1]);
  EXPECT_EQ(per_thread_hits[0], per_thread_hits[2]);
}

/// `algo`'s index payload, as its snapshot section holds it.
std::string PayloadBytes(const PersistentIndex& algo) {
  BinaryWriter w;
  EXPECT_TRUE(algo.SavePayload(&w).ok());
  return w.Release();
}

/// Builds a PersistentIndex `Algo` at each thread count and verifies the
/// saved payloads are byte-identical.
template <typename Algo>
void ExpectIdenticalIndexBytes() {
  const DataLake& lake = SharedLake();
  std::string reference;
  for (size_t threads : kThreadCounts) {
    Algo algo;
    algo.set_num_threads(threads);
    ASSERT_TRUE(algo.BuildIndex(lake).ok());
    std::string bytes = PayloadBytes(algo);
    ASSERT_FALSE(bytes.empty());
    if (reference.empty()) {
      reference = std::move(bytes);
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
  }
}

TEST(ParallelBuildTest, SantosSearchDeterministic) {
  ExpectDeterministicSearch<SantosSearch>();
}

TEST(ParallelBuildTest, LshEnsembleSearchDeterministic) {
  ExpectDeterministicSearch<LshEnsembleSearch>();
}

TEST(ParallelBuildTest, JosieSearchDeterministic) {
  ExpectDeterministicSearch<JosieSearch>();
}

TEST(ParallelBuildTest, StarmieSearchDeterministic) {
  ExpectDeterministicSearch<StarmieSearch>();
}

TEST(ParallelBuildTest, CocoaSearchDeterministic) {
  ExpectDeterministicSearch<CocoaSearch>();
}

TEST(ParallelBuildTest, TusSearchDeterministic) {
  ExpectDeterministicSearch<TusSearch>();
}

TEST(ParallelBuildTest, KeywordSearchDeterministic) {
  ExpectDeterministicSearch<KeywordSearch>();
}

TEST(ParallelBuildTest, SantosIndexBytesIdentical) {
  ExpectIdenticalIndexBytes<SantosSearch>();
}

/// The "lake.tokens" payload of `lake`'s tokens built on `threads`
/// workers.
std::string LakeTokensBytes(const DataLake& lake, size_t threads) {
  BinaryWriter w;
  WriteLakeTokens(*LakeTokens::Build(lake, threads), &w);
  return w.Release();
}

// JOSIE's index is the lake's tokens (plus per-token counts derived from
// them), so their snapshot bytes are what must not depend on threads.
TEST(ParallelBuildTest, JosieIndexBytesIdentical) {
  const std::string reference = LakeTokensBytes(SharedLake(), 1);
  ASSERT_FALSE(reference.empty());
  for (size_t threads : kThreadCounts) {
    EXPECT_EQ(LakeTokensBytes(SharedLake(), threads), reference)
        << "threads=" << threads;
  }
}

/// Rebuilds the shared lake column-major: every table is reconstructed via
/// Table::FromColumns from materialized column vectors. The columnar entry
/// path must be invisible to indexing.
DataLake RebuildLakeFromColumns() {
  DataLake rebuilt;
  for (const Table* t : SharedLake().tables()) {
    std::vector<std::vector<Value>> columns(t->num_columns());
    for (size_t c = 0; c < t->num_columns(); ++c) {
      columns[c] = ColumnMaterialize(t->column(c));
    }
    Result<Table> copy =
        Table::FromColumns(t->name(), t->schema(), columns);
    EXPECT_TRUE(copy.ok());
    EXPECT_TRUE(rebuilt.AddTable(std::move(copy).value()).ok());
  }
  return rebuilt;
}

/// Builds `Algo` over both lake constructions and verifies the persisted
/// payloads are byte-identical.
template <typename Algo>
void ExpectIndexBytesInvariantToConstruction() {
  DataLake columnar = RebuildLakeFromColumns();
  std::string reference;
  const DataLake* lakes[] = {&SharedLake(), &columnar};
  for (size_t i = 0; i < 2; ++i) {
    Algo algo;
    algo.set_num_threads(1);
    ASSERT_TRUE(algo.BuildIndex(*lakes[i]).ok());
    std::string bytes = PayloadBytes(algo);
    ASSERT_FALSE(bytes.empty());
    if (reference.empty()) {
      reference = std::move(bytes);
    } else {
      EXPECT_EQ(bytes, reference) << "columnar-built lake diverged";
    }
  }
}

TEST(ParallelBuildTest, SantosIndexInvariantToTableConstruction) {
  ExpectIndexBytesInvariantToConstruction<SantosSearch>();
}

TEST(ParallelBuildTest, JosieIndexInvariantToTableConstruction) {
  DataLake columnar = RebuildLakeFromColumns();
  EXPECT_EQ(LakeTokensBytes(columnar, 1), LakeTokensBytes(SharedLake(), 1))
      << "columnar-built lake diverged";
}

TEST(ParallelBuildTest, DiscoverAllIdenticalAcrossThreadCounts) {
  // End to end through the facade: sequential (1), bounded (8), and
  // hardware (0) must agree on every algorithm's hits.
  const DataLake& lake = SharedLake();
  DiscoveryQuery query{lake.tables().front(), 0, 10};
  std::vector<std::map<std::string, std::vector<DiscoveryHit>>> reports;
  for (size_t threads : {size_t{1}, size_t{8}, size_t{0}}) {
    Dialite dialite(&lake);
    ASSERT_TRUE(dialite.RegisterDefaults().ok());
    dialite.set_num_threads(threads);
    ASSERT_TRUE(dialite.BuildIndexes().ok());
    Result<std::map<std::string, std::vector<DiscoveryHit>>> all =
        dialite.DiscoverAll(query);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    reports.push_back(std::move(all).value());
  }
  ASSERT_EQ(reports[0].size(), 7u);  // all seven default algorithms ran
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
}

TEST(ParallelBuildTest, DiscoverAllReturnsFirstFailureInListOrder) {
  // Two unregistered names: every thread count reports the one listed
  // first, not the one first in name order.
  const DataLake& lake = SharedLake();
  Dialite dialite(&lake);
  ASSERT_TRUE(dialite.RegisterDefaults().ok());
  ASSERT_TRUE(dialite.BuildIndexes().ok());
  DiscoveryQuery query{lake.tables().front(), 0, 10};
  for (size_t threads : kThreadCounts) {
    dialite.set_num_threads(threads);
    Result<std::map<std::string, std::vector<DiscoveryHit>>> all =
        dialite.DiscoverAll(query, {"santos", "ghost_b", "tus", "ghost_a"});
    ASSERT_FALSE(all.ok()) << threads;
    EXPECT_EQ(all.status().message(), "discovery 'ghost_b' not registered")
        << threads;
  }
}

/// Counts its BuildIndex calls and fails each with `error` unless empty.
class ProbeSearch : public DiscoveryAlgorithm {
 public:
  ProbeSearch(std::string name, std::string error, std::atomic<int>* builds)
      : name_(std::move(name)), error_(std::move(error)), builds_(builds) {}

  std::string name() const override { return name_; }
  Status BuildIndex(const DataLake&) override {
    builds_->fetch_add(1);
    return error_.empty() ? Status::OK() : Status::Internal(error_);
  }
  Result<std::vector<DiscoveryHit>> Search(
      const DiscoveryQuery&) const override {
    return std::vector<DiscoveryHit>{};
  }

 private:
  std::string name_;
  std::string error_;
  std::atomic<int>* builds_;
};

TEST(ParallelBuildTest, BuildIndexesReturnsFirstFailureInNameOrder) {
  // "a" and "c" fail: every thread count reports a's failure, and one
  // thread stops there, as a plain loop would.
  const char* const kErrors[] = {"a failed", "", "c failed", ""};
  for (size_t threads : kThreadCounts) {
    std::atomic<int> builds[4] = {};
    Dialite dialite(&SharedLake());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(dialite
                      .RegisterDiscovery(std::make_unique<ProbeSearch>(
                          std::string(1, static_cast<char>('a' + i)),
                          kErrors[i], &builds[i]))
                      .ok());
    }
    dialite.set_num_threads(threads);
    EXPECT_EQ(dialite.BuildIndexes().message(), "a failed") << threads;
    EXPECT_EQ(builds[0].load(), 1) << threads;
    if (threads == 1) {
      EXPECT_EQ(builds[1].load() + builds[2].load() + builds[3].load(), 0);
    }
  }
}

}  // namespace
}  // namespace dialite
