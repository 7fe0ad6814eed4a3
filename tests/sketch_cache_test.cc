/// Tests for TableSketchCache: memoization, hit/miss accounting,
/// invalidation, thread safety, and the end-to-end guarantee that a full
/// Dialite::BuildIndexes pass tokenizes each lake table exactly once across
/// all registered algorithms.

#include "lake/table_sketch_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/dialite.h"
#include "lake/data_lake.h"
#include "lake/lake_generator.h"
#include "lake/paper_fixtures.h"

namespace dialite {
namespace {

TEST(SketchCacheTest, TokenSetsMemoizedPerTable) {
  Table t = paper::MakeT1();
  TableSketchCache cache;
  std::shared_ptr<const ColumnTokenSets> a = cache.TokenSets(t);
  std::shared_ptr<const ColumnTokenSets> b = cache.TokenSets(t);
  EXPECT_EQ(a.get(), b.get());
  ASSERT_EQ(a->size(), t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ((*a)[c], ColumnTokens(t.column(c))) << "column " << c;
  }
  TableSketchCache::Stats s = cache.stats();
  EXPECT_EQ(s.token_set_misses, 1u);
  EXPECT_EQ(s.token_set_hits, 1u);
}

TEST(SketchCacheTest, DistinctValuesMatchTable) {
  Table t = paper::MakeT1();
  TableSketchCache cache;
  std::shared_ptr<const ColumnDistinctValues> d = cache.DistinctValues(t);
  ASSERT_EQ(d->size(), t.num_columns());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    std::vector<std::string> expected;
    for (const Value& v : ColumnDistinct(t.column(c))) {
      expected.push_back(v.ToCsvString());
    }
    EXPECT_EQ((*d)[c], expected) << "column " << c;
  }
  EXPECT_EQ(cache.DistinctValues(t).get(), d.get());
  TableSketchCache::Stats s = cache.stats();
  EXPECT_EQ(s.distinct_value_misses, 1u);
  EXPECT_EQ(s.distinct_value_hits, 1u);
}

TEST(SketchCacheTest, DistinctCountIsTokenSetCardinality) {
  Table t = paper::MakeT1();
  TableSketchCache cache;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(cache.DistinctCount(t, c), ColumnTokens(t.column(c)).size());
  }
}

TEST(SketchCacheTest, InvalidateForcesRecompute) {
  Table t = paper::MakeT1();
  TableSketchCache cache;
  cache.TokenSets(t);
  cache.Invalidate(t.name());
  cache.TokenSets(t);
  EXPECT_EQ(cache.stats().token_set_misses, 2u);
  cache.Clear();
  cache.TokenSets(t);
  EXPECT_EQ(cache.stats().token_set_misses, 3u);
  cache.ResetStats();
  TableSketchCache::Stats s = cache.stats();
  EXPECT_EQ(s.token_set_misses, 0u);
  EXPECT_EQ(s.token_set_hits, 0u);
}

TEST(SketchCacheTest, AddTableInvalidatesLakeCache) {
  DataLake lake;
  Table t = paper::MakeT1();
  lake.sketch_cache().TokenSets(t);
  EXPECT_EQ(lake.sketch_cache().stats().token_set_misses, 1u);
  // Adding a table with that name must drop the (now possibly stale) entry.
  ASSERT_TRUE(lake.AddTable(paper::MakeT1()).ok());
  lake.sketch_cache().TokenSets(*lake.tables().front());
  EXPECT_EQ(lake.sketch_cache().stats().token_set_misses, 2u);
}

TEST(SketchCacheTest, ConcurrentRequestsComputeOnce) {
  Table t = paper::MakeT1();
  TableSketchCache cache;
  constexpr size_t kRequests = 64;
  std::vector<std::shared_ptr<const ColumnTokenSets>> got(kRequests);
  ThreadPool pool(8);
  pool.ParallelFor(kRequests, [&](size_t i) { got[i] = cache.TokenSets(t); });
  for (size_t i = 1; i < kRequests; ++i) EXPECT_EQ(got[i].get(), got[0].get());
  TableSketchCache::Stats s = cache.stats();
  EXPECT_EQ(s.token_set_misses, 1u);
  EXPECT_EQ(s.token_set_hits, kRequests - 1);
}

TEST(SketchCacheTest, BuildIndexesTokenizesEachTableExactlyOnce) {
  // The headline guarantee: seven registered algorithms, one full offline
  // pass, and every lake table is tokenized exactly once — all further
  // requests are cache hits, even with algorithms building concurrently.
  LakeGeneratorParams params;
  params.fragments_per_domain = 2;
  params.seed = 7;
  SyntheticLakeGenerator gen(params);
  DataLake lake = std::move(gen.Generate().lake);
  const size_t n = lake.size();
  ASSERT_GT(n, 0u);

  Dialite dialite(&lake);
  ASSERT_TRUE(dialite.RegisterDefaults().ok());
  lake.sketch_cache().ResetStats();
  ASSERT_TRUE(dialite.BuildIndexes().ok());

  TableSketchCache::Stats s = lake.sketch_cache().stats();
  EXPECT_EQ(s.token_set_misses, n);
  // At least five of the seven algorithms consume token sets per table.
  EXPECT_GE(s.token_set_hits, 5 * n);
  // SANTOS and TUS consume distinct raw values.
  EXPECT_EQ(s.distinct_value_misses, n);
  EXPECT_GE(s.distinct_value_hits, n);

  // A rebuild is all cache hits: no token or distinct-value set is
  // recomputed.
  ASSERT_TRUE(dialite.BuildIndexes().ok());
  TableSketchCache::Stats s2 = lake.sketch_cache().stats();
  EXPECT_EQ(s2.token_set_misses, n);
  EXPECT_EQ(s2.distinct_value_misses, n);
}

}  // namespace
}  // namespace dialite
