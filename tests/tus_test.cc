/// Tests for the TUS (Table Union Search) ensemble baseline.

#include <gtest/gtest.h>

#include <algorithm>

#include "discovery/tus.h"
#include "lake/lake_generator.h"
#include "lake/paper_fixtures.h"

namespace dialite {
namespace {

bool HasHit(const std::vector<DiscoveryHit>& hits, const std::string& name) {
  return std::any_of(hits.begin(), hits.end(), [&](const DiscoveryHit& h) {
    return h.table_name == name;
  });
}

/// TUS's unionability of column 0 of `a` with column 0 of `b` as a search
/// computes it: `b`'s score in a lake holding only `b`, for a query of `a`
/// alone, with no pair threshold; 0 when `b` is no candidate. The
/// reference scorer and the cascade must agree on it.
double SearchedUnionability(const Table& a, const Table& b) {
  DataLake lake;
  EXPECT_TRUE(lake.AddTable(b).ok());
  TusSearch::Params params;
  params.min_column_unionability = 0.0;
  TusSearch tus(params);
  EXPECT_TRUE(tus.BuildIndex(lake).ok());
  const DiscoveryQuery q{&a, 0, 1};
  const SearchMode modes[2] = {SearchMode::kExhaustive, SearchMode::kCascade};
  double score[2] = {0.0, 0.0};
  for (int i = 0; i < 2; ++i) {
    tus.set_search_mode(modes[i]);
    auto hits = tus.Search(q);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    if (hits.ok() && !hits->empty()) score[i] = hits->front().score;
  }
  EXPECT_EQ(score[0], score[1]);
  return score[0];
}

TEST(TusUnionabilityTest, SetMeasureDominatesOnOverlap) {
  Table a("a", Schema::FromNames({"c"}));
  Table b("b", Schema::FromNames({"c"}));
  for (int i = 0; i < 10; ++i) {
    (void)a.AddRow({Value::String("zq_v" + std::to_string(i))});
    (void)b.AddRow({Value::String("zq_v" + std::to_string(i))});
  }
  // Identical made-up values: set measure gives 1.0 even with no KB types.
  EXPECT_DOUBLE_EQ(SearchedUnionability(a, b), 1.0);
  // No KB types: against other made-up values, which share no token, the
  // table is no candidate at all (a shared type would make it one).
  Table other("other", Schema::FromNames({"c"}));
  for (int i = 0; i < 10; ++i) {
    (void)other.AddRow({Value::String("zq_w" + std::to_string(i))});
  }
  EXPECT_EQ(SearchedUnionability(a, other), 0.0);
}

TEST(TusUnionabilityTest, SemanticMeasureCarriesDisjointValues) {
  Table a("a", Schema::FromNames({"c"}));
  (void)a.AddRow({Value::String("Berlin")});
  (void)a.AddRow({Value::String("Madrid")});
  Table b("b", Schema::FromNames({"c"}));
  (void)b.AddRow({Value::String("Toronto")});
  (void)b.AddRow({Value::String("Boston")});
  // Disjoint values, but both columns annotate as city/location.
  EXPECT_GT(SearchedUnionability(a, b), 0.8);
}

TEST(TusUnionabilityTest, UnrelatedColumnsScoreLow) {
  Table a("a", Schema::FromNames({"c"}));
  (void)a.AddRow({Value::String("Berlin")});
  (void)a.AddRow({Value::String("Madrid")});
  Table b("b", Schema::FromNames({"c"}));
  (void)b.AddRow({Value::String("73%")});
  (void)b.AddRow({Value::String("21%")});
  EXPECT_LT(SearchedUnionability(a, b), 0.4);
}

TEST(TusPaperTest, FindsT2ForT1) {
  DataLake lake = paper::MakeDemoLake(16);
  TusSearch tus;
  ASSERT_TRUE(tus.BuildIndex(lake).ok());
  Table query = paper::MakeT1();
  DiscoveryQuery q{&query, 1, 5};
  auto hits = tus.Search(q);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_FALSE(hits->empty());
  EXPECT_TRUE(HasHit(*hits, "T2"));
  // T2 (3/3 columns unionable) must outrank T3 (1-2 of 3).
  size_t rank_t2 = 99;
  size_t rank_t3 = 99;
  for (size_t i = 0; i < hits->size(); ++i) {
    if ((*hits)[i].table_name == "T2") rank_t2 = i;
    if ((*hits)[i].table_name == "T3") rank_t3 = i;
  }
  EXPECT_LT(rank_t2, rank_t3);
}

TEST(TusLakeTest, UnionableRecallOnGroundTruth) {
  LakeGeneratorParams p;
  p.fragments_per_domain = 5;
  p.header_noise = 1.0;
  p.domains = {"country_facts", "football_clubs"};
  auto out = SyntheticLakeGenerator(p).Generate();
  TusSearch tus;
  ASSERT_TRUE(tus.BuildIndex(out.lake).ok());
  const Table* query = out.lake.Get("country_facts_frag0");
  ASSERT_NE(query, nullptr);
  DiscoveryQuery q{query, 0, 9};
  auto hits = tus.Search(q);
  ASSERT_TRUE(hits.ok());
  std::vector<std::string> truth = out.truth.UnionableWith(query->name());
  size_t found = 0;
  for (const std::string& t : truth) {
    if (HasHit(*hits, t)) ++found;
  }
  EXPECT_GE(found * 2, truth.size())
      << found << "/" << truth.size() << " unionable fragments found";
}

TEST(TusTest, SearchValidation) {
  TusSearch fresh;
  Table query = paper::MakeT1();
  DiscoveryQuery q{&query, 1, 5};
  EXPECT_FALSE(fresh.Search(q).ok());  // no index
  DataLake lake = paper::MakeDemoLake(0);
  ASSERT_TRUE(fresh.BuildIndex(lake).ok());
  DiscoveryQuery bad{&query, 99, 5};
  EXPECT_FALSE(fresh.Search(bad).ok());
  DiscoveryQuery null_t{nullptr, 0, 5};
  EXPECT_FALSE(fresh.Search(null_t).ok());
}

}  // namespace
}  // namespace dialite
