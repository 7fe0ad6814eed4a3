/// Tests for keyword-based table retrieval and the extended aggregate
/// functions (median / stddev / count distinct).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analyze/aggregate.h"
#include "core/dialite.h"
#include "discovery/keyword_search.h"
#include "lake/paper_fixtures.h"

namespace dialite {
namespace {

// --------------------------------------------------------- keyword search

class KeywordSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake_ = paper::MakeDemoLake(16);
    ASSERT_TRUE(search_.BuildIndex(lake_).ok());
  }
  DataLake lake_;
  KeywordSearch search_;
};

TEST_F(KeywordSearchTest, FreeTextFindsVaccineTables) {
  auto hits = search_.SearchKeywords("vaccine approver country", 5);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_FALSE(hits->empty());
  // T4/T5/T6 are the vaccine tables; at least two should surface on top.
  size_t vaccine_hits = 0;
  for (size_t i = 0; i < std::min<size_t>(3, hits->size()); ++i) {
    const std::string& n = (*hits)[i].table_name;
    if (n == "T4" || n == "T5" || n == "T6") ++vaccine_hits;
  }
  EXPECT_GE(vaccine_hits, 2u);
}

TEST_F(KeywordSearchTest, TableAsQueryFindsTopicalNeighbors) {
  Table query = paper::MakeT1();  // vaccination rates per city
  DiscoveryQuery q{&query, 0, 5};
  auto hits = search_.Search(q);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  // T2 shares headers verbatim; it must rank first.
  EXPECT_EQ((*hits)[0].table_name, "T2");
}

// The postings walk must rank exactly like the per-document reference:
// same hits, same score bits, for any k.
TEST_F(KeywordSearchTest, FreeTextPostingsMatchPerDocumentReference) {
  for (const char* text :
       {"vaccine approver country", "city population vaccination rate",
        "covid cases deaths", "berlin", "qqqq unknownterm"}) {
    for (size_t k : {1u, 3u, 100u}) {
      search_.set_search_mode(SearchMode::kExhaustive);
      auto reference = search_.SearchKeywords(text, k);
      search_.set_search_mode(SearchMode::kCascade);
      auto postings = search_.SearchKeywords(text, k);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      ASSERT_TRUE(postings.ok()) << postings.status().ToString();
      EXPECT_EQ(*postings, *reference) << "'" << text << "' k=" << k;
    }
  }
}

TEST_F(KeywordSearchTest, EmptyKeywordQueryErrors) {
  EXPECT_FALSE(search_.SearchKeywords("", 5).ok());
  EXPECT_FALSE(search_.SearchKeywords("!!!", 5).ok());
}

TEST_F(KeywordSearchTest, UnindexedSearchErrors) {
  KeywordSearch fresh;
  EXPECT_FALSE(fresh.SearchKeywords("anything", 5).ok());
}

TEST(KeywordSearchDefaultsTest, RegisteredAsDiscoveryAlgorithm) {
  DataLake lake = paper::MakeDemoLake(0);
  Dialite d(&lake);
  ASSERT_TRUE(d.RegisterDefaults().ok());
  auto algos = d.DiscoveryAlgorithms();
  EXPECT_NE(std::find(algos.begin(), algos.end(), "keyword"), algos.end());
}

// ------------------------------------------------------ extended agg fns

Table AggInput() {
  Table t("t", Schema::FromNames({"g", "v"}));
  // group a: 1, 2, 3, 4, 100 (median 3); group b: 5, 5, 5 (stddev 0).
  for (int v : {1, 2, 3, 4, 100}) {
    (void)t.AddRow({Value::String("a"), Value::Int(v)});
  }
  for (int i = 0; i < 3; ++i) {
    (void)t.AddRow({Value::String("b"), Value::Int(5)});
  }
  return t;
}

TEST(ExtendedAggTest, Median) {
  auto r = Aggregate(AggInput(), {"g"}, {{AggFn::kMedian, "v", "med"}});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(r->at(0, 1).as_double(), 3.0);  // robust to the 100
  EXPECT_DOUBLE_EQ(r->at(1, 1).as_double(), 5.0);
}

TEST(ExtendedAggTest, MedianLowerForEvenCounts) {
  Table t("t", Schema::FromNames({"v"}));
  for (int v : {1, 2, 3, 4}) (void)t.AddRow({Value::Int(v)});
  auto r = Aggregate(t, {}, {{AggFn::kMedian, "v", ""}});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->at(0, 0).as_double(), 2.0);
}

TEST(ExtendedAggTest, Stddev) {
  auto r = Aggregate(AggInput(), {"g"}, {{AggFn::kStddev, "v", "sd"}});
  ASSERT_TRUE(r.ok());
  // group a: mean 22, population variance = (21²+20²+19²+18²+78²)/5.
  double mean = 22.0;
  double var = 0.0;
  for (int v : {1, 2, 3, 4, 100}) {
    var += (v - mean) * (v - mean);
  }
  var /= 5.0;
  EXPECT_NEAR(r->at(0, 1).as_double(), std::sqrt(var), 1e-9);
  EXPECT_DOUBLE_EQ(r->at(1, 1).as_double(), 0.0);
}

TEST(ExtendedAggTest, CountDistinct) {
  Table t("t", Schema::FromNames({"g", "v"}));
  (void)t.AddRow({Value::String("a"), Value::String("x")});
  (void)t.AddRow({Value::String("a"), Value::String("x")});
  (void)t.AddRow({Value::String("a"), Value::String("y")});
  (void)t.AddRow({Value::String("a"), Value::Null()});
  (void)t.AddRow({Value::String("b"), Value::Int(1)});
  auto r = Aggregate(t, {"g"}, {{AggFn::kCountDistinct, "v", "d"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->at(0, 1).as_int(), 2);  // x, y (null ignored)
  EXPECT_EQ(r->at(1, 1).as_int(), 1);
}

TEST(ExtendedAggTest, CountDistinctWorksOnMixedTypes) {
  Table t("t", Schema::FromNames({"v"}));
  (void)t.AddRow({Value::Int(5)});
  (void)t.AddRow({Value::Double(5.0)});  // identical to Int(5)
  (void)t.AddRow({Value::String("five")});
  auto r = Aggregate(t, {}, {{AggFn::kCountDistinct, "v", ""}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->at(0, 0).as_int(), 2);
}

TEST(ExtendedAggTest, MedianOnPaperFig3) {
  Table fd = paper::MakeFig3Expected();
  auto r = Aggregate(fd, {},
                     {{AggFn::kMedian, "Vaccination Rate (1+ dose)", "m"}});
  ASSERT_TRUE(r.ok());
  // Rates: 62, 63, 78, 82, 83 -> median 78.
  EXPECT_DOUBLE_EQ(r->at(0, 0).as_double(), 78.0);
}

}  // namespace
}  // namespace dialite
