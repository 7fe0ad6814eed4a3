/// Tests for the extended components: SimHash sketches, Starmie-style
/// embedding discovery, COCOA correlation-aware discovery, and the
/// correlation finder analysis.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analyze/correlation_finder.h"
#include "core/dialite.h"
#include "discovery/cocoa.h"
#include "discovery/starmie.h"
#include "kb/embedding.h"
#include "lake/lake_generator.h"
#include "lake/paper_fixtures.h"
#include "sketch/simhash.h"

namespace dialite {
namespace {

bool HasHit(const std::vector<DiscoveryHit>& hits, const std::string& name) {
  return std::any_of(hits.begin(), hits.end(), [&](const DiscoveryHit& h) {
    return h.table_name == name;
  });
}

// ---------------------------------------------------------------- SimHash

TEST(SimHashTest, IdenticalVectorsHaveZeroDistance) {
  SimHash sh(64, 8);
  std::vector<float> v = {1.0f, -2.0f, 0.5f, 3.0f, -1.0f, 0.0f, 2.0f, -0.5f};
  EXPECT_EQ(SimHash::Hamming(sh.Signature(v), sh.Signature(v)), 0u);
}

TEST(SimHashTest, OppositeVectorsHaveMaxDistance) {
  SimHash sh(128, 8);
  std::vector<float> v = {1.0f, -2.0f, 0.5f, 3.0f, -1.0f, 0.7f, 2.0f, -0.5f};
  std::vector<float> neg(v.size());
  for (size_t i = 0; i < v.size(); ++i) neg[i] = -v[i];
  size_t d = SimHash::Hamming(sh.Signature(v), sh.Signature(neg));
  EXPECT_EQ(d, 128u);  // every hyperplane flips sign
}

TEST(SimHashTest, HammingTracksCosine) {
  // Closer vectors must have smaller Hamming distance on average.
  SimHash sh(256, 16);
  std::vector<float> base(16);
  for (size_t i = 0; i < 16; ++i) base[i] = static_cast<float>(i % 5) - 2.0f;
  std::vector<float> near = base;
  near[0] += 0.3f;
  std::vector<float> far(16);
  for (size_t i = 0; i < 16; ++i) far[i] = (i % 2) ? 1.5f : -2.5f;
  size_t d_near = SimHash::Hamming(sh.Signature(base), sh.Signature(near));
  size_t d_far = SimHash::Hamming(sh.Signature(base), sh.Signature(far));
  EXPECT_LT(d_near, d_far);
  // Cosine estimate is monotone in distance.
  EXPECT_GT(sh.EstimateCosine(d_near), sh.EstimateCosine(d_far));
}

TEST(SimHashIndexTest, FindsNearNeighbors) {
  SimHashIndex idx(64, 8, 8);
  std::vector<float> a = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<float> a_near = {1.1f, 2, 3, 4, 5, 6, 7, 8.2f};
  std::vector<float> far = {-5, 3, -2, 8, -1, 0.5f, -7, 2};
  ASSERT_TRUE(idx.Insert(1, a).ok());
  ASSERT_TRUE(idx.Insert(2, far).ok());
  std::vector<uint64_t> hits = idx.Query(a_near);
  EXPECT_NE(std::find(hits.begin(), hits.end(), 1u), hits.end());
  EXPECT_EQ(idx.size(), 2u);
}

// ---------------------------------------------------------------- Starmie

class StarmiePaperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake_ = paper::MakeDemoLake(16);
    ASSERT_TRUE(starmie_.BuildIndex(lake_).ok());
    query_ = paper::MakeT1();
  }
  DataLake lake_;
  StarmieSearch starmie_;
  Table query_;
};

TEST_F(StarmiePaperTest, FindsUnionableT2) {
  DiscoveryQuery q{&query_, /*query_column=*/1, /*k=*/5};
  auto hits = starmie_.Search(q);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ((*hits)[0].table_name, "T2")
      << "T2's full-schema embedding match must win";
}

TEST_F(StarmiePaperTest, ContextualizationChangesVectors) {
  // Same column values in different table contexts embed differently.
  Table alone("alone", Schema::FromNames({"City"}));
  (void)alone.AddRow({Value::String("Berlin")});
  (void)alone.AddRow({Value::String("Boston")});
  Table with_ctx("ctx", Schema::FromNames({"City", "Vaccine"}));
  (void)with_ctx.AddRow({Value::String("Berlin"), Value::String("Pfizer")});
  (void)with_ctx.AddRow({Value::String("Boston"), Value::String("Moderna")});
  const std::vector<float> v1 = starmie_.ContextualizedColumns(alone);
  const std::vector<float> v2 = starmie_.ContextualizedColumns(with_ctx);
  double self_sim =
      CosineSimilarity(v1.data(), v2.data(), ColumnEmbedder().dim());
  EXPECT_LT(self_sim, 0.999);  // context shifted the vector
  EXPECT_GT(self_sim, 0.5);    // but the content still dominates
}

TEST_F(StarmiePaperTest, RequiresIntentColumnMatch) {
  // Searching on the vaccination-rate column ("63%"...) should not return
  // tables lacking any comparable column.
  DiscoveryQuery q{&query_, /*query_column=*/2, /*k=*/5};
  auto hits = starmie_.Search(q);
  ASSERT_TRUE(hits.ok());
  for (const DiscoveryHit& h : *hits) {
    EXPECT_NE(h.table_name, "T4");
    EXPECT_NE(h.table_name, "T5");
  }
}

TEST(StarmieLakeTest, UnionableRecallUnderScrambledHeaders) {
  LakeGeneratorParams p;
  p.fragments_per_domain = 5;
  p.header_noise = 1.0;
  p.domains = {"world_cities", "companies"};
  auto out = SyntheticLakeGenerator(p).Generate();
  StarmieSearch starmie;
  ASSERT_TRUE(starmie.BuildIndex(out.lake).ok());
  const Table* query = out.lake.Get("world_cities_frag0");
  ASSERT_NE(query, nullptr);
  DiscoveryQuery q{query, 0, 9};
  auto hits = starmie.Search(q);
  ASSERT_TRUE(hits.ok());
  std::vector<std::string> truth = out.truth.UnionableWith(query->name());
  size_t found = 0;
  for (const std::string& t : truth) {
    if (HasHit(*hits, t)) ++found;
  }
  EXPECT_GE(found * 2, truth.size())
      << "recall@9 below 0.5 (" << found << "/" << truth.size() << ")";
}

// ------------------------------------------------------------------ COCOA

TEST(CocoaTest, BestJoinedCorrelationDetectsPlantedSignal) {
  // Candidate's metric is a monotone function of the query's metric.
  Table q("q", Schema::FromNames({"City", "metric"}));
  Table c("c", Schema::FromNames({"City", "derived", "noise"}));
  for (int i = 0; i < 20; ++i) {
    std::string city = "city" + std::to_string(i);
    (void)q.AddRow({Value::String(city), Value::Int(i)});
    (void)c.AddRow({Value::String(city), Value::Int(1000 - 3 * i * i),
                    Value::Int((i * 7919) % 13)});
  }
  double rho = BestJoinedCorrelation(q, 0, c, 0, 3);
  EXPECT_NEAR(rho, 1.0, 1e-9);  // Spearman |ρ| of a monotone map
}

TEST(CocoaTest, NoNumericColumnsMeansZero) {
  Table q("q", Schema::FromNames({"City"}));
  (void)q.AddRow({Value::String("a")});
  Table c("c", Schema::FromNames({"City"}));
  (void)c.AddRow({Value::String("a")});
  EXPECT_DOUBLE_EQ(BestJoinedCorrelation(q, 0, c, 0, 1), 0.0);
}

TEST(CocoaTest, RanksCorrelatedTableAboveMerelyJoinable) {
  DataLake lake;
  Table corr("correlated", Schema::FromNames({"City", "derived"}));
  Table plain("plain_join", Schema::FromNames({"City", "random"}));
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    std::string city = "city" + std::to_string(i);
    (void)corr.AddRow({Value::String(city), Value::Int(5 * i + 3)});
    (void)plain.AddRow(
        {Value::String(city),
         Value::Int(static_cast<int64_t>(rng.NextBounded(7)))});
  }
  ASSERT_TRUE(lake.AddTable(std::move(corr)).ok());
  ASSERT_TRUE(lake.AddTable(std::move(plain)).ok());

  Table query("query", Schema::FromNames({"City", "metric"}));
  for (int i = 0; i < 30; ++i) {
    (void)query.AddRow(
        {Value::String("city" + std::to_string(i)), Value::Int(i)});
  }
  CocoaSearch cocoa;
  ASSERT_TRUE(cocoa.BuildIndex(lake).ok());
  DiscoveryQuery q{&query, 0, 5};
  auto hits = cocoa.Search(q);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_GE(hits->size(), 2u);
  EXPECT_EQ((*hits)[0].table_name, "correlated");
  EXPECT_NEAR((*hits)[0].score, 1.0, 1e-9);
  EXPECT_EQ((*hits)[1].table_name, "plain_join");
  EXPECT_LT((*hits)[1].score, 0.2);  // joinability fallback only
}

TEST(CocoaTest, RespectsContainmentThreshold) {
  DataLake lake;
  Table t("half", Schema::FromNames({"City", "x"}));
  for (int i = 0; i < 10; ++i) {
    (void)t.AddRow({Value::String("city" + std::to_string(i)),
                    Value::Int(i)});
  }
  ASSERT_TRUE(lake.AddTable(std::move(t)).ok());
  Table query("query", Schema::FromNames({"City", "y"}));
  for (int i = 5; i < 25; ++i) {  // only 5/20 overlap half's cities
    (void)query.AddRow(
        {Value::String("city" + std::to_string(i)), Value::Int(i)});
  }
  CocoaSearch::Params p;
  p.min_containment = 0.5;
  CocoaSearch cocoa(p);
  ASSERT_TRUE(cocoa.BuildIndex(lake).ok());
  DiscoveryQuery q{&query, 0, 5};
  auto hits = cocoa.Search(q);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());  // containment 0.25 < 0.5
}

// ----------------------------------------------------- Correlation finder

TEST(CorrelationFinderTest, FindsPlantedPairFirst) {
  Table t("t", Schema::FromNames({"a", "b", "c", "label"}));
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    double noise = rng.NextGaussian();
    (void)t.AddRow({Value::Int(i), Value::Double(2.0 * i + 0.01 * noise),
                    Value::Double(rng.NextDouble() * 100),
                    Value::String("r" + std::to_string(i))});
  }
  auto r = FindCorrelations(t);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty());
  EXPECT_EQ((*r)[0].column_a, "a");
  EXPECT_EQ((*r)[0].column_b, "b");
  EXPECT_GT((*r)[0].pearson, 0.99);
  EXPECT_EQ((*r)[0].support, 40u);
}

TEST(CorrelationFinderTest, WorksOnFig3Table) {
  Table fd = paper::MakeFig3Expected();
  auto r = FindCorrelations(fd);
  ASSERT_TRUE(r.ok());
  // The cases↔vaccination pair (0.90) must rank above
  // vaccination↔death-rate (0.16).
  ASSERT_GE(r->size(), 2u);
  EXPECT_NEAR(std::fabs((*r)[0].pearson), 0.90, 0.05);
  bool found_016 = false;
  for (const CorrelationFinding& f : *r) {
    if (std::fabs(f.pearson - 0.16) < 0.01) found_016 = true;
  }
  EXPECT_TRUE(found_016);
}

TEST(CorrelationFinderTest, RespectsOptions) {
  Table t("t", Schema::FromNames({"a", "b"}));
  for (int i = 0; i < 10; ++i) {
    (void)t.AddRow({Value::Int(i), Value::Int(i)});
  }
  CorrelationFinderOptions opt;
  opt.min_support = 11;  // more than available
  auto r = FindCorrelations(t, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  opt.min_support = 3;
  opt.min_abs_pearson = 1.1;  // impossible
  auto r2 = FindCorrelations(t, opt);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
}

TEST(CorrelationFinderTest, FindingsTableRendering) {
  std::vector<CorrelationFinding> fs = {{"x", "y", 0.5, 0.4, 12}};
  Table t = CorrelationFindingsToTable(fs);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 0).as_string(), "x");
  EXPECT_DOUBLE_EQ(t.at(0, 2).as_double(), 0.5);
  EXPECT_EQ(t.at(0, 4).as_int(), 12);
}

// ------------------------------------------------------ core integration

TEST(ExtendedDefaultsTest, NewComponentsRegistered) {
  DataLake lake = paper::MakeDemoLake(0);
  Dialite d(&lake);
  ASSERT_TRUE(d.RegisterDefaults().ok());
  auto algos = d.DiscoveryAlgorithms();
  EXPECT_NE(std::find(algos.begin(), algos.end(), "starmie"), algos.end());
  EXPECT_NE(std::find(algos.begin(), algos.end(), "cocoa"), algos.end());
  auto analyses = d.Analyses();
  EXPECT_NE(std::find(analyses.begin(), analyses.end(), "correlations"),
            analyses.end());
}

TEST(ExtendedDefaultsTest, CorrelationsAnalysisOnPipeline) {
  DataLake lake = paper::MakeDemoLake(0);
  Dialite d(&lake);
  ASSERT_TRUE(d.RegisterDefaults().ok());
  ASSERT_TRUE(d.BuildIndexes().ok());
  Table fd = paper::MakeFig3Expected();
  auto r = d.Analyze(fd, "correlations");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->num_rows(), 1u);
}

}  // namespace
}  // namespace dialite
