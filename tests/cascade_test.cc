#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "core/dialite.h"
#include "discovery/cascade.h"
#include "discovery/cocoa.h"
#include "discovery/josie.h"
#include "discovery/keyword_search.h"
#include "discovery/lsh_ensemble_search.h"
#include "discovery/santos.h"
#include "discovery/starmie.h"
#include "discovery/tus.h"
#include "lake/lake_generator.h"

namespace dialite {
namespace {

// ------------------------------------------------------- RunBoundedTopK

std::vector<BoundedCandidate> TightCandidates(
    const std::vector<DiscoveryHit>& hits) {
  std::vector<BoundedCandidate> out;
  for (const DiscoveryHit& h : hits) out.push_back({h.table_name, h.score});
  return out;
}

TEST(RunBoundedTopKTest, MatchesRankHitsWithTightBounds) {
  std::vector<DiscoveryHit> hits = {{"c", 1.0}, {"a", 3.0}, {"b", 3.0},
                                    {"zero", 0.0}, {"d", 2.0}};
  auto exact = [&](const BoundedCandidate& cand) {
    for (const DiscoveryHit& h : hits) {
      if (h.table_name == cand.table_name) return h.score;
    }
    ADD_FAILURE() << "unknown candidate " << cand.table_name;
    return 0.0;
  };
  for (size_t k : {0u, 1u, 2u, 3u, 10u}) {
    EXPECT_EQ(RunBoundedTopK(TightCandidates(hits), k, exact),
              RankHits(hits, k))
        << "k=" << k;
  }
}

TEST(RunBoundedTopKTest, LooseBoundsStillExact) {
  // Bounds wildly overshoot; the result must still equal RankHits.
  std::vector<DiscoveryHit> hits = {{"a", 0.1}, {"b", 0.9}, {"c", 0.5},
                                    {"d", 0.5}, {"e", 0.2}};
  std::vector<BoundedCandidate> cands;
  for (const DiscoveryHit& h : hits) {
    cands.push_back({h.table_name, h.score + 10.0});
  }
  auto exact = [&](const BoundedCandidate& cand) {
    for (const DiscoveryHit& h : hits) {
      if (h.table_name == cand.table_name) return h.score;
    }
    return 0.0;
  };
  EXPECT_EQ(RunBoundedTopK(cands, 2, exact), RankHits(hits, 2));
}

TEST(RunBoundedTopKTest, PrunesAndAccounts) {
  // Descending-bound order: with k=1 and "top" scoring at its bound, every
  // later candidate (bound 1.0 < 5.0) is pruned without scoring.
  std::vector<BoundedCandidate> cands = {
      {"top", 5.0}, {"x1", 1.0}, {"x2", 1.0}, {"x3", 1.0}};
  size_t calls = 0;
  auto exact = [&](const BoundedCandidate& cand) {
    ++calls;
    return cand.table_name == "top" ? 5.0 : 1.0;
  };
  CascadeStats stats;
  std::vector<DiscoveryHit> top = RunBoundedTopK(cands, 1, exact, &stats);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].table_name, "top");
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(stats.candidates_total, 4u);
  EXPECT_EQ(stats.scored_exact, 1u);
  EXPECT_EQ(stats.pruned_stage0, 3u);
  EXPECT_TRUE(stats.early_terminated);
  EXPECT_EQ(stats.scored_exact + stats.pruned_stage0, stats.candidates_total);
}

TEST(RunBoundedTopKTest, TieAtKthScoreKeepsScanning) {
  // "b" fills the heap with score 1.0. "a" ties the bound AND the k-th
  // score but wins the name tiebreak, so it must still be scored and
  // returned even though it appears later in bound order (bound ties are
  // scanned name-ascending, so craft the loser first via scores).
  std::vector<BoundedCandidate> cands = {{"b", 2.0}, {"a", 1.0}, {"z", 1.0}};
  auto exact = [&](const BoundedCandidate& cand) {
    if (cand.table_name == "b") return 1.0;
    if (cand.table_name == "a") return 1.0;
    return 1.0;
  };
  std::vector<DiscoveryHit> top = RunBoundedTopK(cands, 1, exact, nullptr);
  ASSERT_EQ(top.size(), 1u);
  // All score 1.0; the name tiebreak selects "a".
  EXPECT_EQ(top[0].table_name, "a");
}

TEST(RunBoundedTopKTest, NonPositiveBoundsPruneTail) {
  std::vector<BoundedCandidate> cands = {{"a", 1.0}, {"b", 0.0}, {"c", -1.0}};
  size_t calls = 0;
  auto exact = [&](const BoundedCandidate& cand) {
    ++calls;
    (void)cand;
    return 1.0;
  };
  CascadeStats stats;
  std::vector<DiscoveryHit> top = RunBoundedTopK(cands, 5, exact, &stats);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].table_name, "a");
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(stats.pruned_stage0, 2u);
}

// ------------------------------------------------------------- HitBetter

TEST(HitBetterTest, IsAStrictTotalOrderOnDistinctHits) {
  std::vector<DiscoveryHit> hits = {{"a", 2.0}, {"b", 2.0}, {"c", 1.0}};
  EXPECT_TRUE(HitBetter(hits[0], hits[1]));   // name tiebreak
  EXPECT_FALSE(HitBetter(hits[1], hits[0]));
  EXPECT_TRUE(HitBetter(hits[1], hits[2]));   // score dominates
  EXPECT_FALSE(HitBetter(hits[0], hits[0]));  // irreflexive
}

TEST(HitBetterTest, RankHitsIsByteStableAcrossInputOrder) {
  std::vector<DiscoveryHit> hits = {{"t1", 0.5}, {"t2", 0.5}, {"t3", 0.5},
                                    {"t4", 0.25}, {"t5", 0.75}};
  std::vector<DiscoveryHit> ranked = RankHits(hits, 4);
  std::vector<DiscoveryHit> shuffled = {hits[3], hits[1], hits[4], hits[0],
                                        hits[2]};
  EXPECT_EQ(RankHits(shuffled, 4), ranked);
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].table_name, "t5");
  EXPECT_EQ(ranked[1].table_name, "t1");
  EXPECT_EQ(ranked[2].table_name, "t2");
  EXPECT_EQ(ranked[3].table_name, "t3");
}

// ------------------------------------------------- equivalence fixtures

DataLake MakeLake(uint64_t seed, size_t fragments) {
  LakeGeneratorParams p;
  p.fragments_per_domain = fragments;
  p.min_rows = 10;
  p.max_rows = 40;
  p.header_noise = 0.5;
  p.seed = seed;
  return SyntheticLakeGenerator(p).Generate().lake;
}

using AlgoFactory = std::unique_ptr<DiscoveryAlgorithm> (*)();

struct AlgoCase {
  const char* label;
  AlgoFactory make;
};

/// Prints the label: without a printer gtest shows the case's raw bytes
/// (two pointers, one nibble random per run under ASLR) in every test name.
void PrintTo(const AlgoCase& c, std::ostream* os) { *os << c.label; }

std::unique_ptr<DiscoveryAlgorithm> MakeSantos() {
  return std::make_unique<SantosSearch>();
}
std::unique_ptr<DiscoveryAlgorithm> MakeLsh() {
  return std::make_unique<LshEnsembleSearch>();
}
std::unique_ptr<DiscoveryAlgorithm> MakeJosie() {
  return std::make_unique<JosieSearch>();
}
std::unique_ptr<DiscoveryAlgorithm> MakeTus() {
  return std::make_unique<TusSearch>();
}
std::unique_ptr<DiscoveryAlgorithm> MakeStarmie() {
  return std::make_unique<StarmieSearch>();
}
std::unique_ptr<DiscoveryAlgorithm> MakeCocoa() {
  return std::make_unique<CocoaSearch>();
}
std::unique_ptr<DiscoveryAlgorithm> MakeKeyword() {
  return std::make_unique<KeywordSearch>();
}

class CascadeEquivalenceTest : public ::testing::TestWithParam<AlgoCase> {};

// Cascade top-k must equal exhaustive top-k — scores included — for every
// query table, k, lake seed, and build thread count.
TEST_P(CascadeEquivalenceTest, CascadeEqualsExhaustive) {
  for (uint64_t seed : {3u, 17u}) {
    DataLake lake = MakeLake(seed, /*fragments=*/4);
    for (size_t threads : {1u, 4u}) {
      std::unique_ptr<DiscoveryAlgorithm> algo = GetParam().make();
      algo->set_num_threads(threads);
      ASSERT_TRUE(algo->BuildIndex(lake).ok());
      const std::vector<const Table*> tables = lake.tables();
      // A handful of query tables is plenty; spread across domains.
      for (size_t t = 0; t < tables.size(); t += 5) {
        for (size_t k : {1u, 3u, 10u}) {
          DiscoveryQuery q{tables[t], /*query_column=*/0, k};
          algo->set_search_mode(SearchMode::kExhaustive);
          auto exhaustive = algo->Search(q);
          ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().ToString();
          algo->set_search_mode(SearchMode::kCascade);
          auto cascade = algo->Search(q);
          ASSERT_TRUE(cascade.ok()) << cascade.status().ToString();
          EXPECT_EQ(*cascade, *exhaustive)
              << GetParam().label << " seed=" << seed
              << " threads=" << threads << " query=" << tables[t]->name()
              << " k=" << k;
        }
      }
    }
  }
}

// Every candidate's ScoreUpperBound must dominate its exact (exhaustive)
// score: the admissibility contract the cascade's correctness rests on.
TEST_P(CascadeEquivalenceTest, UpperBoundIsAdmissible) {
  DataLake lake = MakeLake(/*seed=*/3, /*fragments=*/4);
  std::unique_ptr<DiscoveryAlgorithm> algo = GetParam().make();
  ASSERT_TRUE(algo->BuildIndex(lake).ok());
  algo->set_search_mode(SearchMode::kExhaustive);
  const std::vector<const Table*> tables = lake.tables();
  for (size_t t = 0; t < tables.size(); t += 7) {
    // k large enough to surface every positive-scoring table.
    DiscoveryQuery q{tables[t], /*query_column=*/0, tables.size()};
    auto hits = algo->Search(q);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    for (const DiscoveryHit& h : *hits) {
      auto bound = algo->ScoreUpperBound(q, h.table_name);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      EXPECT_GE(*bound, h.score)
          << GetParam().label << " query=" << tables[t]->name()
          << " candidate=" << h.table_name;
    }
  }
}

// A request whose deadline has already passed must fail with
// kDeadlineExceeded in both modes: every algorithm polls the token inside
// its scan, not only before it.
TEST_P(CascadeEquivalenceTest, FiredDeadlineFailsBothModes) {
  DataLake lake = MakeLake(/*seed=*/3, /*fragments=*/4);
  std::unique_ptr<DiscoveryAlgorithm> algo = GetParam().make();
  ASSERT_TRUE(algo->BuildIndex(lake).ok());
  const Table* query = lake.Get("covid_city_stats_frag1");
  ASSERT_NE(query, nullptr);
  DiscoveryQuery q{query, /*query_column=*/2, /*k=*/10};
  for (SearchMode mode : {SearchMode::kCascade, SearchMode::kExhaustive}) {
    algo->set_search_mode(mode);
    // The query has hits, so each mode has work left to cancel.
    auto hits = algo->Search(q);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    ASSERT_FALSE(hits->empty()) << GetParam().label;
    CancelToken fired;
    fired.SetDeadlineAfter(std::chrono::nanoseconds(0));
    q.cancel = &fired;
    auto cancelled = algo->Search(q);
    q.cancel = nullptr;
    EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded)
        << GetParam().label << " mode=" << static_cast<int>(mode) << ": "
        << cancelled.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, CascadeEquivalenceTest,
    ::testing::Values(AlgoCase{"santos", &MakeSantos},
                      AlgoCase{"lsh_ensemble", &MakeLsh},
                      AlgoCase{"josie", &MakeJosie},
                      AlgoCase{"tus", &MakeTus},
                      AlgoCase{"starmie", &MakeStarmie},
                      AlgoCase{"cocoa", &MakeCocoa},
                      AlgoCase{"keyword", &MakeKeyword}),
    [](const ::testing::TestParamInfo<AlgoCase>& param_info) {
      return std::string(param_info.param.label);
    });

// ----------------------------------------------------- cascade counters

TEST(CascadeStatsTest, JosiePublishesPruningCounters) {
  DataLake lake = MakeLake(/*seed=*/3, /*fragments=*/6);
  ObservabilityContext obs;
  JosieSearch josie;
  josie.set_observability(&obs);
  ASSERT_TRUE(josie.BuildIndex(lake).ok());
  const Table* query = lake.tables().front();
  DiscoveryQuery q{query, 0, 3};
  auto hits = josie.Search(q);
  ASSERT_TRUE(hits.ok());
  std::map<std::string, uint64_t> snap = obs.metrics().CounterSnapshot();
  ASSERT_TRUE(snap.count("discover.josie.cascade.candidates_total"));
  uint64_t total = snap["discover.josie.cascade.candidates_total"];
  uint64_t pruned = snap["discover.josie.cascade.pruned_stage0"];
  uint64_t scored = snap["discover.josie.cascade.scored_exact"];
  // Every stage-0 candidate is either pruned or exactly scored.
  EXPECT_EQ(total, pruned + scored);
}

// ---------------------------------------------------------- facade

TEST(DialiteFacadeTest, SearchModePropagatesToAlgorithms) {
  DataLake lake = MakeLake(/*seed=*/3, /*fragments=*/4);
  Dialite dialite(&lake);
  ASSERT_TRUE(dialite.RegisterDefaults().ok());
  dialite.set_num_threads(1);
  ASSERT_TRUE(dialite.BuildIndexes().ok());
  DiscoveryQuery q{lake.tables().front(), 0, 5};
  auto cascade = dialite.Discover(q, "santos");
  ASSERT_TRUE(cascade.ok());
  dialite.set_search_mode(SearchMode::kExhaustive);
  auto exhaustive = dialite.Discover(q, "santos");
  ASSERT_TRUE(exhaustive.ok());
  EXPECT_EQ(*cascade, *exhaustive);
}

// ------------------------------------------------------ pinned answers

/// FNV-1a 64 of `text`.
uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

/// A lake shaped like the serving benchmark's: neutral table names and
/// noisy headers, 16 fragments per domain.
DataLake MakeServeLake(uint64_t seed) {
  LakeGeneratorParams p;
  p.fragments_per_domain = 16;
  p.header_noise = 0.5;
  p.neutral_names = true;
  p.seed = seed;
  return SyntheticLakeGenerator(p).Generate().lake;
}

/// One sampled query table and its intent column.
struct SampledQuery {
  Table table;
  size_t intent = 0;
};

/// Queries drawn as the serving benchmark draws them: from every third
/// lake table with a string column, a random string intent column (always
/// kept), each other column kept with probability 1/2, and a random sample
/// of at least half the rows, named "query". Seeded, so every run and
/// every build asks the same questions.
std::vector<SampledQuery> SampleQueries(const DataLake& lake, uint64_t seed) {
  Rng rng(seed * 7919 + 1);
  std::vector<SampledQuery> out;
  const std::vector<const Table*> tables = lake.tables();
  for (size_t i = 0; i < tables.size(); i += 3) {
    const Table& t = *tables[i];
    std::vector<size_t> strings;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (t.schema().column(c).type == ValueType::kString) strings.push_back(c);
    }
    if (strings.empty() || t.num_rows() == 0) continue;
    const size_t intent = strings[rng.NextBounded(strings.size())];
    std::vector<size_t> cols;
    size_t intent_pos = 0;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (c == intent) intent_pos = cols.size();
      if (c == intent || rng.NextBool(0.5)) cols.push_back(c);
    }
    const size_t keep = static_cast<size_t>(
        rng.NextInt(static_cast<int64_t>((t.num_rows() + 1) / 2),
                    static_cast<int64_t>(t.num_rows())));
    std::vector<size_t> rows = rng.SampleIndices(t.num_rows(), keep);
    std::sort(rows.begin(), rows.end());
    std::vector<ColumnDef> defs;
    for (size_t c : cols) defs.push_back(t.schema().column(c));
    SampledQuery q{Table("query", Schema(std::move(defs))), intent_pos};
    for (size_t r : rows) {
      Row row;
      for (size_t c : cols) row.push_back(t.at(r, c));
      EXPECT_TRUE(q.table.AddRow(std::move(row)).ok());
    }
    out.push_back(std::move(q));
  }
  return out;
}

/// Per stock algorithm, the FNV-1a of every query's ranked hits (k = 10):
/// names and %.17g scores, in rank order.
std::map<std::string, uint64_t> AnswerDigests(
    const Dialite& dialite, const std::vector<SampledQuery>& queries) {
  std::map<std::string, uint64_t> out;
  for (const char* algo : {"cocoa", "josie", "keyword", "lsh_ensemble",
                           "santos", "starmie", "tus"}) {
    std::string text;
    for (size_t i = 0; i < queries.size(); ++i) {
      DiscoveryQuery q{&queries[i].table, queries[i].intent, 10};
      auto hits = dialite.Discover(q, algo);
      EXPECT_TRUE(hits.ok()) << algo << ": " << hits.status().ToString();
      if (!hits.ok()) continue;
      text += "#" + std::to_string(i);
      for (const DiscoveryHit& h : *hits) {
        char score[32];
        std::snprintf(score, sizeof(score), "%.17g", h.score);
        text += " " + h.table_name + "=" + score;
      }
    }
    out[algo] = Fnv1a(text);
  }
  return out;
}

// Every algorithm's ranked answers to seeded servebench-shaped queries,
// pinned as digests recorded before discovery moved onto dense table ids
// and flat index arrays. CascadeEquivalenceTest compares two modes of the
// same code; these digests also catch a layout change that moves both.
// Freshly built and snapshot-reopened indexes must both reproduce them.
TEST(PinnedAnswersTest, FreshAndReopenedIndexesKeepRecordedDigests) {
  std::vector<std::pair<std::string, uint64_t>> got;
  for (uint64_t seed : {1u, 4u}) {
    DataLake lake = MakeServeLake(seed);
    const std::vector<SampledQuery> queries = SampleQueries(lake, seed);
    ASSERT_GT(queries.size(), 20u);
    Dialite fresh(&lake);
    ASSERT_TRUE(fresh.RegisterDefaults().ok());
    ASSERT_TRUE(fresh.BuildIndexes().ok());
    const std::map<std::string, uint64_t> built = AnswerDigests(fresh, queries);
    const std::string path = testing::TempDir() + "/pinned_answers_" +
                             std::to_string(seed) + ".dialsnap";
    ASSERT_TRUE(fresh.SaveSnapshot(path).ok());
    Result<SnapshotSystem> reopened = Dialite::OpenSnapshot(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(AnswerDigests(*reopened->dialite, queries), built)
        << "seed " << seed;
    std::remove(path.c_str());
    for (const auto& [algo, digest] : built) {
      got.emplace_back("seed " + std::to_string(seed) + " " + algo, digest);
    }
  }
  const std::vector<std::pair<std::string, uint64_t>> recorded = {
      {"seed 1 cocoa", 0x1df748aa62d0003eull},
      {"seed 1 josie", 0x86dd8562728ee21full},
      {"seed 1 keyword", 0x43b568ea533fcd1cull},
      {"seed 1 lsh_ensemble", 0x73cced53dac508beull},
      {"seed 1 santos", 0xe745a3c541c9a04eull},
      {"seed 1 starmie", 0x8ce46ec34007ddbcull},
      {"seed 1 tus", 0x5e854d22f689651eull},
      {"seed 4 cocoa", 0xc704699c976a6d60ull},
      {"seed 4 josie", 0xe7ab46c6350d4115ull},
      {"seed 4 keyword", 0x2566792fae65af03ull},
      {"seed 4 lsh_ensemble", 0x11ec50bafa54105cull},
      {"seed 4 santos", 0x437ac7e0c6ac0ae5ull},
      {"seed 4 starmie", 0xaa5df917751f325aull},
      {"seed 4 tus", 0x887a9312cbeaceb0ull},
  };
  EXPECT_EQ(got, recorded);
}

// ------------------------------------------------- request deadlines

TEST(RunBoundedTopKTest, PreExpiredDeadlineScoresNothing) {
  // The cascade polls the token before every exact scoring call — the
  // expensive unit — so a token that fired before the scan starts must
  // abort it without a single scorer invocation.
  std::vector<BoundedCandidate> cands = {{"a", 3.0}, {"b", 2.0}, {"c", 1.0}};
  size_t calls = 0;
  auto exact = [&](const BoundedCandidate&) {
    ++calls;
    return 1.0;
  };
  CancelToken cancel;
  cancel.SetDeadlineAfter(std::chrono::nanoseconds(0));
  CascadeStats stats;
  (void)RunBoundedTopK(cands, 2, exact, &stats, &cancel);
  EXPECT_TRUE(stats.cancelled);
  EXPECT_EQ(stats.scored_exact, 0u);
  EXPECT_EQ(calls, 0u);
}

}  // namespace
}  // namespace dialite
