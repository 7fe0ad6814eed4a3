#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "sketch/hyperloglog.h"
#include "sketch/lsh_ensemble.h"
#include "sketch/minhash.h"
#include "text/similarity.h"

namespace dialite {
namespace {

std::vector<std::string> MakeTokens(int begin, int end, const std::string& p) {
  std::vector<std::string> out;
  for (int i = begin; i < end; ++i) out.push_back(p + std::to_string(i));
  return out;
}

// ------------------------------------------------------------- MinHash

TEST(MinHashTest, IdenticalSetsEstimateOne) {
  auto toks = MakeTokens(0, 100, "t");
  MinHash a = MinHash::FromTokens(toks, 128);
  MinHash b = MinHash::FromTokens(toks, 128);
  EXPECT_DOUBLE_EQ(a.EstimateJaccard(b), 1.0);
}

TEST(MinHashTest, DisjointSetsEstimateNearZero) {
  MinHash a = MinHash::FromTokens(MakeTokens(0, 100, "a"), 128);
  MinHash b = MinHash::FromTokens(MakeTokens(0, 100, "b"), 128);
  EXPECT_LT(a.EstimateJaccard(b), 0.05);
}

TEST(MinHashTest, EstimateTracksTrueJaccard) {
  // |A∩B| = 50, |A∪B| = 150 → J = 1/3.
  auto a_toks = MakeTokens(0, 100, "x");
  auto b_toks = MakeTokens(50, 150, "x");
  MinHash a = MinHash::FromTokens(a_toks, 256);
  MinHash b = MinHash::FromTokens(b_toks, 256);
  double truth = Jaccard(a_toks, b_toks);
  EXPECT_NEAR(a.EstimateJaccard(b), truth, 0.12);
}

TEST(MinHashTest, OrderInsensitive) {
  MinHash a(64);
  a.Update("x");
  a.Update("y");
  MinHash b(64);
  b.Update("y");
  b.Update("x");
  EXPECT_EQ(a.signature(), b.signature());
}

TEST(MinHashTest, ContainmentEstimate) {
  // A ⊂ B with |A| = 50, |B| = 200 → containment(A in B) = 1.
  auto a_toks = MakeTokens(0, 50, "x");
  auto b_toks = MakeTokens(0, 200, "x");
  MinHash a = MinHash::FromTokens(a_toks, 256);
  MinHash b = MinHash::FromTokens(b_toks, 256);
  EXPECT_GT(a.EstimateContainment(b, 50, 200), 0.7);
  EXPECT_LT(b.EstimateContainment(a, 200, 50), 0.45);
}

TEST(MinHashTest, DifferentSeedsGiveDifferentSignatures) {
  auto toks = MakeTokens(0, 10, "t");
  MinHash a = MinHash::FromTokens(toks, 32, 1);
  MinHash b = MinHash::FromTokens(toks, 32, 2);
  EXPECT_NE(a.signature(), b.signature());
}

TEST(MinHashTest, BandHashDependsOnRange) {
  MinHash a = MinHash::FromTokens(MakeTokens(0, 10, "t"), 64);
  EXPECT_NE(a.BandHash(0, 8), a.BandHash(8, 16));
}

// --------------------------------------------------------- LSH Ensemble

TEST(LshEnsembleTest, ContainmentToJaccardFormula) {
  // c=1, |Q|=10, u=10 → j = 10/(10+10-10) = 1.
  EXPECT_DOUBLE_EQ(LshEnsemble::ContainmentToJaccard(1.0, 10, 10), 1.0);
  // c=0.5, |Q|=10, u=90 → j = 5/(10+90-5) = 5/95.
  EXPECT_NEAR(LshEnsemble::ContainmentToJaccard(0.5, 10, 90), 5.0 / 95.0,
              1e-12);
  EXPECT_LE(LshEnsemble::ContainmentToJaccard(1.0, 100, 1), 1.0);
}

TEST(LshEnsembleTest, FindsContainingSets) {
  LshEnsemble ens;
  // Query's values fully contained in set 1; half in set 2; none in 3.
  auto query = MakeTokens(0, 40, "q");
  ASSERT_TRUE(ens.Add(1, MakeTokens(0, 80, "q")).ok());
  ASSERT_TRUE(ens.Add(2, MakeTokens(20, 100, "q")).ok());
  ASSERT_TRUE(ens.Add(3, MakeTokens(0, 80, "z")).ok());
  // Padding domains of varied sizes so partitioning is non-trivial.
  for (uint64_t id = 10; id < 40; ++id) {
    ASSERT_TRUE(
        ens.Add(id, MakeTokens(0, static_cast<int>(10 + id * 7), "p" +
                                   std::to_string(id)))
            .ok());
  }
  ASSERT_TRUE(ens.Build().ok());

  std::vector<uint64_t> hits = ens.Query(query, 0.9);
  EXPECT_NE(std::find(hits.begin(), hits.end(), 1u), hits.end())
      << "fully-containing set must be found at t=0.9";
  EXPECT_EQ(std::find(hits.begin(), hits.end(), 3u), hits.end())
      << "disjoint set must not be found";

  std::vector<uint64_t> hits_low = ens.Query(query, 0.3);
  EXPECT_NE(std::find(hits_low.begin(), hits_low.end(), 2u), hits_low.end())
      << "half-containing set must appear at t=0.3";
}

TEST(LshEnsembleTest, AddAfterBuildFails) {
  LshEnsemble ens;
  ASSERT_TRUE(ens.Add(1, MakeTokens(0, 5, "a")).ok());
  ASSERT_TRUE(ens.Build().ok());
  EXPECT_FALSE(ens.Add(2, MakeTokens(0, 5, "b")).ok());
  EXPECT_FALSE(ens.Build().ok());
}

TEST(LshEnsembleTest, EmptyEnsembleQueriesEmpty) {
  LshEnsemble ens;
  ASSERT_TRUE(ens.Build().ok());
  EXPECT_TRUE(ens.Query(MakeTokens(0, 5, "q"), 0.5).empty());
}

TEST(LshEnsembleTest, EmptyQueryReturnsEmpty) {
  LshEnsemble ens;
  ASSERT_TRUE(ens.Add(1, MakeTokens(0, 5, "a")).ok());
  ASSERT_TRUE(ens.Build().ok());
  EXPECT_TRUE(ens.Query({}, 0.5).empty());
}

/// Reference answers for LshEnsemble::Query from the band tables the
/// ensemble kept before its flat sorted arrays: per partition and
/// candidate r, one hash map per band from band key to entry indices. The
/// partitioning, the choice of r and the containment post-filter are the
/// ensemble's own, restated here.
class MapBandReference {
 public:
  /// `ids[i]` is the id the i-th domain was added under.
  MapBandReference(const LshEnsemble& ens, std::vector<uint64_t> ids,
                   size_t num_perm, size_t num_partitions)
      : ens_(ens), ids_(std::move(ids)), num_perm_(num_perm) {
    std::vector<size_t> order(ens.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return ens.set_size(a) < ens.set_size(b);
    });
    const size_t num_parts = std::min(num_partitions, ens.size());
    const size_t per_part = (ens.size() + num_parts - 1) / num_parts;
    for (size_t p = 0; p < num_parts; ++p) {
      const size_t begin = p * per_part;
      const size_t end = std::min(ens.size(), begin + per_part);
      if (begin >= end) break;
      Partition part;
      part.upper = ens.set_size(order[end - 1]);
      for (size_t r : kRows) {
        if (r > num_perm) continue;
        auto& tables = part.tables[r];
        tables.resize(num_perm / r);
        for (size_t i = begin; i < end; ++i) {
          for (size_t b = 0; b < tables.size(); ++b) {
            tables[b][ens.sketch(order[i]).BandHash(b * r, (b + 1) * r)]
                .push_back(order[i]);
          }
        }
      }
      parts_.push_back(std::move(part));
    }
  }

  std::vector<uint64_t> Query(const MinHash& qmh, size_t qsize,
                              double threshold) const {
    std::unordered_set<size_t> found;
    for (const Partition& part : parts_) {
      const double jt =
          LshEnsemble::ContainmentToJaccard(threshold, qsize, part.upper);
      size_t best_r = kRows[0];
      double best_err = 1e18;
      for (size_t r : kRows) {
        if (!part.tables.count(r)) continue;
        const double bands = static_cast<double>(num_perm_ / r);
        const double err = std::fabs(
            std::pow(1.0 / bands, 1.0 / static_cast<double>(r)) - jt);
        if (err < best_err) {
          best_err = err;
          best_r = r;
        }
      }
      const auto& tables = part.tables.at(best_r);
      for (size_t b = 0; b < tables.size(); ++b) {
        auto it = tables[b].find(qmh.BandHash(b * best_r, (b + 1) * best_r));
        if (it != tables[b].end()) found.insert(it->second.begin(), it->second.end());
      }
    }
    std::vector<uint64_t> out;
    for (size_t idx : found) {
      if (qmh.EstimateContainment(ens_.sketch(idx), qsize,
                                  ens_.set_size(idx)) >= threshold * 0.8) {
        out.push_back(ids_[idx]);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  static constexpr size_t kRows[] = {1, 2, 4, 8, 16, 32};
  struct Partition {
    size_t upper = 0;
    std::map<size_t,
             std::vector<std::unordered_map<uint64_t, std::vector<size_t>>>>
        tables;
  };
  const LshEnsemble& ens_;
  std::vector<uint64_t> ids_;
  size_t num_perm_;
  std::vector<Partition> parts_;
};

// The flat sorted band arrays must return exactly the candidates the
// per-band hash maps did: on random domains of mixed sizes (many sharing
// tokens, so bands collide), at low, middle and high thresholds, through
// both Query overloads.
TEST(LshEnsembleTest, FlatBandTablesMatchMapReference) {
  Rng rng(20261018);
  auto random_domain = [&](size_t size, size_t universe) {
    std::vector<std::string> toks;
    for (size_t i = 0; i < size; ++i) {
      toks.push_back("v" + std::to_string(rng.NextBounded(universe)));
    }
    std::sort(toks.begin(), toks.end());
    toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
    return toks;
  };
  const size_t sizes[] = {3, 12, 40, 150, 600};
  LshEnsemble::Params params;
  LshEnsemble ens(params);
  std::vector<std::vector<std::string>> domains;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < 700; ++i) {
    domains.push_back(random_domain(sizes[rng.NextBounded(5)], 900));
    ids.push_back(1000 + 3 * i);
    ASSERT_TRUE(ens.Add(ids.back(), domains.back()).ok());
  }
  ASSERT_TRUE(ens.Build().ok());
  const MapBandReference reference(ens, ids, params.num_perm,
                                   params.num_partitions);
  size_t nonempty = 0;
  for (size_t q = 0; q < 60; ++q) {
    // Half the queries are samples of an indexed domain, so some
    // containments are high.
    std::vector<std::string> query =
        q % 2 == 0 ? random_domain(sizes[rng.NextBounded(4)], 900)
                   : domains[rng.NextBounded(domains.size())];
    if (q % 2 == 1 && query.size() > 4) query.resize(query.size() / 2);
    const MinHash qmh =
        MinHash::FromTokens(query, params.num_perm, params.seed);
    for (double t : {0.1, 0.5, 0.9}) {
      const std::vector<uint64_t> want = reference.Query(qmh, query.size(), t);
      EXPECT_EQ(ens.Query(query, t), want) << "query " << q << " t=" << t;
      EXPECT_EQ(ens.Query(qmh, query.size(), t), want)
          << "query " << q << " t=" << t;
      if (!want.empty()) ++nonempty;
    }
  }
  EXPECT_GT(nonempty, 90u);
}


// ---------------------------------------------------------- HyperLogLog

// In the small range (raw estimate <= 2.5m with empty registers) the
// estimator switches to linear counting, which is near-exact: for n far
// below m = 2^p the relative error should be well under the ~1.04/sqrt(m)
// asymptotic bound.
TEST(HyperLogLogTest, LinearCountingSmallRangeAccuracy) {
  HyperLogLog hll(12);  // m = 4096 registers
  const size_t n = 100;
  for (size_t i = 0; i < n; ++i) hll.Add("item_" + std::to_string(i));
  const double est = hll.Estimate();
  EXPECT_NEAR(est, static_cast<double>(n), 0.05 * n)
      << "linear counting should be within 5% at n=" << n;
}

TEST(HyperLogLogTest, SmallRangeAcrossSizes) {
  // Accuracy holds across the whole linear-counting regime.
  for (size_t n : {10u, 50u, 500u, 2000u}) {
    HyperLogLog hll(12);
    for (size_t i = 0; i < n; ++i) hll.Add("v" + std::to_string(i));
    const double est = hll.Estimate();
    const double tolerance = std::max(2.0, 0.1 * static_cast<double>(n));
    EXPECT_NEAR(est, static_cast<double>(n), tolerance) << "n=" << n;
  }
}

TEST(HyperLogLogTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (size_t rep = 0; rep < 10; ++rep) {
    for (size_t i = 0; i < 64; ++i) hll.Add("dup_" + std::to_string(i));
  }
  EXPECT_NEAR(hll.Estimate(), 64.0, 5.0);
}

TEST(HyperLogLogTest, LargeRangeWithinAsymptoticError) {
  HyperLogLog hll(12);
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) hll.Add("big_" + std::to_string(i));
  // ~1.04/sqrt(4096) = 1.6%; allow 3x slack for one fixed seed.
  EXPECT_NEAR(hll.Estimate(), static_cast<double>(n), 0.05 * n);
}

TEST(HyperLogLogTest, MergeMatchesUnion) {
  HyperLogLog a(12), b(12), u(12);
  for (size_t i = 0; i < 300; ++i) {
    a.Add("a" + std::to_string(i));
    u.Add("a" + std::to_string(i));
  }
  for (size_t i = 0; i < 300; ++i) {
    b.Add("b" + std::to_string(i));
    u.Add("b" + std::to_string(i));
  }
  ASSERT_TRUE(a.Merge(b));
  EXPECT_DOUBLE_EQ(a.Estimate(), u.Estimate());
}

}  // namespace
}  // namespace dialite
