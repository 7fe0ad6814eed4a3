/// Property-based sweeps (TEST_P) over the library's core invariants:
/// Full Disjunction semantics, sketch accuracy bounds, CSV round-trips,
/// and alignment constraints, across seeds and sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "align/alite_matcher.h"
#include "analyze/entity_resolution.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "fd_reference.h"
#include "integrate/full_disjunction.h"
#include "integrate/join_ops.h"
#include "lake/lake_generator.h"
#include "sketch/lsh_ensemble.h"
#include "sketch/minhash.h"
#include "table/csv.h"
#include "text/similarity.h"

namespace dialite {
namespace {

// ------------------------------------------------------- FD invariants

/// A randomized integration set: K entities with a key and four
/// attributes, split into three overlapping fragments with nulls.
std::vector<Table> RandomFragments(uint64_t seed) {
  Rng rng(seed);
  size_t entities = 15 + rng.NextBounded(25);
  double null_rate = 0.05 + 0.25 * rng.NextDouble();
  std::vector<Table> tables;
  tables.emplace_back("F0", Schema::FromNames({"k", "a", "b"}));
  tables.emplace_back("F1", Schema::FromNames({"k", "b", "c"}));
  tables.emplace_back("F2", Schema::FromNames({"k", "c", "d"}));
  for (size_t i = 0; i < entities; ++i) {
    auto val = [&](const char* a) -> Value {
      if (rng.NextBool(null_rate)) return Value::Null();
      return Value::String(std::string(a) + std::to_string(i));
    };
    if (rng.NextBool(0.8)) {
      (void)tables[0].AddRow({val("k"), val("a"), val("b")});
    }
    if (rng.NextBool(0.8)) {
      (void)tables[1].AddRow({val("k"), val("b"), val("c")});
    }
    if (rng.NextBool(0.8)) {
      (void)tables[2].AddRow({val("k"), val("c"), val("d")});
    }
  }
  return tables;
}

class FdPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FdPropertySweep, OutputIsSubsumptionFreeAndLossless) {
  std::vector<Table> storage = RandomFragments(GetParam());
  std::vector<const Table*> tables;
  for (const Table& t : storage) tables.push_back(&t);
  NameMatcher matcher;
  auto alignment = matcher.Align(tables);
  ASSERT_TRUE(alignment.ok());
  auto fd = FullDisjunction().Integrate(tables, *alignment);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  // (1) No output tuple subsumes another.
  for (size_t i = 0; i < fd->num_rows(); ++i) {
    for (size_t j = 0; j < fd->num_rows(); ++j) {
      if (i != j) {
        ASSERT_FALSE(TupleSubsumedBy(fd->row(i), fd->row(j)))
            << "seed " << GetParam() << ": " << i << " subsumed by " << j;
      }
    }
  }
  // (2) Every input tuple is covered by some output tuple.
  auto u = BuildOuterUnion(tables, *alignment, "u");
  ASSERT_TRUE(u.ok());
  for (size_t i = 0; i < u->num_rows(); ++i) {
    bool covered = false;
    for (size_t j = 0; j < fd->num_rows() && !covered; ++j) {
      covered = TupleSubsumedBy(u->row(i), fd->row(j));
    }
    ASSERT_TRUE(covered) << "seed " << GetParam() << ": input " << i;
  }
}

TEST_P(FdPropertySweep, OrderIndependenceAsRelation) {
  std::vector<Table> storage = RandomFragments(GetParam());
  std::vector<const Table*> fwd = {&storage[0], &storage[1], &storage[2]};
  std::vector<const Table*> rev = {&storage[2], &storage[0], &storage[1]};
  NameMatcher matcher;
  auto a1 = matcher.Align(fwd);
  auto a2 = matcher.Align(rev);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  auto r1 = FullDisjunction().Integrate(fwd, *a1);
  auto r2 = FullDisjunction().Integrate(rev, *a2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Project r2 into r1's column order by display name.
  std::vector<size_t> proj;
  for (size_t c = 0; c < r1->num_columns(); ++c) {
    size_t idx = r2->schema().IndexOf(r1->schema().column(c).name);
    ASSERT_NE(idx, Schema::npos);
    proj.push_back(idx);
  }
  Table r2p = r2->ProjectColumns(proj, "r2p");
  EXPECT_TRUE(r1->SameRowsAs(r2p)) << "seed " << GetParam();
}

TEST_P(FdPropertySweep, IndexedAndParallelMatchReference) {
  std::vector<Table> storage = RandomFragments(GetParam());
  std::vector<const Table*> tables;
  for (const Table& t : storage) tables.push_back(&t);
  NameMatcher matcher;
  auto alignment = matcher.Align(tables);
  ASSERT_TRUE(alignment.ok());
  const std::vector<std::string> expected =
      Rendered(ReferenceFd(tables, *alignment, /*complement=*/true));
  auto indexed = FullDisjunction().Integrate(tables, *alignment);
  auto parallel = ParallelFullDisjunction(3).Integrate(tables, *alignment);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(Rendered(*indexed), expected) << "seed " << GetParam();
  EXPECT_EQ(Rendered(*parallel), expected) << "seed " << GetParam();
}

TEST_P(FdPropertySweep, FdCoversOuterJoinInformation) {
  std::vector<Table> storage = RandomFragments(GetParam());
  std::vector<const Table*> tables;
  for (const Table& t : storage) tables.push_back(&t);
  NameMatcher matcher;
  auto alignment = matcher.Align(tables);
  ASSERT_TRUE(alignment.ok());
  auto fd = FullDisjunction().Integrate(tables, *alignment);
  auto oj = OuterJoinIntegration().Integrate(tables, *alignment);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(oj.ok());
  for (size_t i = 0; i < oj->num_rows(); ++i) {
    bool covered = false;
    for (size_t j = 0; j < fd->num_rows() && !covered; ++j) {
      covered = TupleSubsumedBy(oj->row(i), fd->row(j));
    }
    ASSERT_TRUE(covered) << "seed " << GetParam() << " oj row " << i;
  }
}

TEST_P(FdPropertySweep, IncrementalExtensionEqualsFullRecompute) {
  // Associativity in its operational form: FD(FD(T1,T2), T3) equals
  // FD(T1,T2,T3) — the incremental-integration pattern (add one more
  // discovered table to an existing integrated result).
  std::vector<Table> storage = RandomFragments(GetParam());
  NameMatcher matcher;
  FullDisjunction fd;

  std::vector<const Table*> all = {&storage[0], &storage[1], &storage[2]};
  auto align_all = matcher.Align(all);
  ASSERT_TRUE(align_all.ok());
  auto full = fd.Integrate(all, *align_all);
  ASSERT_TRUE(full.ok());

  std::vector<const Table*> first_two = {&storage[0], &storage[1]};
  auto align_two = matcher.Align(first_two);
  ASSERT_TRUE(align_two.ok());
  auto partial = fd.Integrate(first_two, *align_two);
  ASSERT_TRUE(partial.ok());
  Table partial_t = std::move(partial).value();
  partial_t.set_name("partial_fd");

  std::vector<const Table*> extended = {&partial_t, &storage[2]};
  auto align_ext = matcher.Align(extended);
  ASSERT_TRUE(align_ext.ok());
  auto incremental = fd.Integrate(extended, *align_ext);
  ASSERT_TRUE(incremental.ok());

  // Compare as relations (column order may differ).
  std::vector<size_t> proj;
  for (size_t c = 0; c < full->num_columns(); ++c) {
    size_t idx =
        incremental->schema().IndexOf(full->schema().column(c).name);
    ASSERT_NE(idx, Schema::npos);
    proj.push_back(idx);
  }
  Table inc_reordered = incremental->ProjectColumns(proj, "inc");
  EXPECT_TRUE(full->SameRowsAs(inc_reordered)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdPropertySweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ------------------------------------------------------ MinHash accuracy

struct MinHashCase {
  size_t num_perm;
  double true_jaccard;
  double tolerance;
};

class MinHashAccuracySweep : public ::testing::TestWithParam<MinHashCase> {};

TEST_P(MinHashAccuracySweep, EstimateWithinTolerance) {
  const MinHashCase& c = GetParam();
  // Construct two sets with the exact target Jaccard: |A|=|B|=n,
  // overlap o: J = o / (2n - o)  =>  o = 2nJ/(1+J).
  const size_t n = 600;
  size_t overlap =
      static_cast<size_t>(2.0 * n * c.true_jaccard / (1.0 + c.true_jaccard) +
                          0.5);
  std::vector<std::string> a;
  std::vector<std::string> b;
  for (size_t i = 0; i < n; ++i) {
    a.push_back("s" + std::to_string(i));
    b.push_back(i < overlap ? "s" + std::to_string(i)
                            : "t" + std::to_string(i));
  }
  double truth = Jaccard(a, b);
  MinHash ma = MinHash::FromTokens(a, c.num_perm);
  MinHash mb = MinHash::FromTokens(b, c.num_perm);
  EXPECT_NEAR(ma.EstimateJaccard(mb), truth, c.tolerance)
      << "perm=" << c.num_perm << " J=" << c.true_jaccard;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MinHashAccuracySweep,
    ::testing::Values(MinHashCase{64, 0.2, 0.18}, MinHashCase{64, 0.5, 0.18},
                      MinHashCase{64, 0.8, 0.18},
                      MinHashCase{128, 0.2, 0.13},
                      MinHashCase{128, 0.5, 0.13},
                      MinHashCase{128, 0.8, 0.13},
                      MinHashCase{256, 0.2, 0.09},
                      MinHashCase{256, 0.5, 0.09},
                      MinHashCase{256, 0.8, 0.09},
                      MinHashCase{512, 0.5, 0.07}));

// ---------------------------------------------------- LSH Ensemble recall

class LshEnsembleRecallSweep : public ::testing::TestWithParam<double> {};

TEST_P(LshEnsembleRecallSweep, HighContainmentSetsAreFound) {
  const double threshold = GetParam();
  Rng rng(404);
  LshEnsemble ens;
  // 60 decoys with random overlap; 10 planted sets containing the query.
  std::vector<std::string> query;
  for (int i = 0; i < 80; ++i) query.push_back("q" + std::to_string(i));
  std::vector<uint64_t> planted;
  for (uint64_t id = 0; id < 10; ++id) {
    std::vector<std::string> s = query;  // full containment
    size_t extra = 20 + rng.NextBounded(300);
    for (size_t e = 0; e < extra; ++e) {
      s.push_back("x" + std::to_string(id) + "_" + std::to_string(e));
    }
    ASSERT_TRUE(ens.Add(1000 + id, s).ok());
    planted.push_back(1000 + id);
  }
  for (uint64_t id = 0; id < 60; ++id) {
    std::vector<std::string> s;
    size_t size = 30 + rng.NextBounded(400);
    for (size_t e = 0; e < size; ++e) {
      s.push_back("d" + std::to_string(id) + "_" + std::to_string(e));
    }
    ASSERT_TRUE(ens.Add(id, s).ok());
  }
  ASSERT_TRUE(ens.Build().ok());
  std::vector<uint64_t> hits = ens.Query(query, threshold);
  size_t found = 0;
  for (uint64_t id : planted) {
    if (std::find(hits.begin(), hits.end(), id) != hits.end()) ++found;
  }
  // Fully-containing sets must be recalled near-perfectly at any threshold.
  EXPECT_GE(found, 9u) << "threshold " << threshold;
}

INSTANTIATE_TEST_SUITE_P(Thresholds, LshEnsembleRecallSweep,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9));

// --------------------------------------------------------- CSV round-trip

class CsvRoundTripSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundTripSweep, RandomTablesSurvive) {
  Rng rng(GetParam());
  size_t cols = 1 + rng.NextBounded(6);
  size_t rows = rng.NextBounded(40);
  std::vector<std::string> names;
  for (size_t c = 0; c < cols; ++c) {
    names.push_back("col_" + std::to_string(c));
  }
  Table t("rt", Schema::FromNames(names));
  const std::string specials[] = {
      "plain",   "with,comma", "with\"quote", "multi\nline", "  spaced  ",
      "uni±code", "",          "123",         "4.5",         "-7"};
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (size_t c = 0; c < cols; ++c) {
      // A single-column all-null row serializes to a blank line, which the
      // reader (like pandas) skips by design — don't generate it.
      switch (cols == 1 ? 1 + rng.NextBounded(4) : rng.NextBounded(5)) {
        case 0:
          row.push_back(Value::Null());
          break;
        case 1:
          row.push_back(Value::Int(rng.NextInt(-1000000, 1000000)));
          break;
        case 2:
          row.push_back(
              Value::Double(static_cast<double>(rng.NextInt(-999, 999)) / 8.0));
          break;
        default: {
          std::string s = specials[rng.NextBounded(10)];
          // Same blank-line caveat for the empty string in 1-col tables.
          if (cols == 1 && s.empty()) s = "x";
          row.push_back(Value::String(std::move(s)));
        }
      }
    }
    ASSERT_TRUE(t.AddRow(std::move(row)).ok());
  }
  std::string csv = CsvWriter::ToString(t);
  auto back = CsvReader::Parse(csv, "rt");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_rows(), t.num_rows());
  ASSERT_EQ(back->num_columns(), t.num_columns());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Value& orig = t.at(r, c);
      const Value& got = back->at(r, c);
      if (orig.is_null()) {
        EXPECT_TRUE(got.is_null()) << r << "," << c;
      } else if (orig.is_string() &&
                 (TrimView(orig.as_string()) != orig.as_string() ||
                  orig.as_string().empty())) {
        // Leading/trailing whitespace is normalized by design; empty
        // strings become nulls.
        continue;
      } else {
        double od;
        double gd;
        if (orig.AsNumeric(&od) && got.AsNumeric(&gd)) {
          EXPECT_NEAR(od, gd, 1e-9) << r << "," << c;
        } else {
          EXPECT_TRUE(got.Identical(orig))
              << r << "," << c << ": '" << orig.ToCsvString() << "' vs '"
              << got.ToCsvString() << "'";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripSweep,
                         ::testing::Range<uint64_t>(100, 110));

// ------------------------------------------------- Alignment constraints

class AlignmentConstraintSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlignmentConstraintSweep, HolisticAlignmentIsAlwaysValidPartition) {
  LakeGeneratorParams p;
  p.fragments_per_domain = 4;
  p.header_noise = 0.7;
  p.null_rate = 0.15;
  p.seed = GetParam();
  p.domains = {"companies", "flights"};
  auto out = SyntheticLakeGenerator(p).Generate();
  std::vector<const Table*> tables = out.lake.tables();
  AliteMatcher matcher;
  auto r = matcher.Align(tables);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Validate() enforces: every column in exactly one cluster, no
  // same-table pairs.
  EXPECT_TRUE(r->Validate(tables).ok());
  // And the integrated table is computable over it.
  auto fd = FullDisjunction().Integrate(tables, *r);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignmentConstraintSweep,
                         ::testing::Values(11, 22, 33, 44, 55));

// --------------------------------------------------------- ER idempotency

class ErIdempotencySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ErIdempotencySweep, ResolvingTwiceChangesNothing) {
  // ER is a fix-point style cleanup: applying it to its own output must be
  // a no-op (clusters were already merged).
  std::vector<Table> storage = RandomFragments(GetParam());
  std::vector<const Table*> tables;
  for (const Table& t : storage) tables.push_back(&t);
  NameMatcher matcher;
  auto alignment = matcher.Align(tables);
  ASSERT_TRUE(alignment.ok());
  auto fd = FullDisjunction().Integrate(tables, *alignment);
  ASSERT_TRUE(fd.ok());
  EntityResolver er;
  auto once = er.Resolve(*fd);
  ASSERT_TRUE(once.ok());
  auto twice = er.Resolve(once->resolved);
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(once->resolved.num_rows(), twice->resolved.num_rows())
      << "seed " << GetParam();
  EXPECT_TRUE(once->resolved.SameRowsAs(twice->resolved))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErIdempotencySweep,
                         ::testing::Values(3, 14, 15, 92, 65));

// ----------------------------------------------------- string sim bounds

class SimilarityBoundsSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimilarityBoundsSweep, AllMeasuresStayInUnitRange) {
  Rng rng(GetParam());
  auto rand_str = [&rng]() {
    size_t len = rng.NextBounded(12);
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.NextBounded(6));
    }
    return s;
  };
  for (int i = 0; i < 200; ++i) {
    std::string a = rand_str();
    std::string b = rand_str();
    for (double v : {JaroWinkler(a, b), Jaro(a, b)}) {
      ASSERT_GE(v, 0.0) << a << " / " << b;
      ASSERT_LE(v, 1.0) << a << " / " << b;
    }
    // Symmetry.
    ASSERT_DOUBLE_EQ(Jaro(a, b), Jaro(b, a));
    // Identity.
    ASSERT_DOUBLE_EQ(JaroWinkler(a, a), a.empty() ? 1.0 : 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityBoundsSweep,
                         ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace dialite
