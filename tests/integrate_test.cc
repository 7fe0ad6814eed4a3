#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "align/alite_matcher.h"
#include "common/rng.h"
#include "integrate/full_disjunction.h"
#include "integrate/join_ops.h"
#include "integrate/tuple_codes.h"
#include "lake/lake_generator.h"
#include "lake/paper_fixtures.h"
#include "table/table_builder.h"

namespace dialite {
namespace {

Alignment AlignSet(const std::vector<const Table*>& tables) {
  AliteMatcher matcher;
  auto r = matcher.Align(tables);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Returns the row index whose provenance equals `prov`, or npos.
size_t RowWithProv(const Table& t, std::vector<std::string> prov) {
  std::sort(prov.begin(), prov.end());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (t.provenance(r) == prov) return r;
  }
  return static_cast<size_t>(-1);
}

// ----------------------------------------------------------- primitives

TEST(TupleCodecTest, ExtremeDoublesEncodeWithoutOverflow) {
  // TupleCodec::Encode folds integral doubles into their int64 class, but
  // the cast is range-guarded: values at/above 2^63, ±1e300, and NaN must
  // take the raw-bits path (no float→int overflow, which is UB) while
  // keeping Identical() semantics — NaN never equals itself, 5 == 5.0.
  Table t("extremes", Schema::FromNames({"v"}));
  const double two63 = 9223372036854775808.0;  // 2^63, exactly representable
  ASSERT_TRUE(t.AddRow({Value::Double(two63)}).ok());
  ASSERT_TRUE(t.AddRow({Value::Double(two63)}).ok());
  ASSERT_TRUE(t.AddRow({Value::Double(-two63)}).ok());  // int64 min: foldable
  ASSERT_TRUE(t.AddRow({Value::Double(1e300)}).ok());
  ASSERT_TRUE(t.AddRow({Value::Double(-1e300)}).ok());
  ASSERT_TRUE(t.AddRow({Value::Double(std::nan(""))}).ok());
  ASSERT_TRUE(t.AddRow({Value::Double(std::nan(""))}).ok());
  ASSERT_TRUE(t.AddRow({Value::Int(5)}).ok());
  ASSERT_TRUE(t.AddRow({Value::Double(5.0)}).ok());
  TupleCodec codec;
  std::vector<uint32_t> codes = codec.EncodeTable(t);
  ASSERT_EQ(codes.size(), 9u);
  EXPECT_EQ(codes[0], codes[1]);  // 2^63 is a single equivalence class
  EXPECT_NE(codes[0], codes[2]);
  EXPECT_NE(codes[3], codes[4]);
  EXPECT_NE(codes[5], codes[6]);  // each NaN occurrence is its own class
  EXPECT_EQ(codes[7], codes[8]);  // 5 and 5.0 fold together
  for (uint32_t c : codes) EXPECT_FALSE(CodeIsNull(c));
}

TEST(TupleCodecTest, IntAndDoubleFoldAcrossTablesAndColumns) {
  // A(a0, a1) and B(b0, b1), a0 and b0 in union column 0, a1 and b1 in
  // column 1. Class 5 is first seen as A's double 5.0 in column 0, class 7
  // as A's int 7 in column 1 (row-major over the union), and every cell of
  // a class decodes to that representative: in either table, and in a
  // column other than the representative's.
  Table a("A", Schema::FromNames({"a0", "a1"}));
  ASSERT_TRUE(a.AddRow({Value::Double(5.0), Value::Int(7)}).ok());
  ASSERT_TRUE(a.AddRow({Value::String("x"), Value::Int(5)}).ok());
  Table b("B", Schema::FromNames({"b0", "b1"}));
  ASSERT_TRUE(b.AddRow({Value::Int(5), Value::Double(7.0)}).ok());
  ASSERT_TRUE(b.AddRow({Value::String("x"), Value::Null()}).ok());
  TupleCodec codec;
  const std::vector<uint32_t> codes =
      codec.EncodeUnion({&a, &b}, {{0, 1}, {0, 1}}, 2);
  ASSERT_EQ(codes.size(), 8u);
  EXPECT_EQ(codes[0], codes[4]);  // 5.0 and 5 in column 0, across tables
  EXPECT_EQ(codes[1], codes[5]);  // 7 and 7.0 in column 1
  EXPECT_EQ(codes[2], codes[6]);  // "x" across the two dictionaries
  EXPECT_NE(codes[0], codes[3]);  // a code names its column
  EXPECT_EQ(codes[7], kMissingNullCode);
  for (uint32_t code : {codes[0], codes[3], codes[4]}) {
    const Value v = codec.Decode(code);
    ASSERT_TRUE(v.is_double()) << v.ToCsvString();
    EXPECT_EQ(v.as_double(), 5.0);
  }
  for (uint32_t code : {codes[1], codes[5]}) {
    const Value v = codec.Decode(code);
    ASSERT_TRUE(v.is_int()) << v.ToCsvString();
    EXPECT_EQ(v.as_int(), 7);
  }

  // Through FD: A#0 and B#0 are one tuple, and A's int 5 in column 1
  // decodes to column 0's first-seen 5.0.
  const std::vector<const Table*> tables = {&a, &b};
  Result<Alignment> alignment =
      ManualAlignment({{{"A", 0}, {"B", 0}}, {{"A", 1}, {"B", 1}}})
          .Align(tables);
  ASSERT_TRUE(alignment.ok()) << alignment.status().ToString();
  Result<Table> fd = FullDisjunction().Integrate(tables, *alignment);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_EQ(fd->num_rows(), 2u) << fd->ToPrettyString();
  const size_t r0 = RowWithProv(*fd, {"A#0", "B#0"});
  ASSERT_NE(r0, static_cast<size_t>(-1)) << fd->ToPrettyString();
  EXPECT_TRUE(fd->at(r0, 0).is_double());
  EXPECT_TRUE(fd->at(r0, 1).is_int());
  const size_t r1 = RowWithProv(*fd, {"A#1", "B#1"});
  ASSERT_NE(r1, static_cast<size_t>(-1)) << fd->ToPrettyString();
  ASSERT_TRUE(fd->at(r1, 1).is_double());
  EXPECT_EQ(fd->at(r1, 1).as_double(), 5.0);
}

TEST(TupleOpsTest, SubsumptionBasics) {
  Row a = {Value::String("x"), Value::Null()};
  Row b = {Value::String("x"), Value::Int(3)};
  EXPECT_TRUE(TupleSubsumedBy(a, b));
  EXPECT_FALSE(TupleSubsumedBy(b, a));
  EXPECT_TRUE(TupleSubsumedBy(a, a));
  Row c = {Value::String("y"), Value::Int(3)};
  EXPECT_FALSE(TupleSubsumedBy(b, c));
  // All-null is subsumed by anything.
  Row nulls = {Value::Null(), Value::ProducedNull()};
  EXPECT_TRUE(TupleSubsumedBy(nulls, b));
}

TEST(TupleOpsTest, ComplementRequiresSharedAgreement) {
  Row a = {Value::String("x"), Value::Int(1), Value::Null()};
  Row b = {Value::String("x"), Value::Null(), Value::Int(2)};
  EXPECT_TRUE(TuplesComplement(a, b));
  // Conflict on a shared attribute.
  Row c = {Value::String("y"), Value::Null(), Value::Int(2)};
  EXPECT_FALSE(TuplesComplement(a, c));
  // No shared non-null attribute.
  Row d = {Value::Null(), Value::Null(), Value::Int(2)};
  EXPECT_FALSE(TuplesComplement(a, d));
}

TEST(TupleOpsTest, MergePrefersValuesThenMissingNulls) {
  Row a = {Value::String("x"), Value::Null(), Value::ProducedNull()};
  Row b = {Value::String("x"), Value::Int(4), Value::ProducedNull()};
  Row m = MergeTuples(a, b);
  EXPECT_EQ(m[0].as_string(), "x");
  EXPECT_EQ(m[1].as_int(), 4);
  EXPECT_TRUE(m[2].is_produced_null());
  // missing + produced -> missing.
  Row c = {Value::Null(), Value::Null(), Value::Null()};
  Row d = {Value::ProducedNull(), Value::ProducedNull(), Value::Int(1)};
  Row m2 = MergeTuples(c, d);
  EXPECT_TRUE(m2[0].is_missing_null());
  EXPECT_TRUE(m2[1].is_missing_null());
  EXPECT_EQ(m2[2].as_int(), 1);
}

TEST(OuterUnionTest, PadsWithProducedNulls) {
  Table t1 = paper::MakeT1();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> tables = {&t1, &t3};
  Alignment a = AlignSet(tables);
  auto u = BuildOuterUnion(tables, a, "u");
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  EXPECT_EQ(u->num_rows(), 7u);
  EXPECT_EQ(u->num_columns(), 5u);
  // T1 rows have produced nulls in T3-only attributes.
  size_t r = RowWithProv(*u, {"t1"});
  ASSERT_NE(r, static_cast<size_t>(-1));
  size_t produced = 0;
  for (size_t c = 0; c < u->num_columns(); ++c) {
    if (u->at(r, c).is_produced_null()) ++produced;
  }
  EXPECT_EQ(produced, 2u);
}

// ------------------------------------------------- Fig. 3 reproduction

TEST(FullDisjunctionTest, ReproducesPaperFigure3) {
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> tables = {&t1, &t2, &t3};
  Alignment a = AlignSet(tables);
  FullDisjunction fd;
  auto r = fd.Integrate(tables, a);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Table expected = paper::MakeFig3Expected();
  EXPECT_EQ(r->num_rows(), 7u);
  EXPECT_TRUE(r->SameRowsAs(expected)) << r->ToPrettyString();
  // Check the paper's TIDs: f1 = {t1, t7}, f6 = {t6, t9}, f7 = {t10}.
  EXPECT_NE(RowWithProv(*r, {"t1", "t7"}), static_cast<size_t>(-1));
  EXPECT_NE(RowWithProv(*r, {"t6", "t9"}), static_cast<size_t>(-1));
  EXPECT_NE(RowWithProv(*r, {"t10"}), static_cast<size_t>(-1));
  // f5 keeps Mexico City's missing (±) vaccination rate.
  size_t f5 = RowWithProv(*r, {"t5"});
  ASSERT_NE(f5, static_cast<size_t>(-1));
  bool has_missing = false;
  for (size_t c = 0; c < r->num_columns(); ++c) {
    if (r->at(f5, c).is_missing_null()) has_missing = true;
  }
  EXPECT_TRUE(has_missing);
}

// ------------------------------------------------- Fig. 8 reproduction

class VaccineSetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t4_ = paper::MakeT4();
    t5_ = paper::MakeT5();
    t6_ = paper::MakeT6();
    tables_ = {&t4_, &t5_, &t6_};
    alignment_ = AlignSet(tables_);
  }
  Table t4_, t5_, t6_;
  std::vector<const Table*> tables_;
  Alignment alignment_;
};

TEST_F(VaccineSetTest, FdReproducesFigure8b) {
  FullDisjunction fd;
  auto r = fd.Integrate(tables_, alignment_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Fig. 8(b): exactly 3 tuples — f8, f12, f13.
  EXPECT_EQ(r->num_rows(), 3u) << r->ToPrettyString();
  // f8 = {t11, t13}: Pfizer, FDA, United States.
  size_t f8 = RowWithProv(*r, {"t11", "t13"});
  ASSERT_NE(f8, static_cast<size_t>(-1));
  // f13 = {t13, t15}: J&J, FDA, United States — the fact outer join loses.
  size_t f13 = RowWithProv(*r, {"t13", "t15"});
  ASSERT_NE(f13, static_cast<size_t>(-1));
  bool jnj_fda = false;
  for (size_t c = 0; c < r->num_columns(); ++c) {
    if (!r->at(f13, c).is_null() && r->at(f13, c).ToCsvString() == "J&J") {
      jnj_fda = true;
    }
  }
  EXPECT_TRUE(jnj_fda);
  // f12 merges t12, t14, t16: JnJ / USA.
  size_t f12 = RowWithProv(*r, {"t12", "t14", "t16"});
  EXPECT_NE(f12, static_cast<size_t>(-1)) << r->ToPrettyString();
}

TEST_F(VaccineSetTest, OuterJoinReproducesFigure8a) {
  OuterJoinIntegration oj;
  auto r = oj.Integrate(tables_, alignment_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Fig. 8(a): 5 tuples f8..f12.
  EXPECT_EQ(r->num_rows(), 5u) << r->ToPrettyString();
  // The J&J-approver connection is lost: no row has both J&J and FDA.
  for (size_t row = 0; row < r->num_rows(); ++row) {
    bool jnj = false;
    bool fda = false;
    bool pfizer = false;
    for (size_t c = 0; c < r->num_columns(); ++c) {
      if (r->at(row, c).is_null()) continue;
      std::string s = r->at(row, c).ToCsvString();
      if (s == "J&J") jnj = true;
      if (s == "FDA") fda = true;
      if (s == "Pfizer") pfizer = true;
    }
    EXPECT_FALSE(jnj && fda && !pfizer)
        << "outer join must not connect J&J to FDA";
  }
}

TEST_F(VaccineSetTest, FdIsOrderIndependentOuterJoinIsNot) {
  FullDisjunction fd;
  std::vector<const Table*> reversed = {&t6_, &t5_, &t4_};
  AliteMatcher matcher;
  auto align_rev = matcher.Align(reversed);
  ASSERT_TRUE(align_rev.ok());
  auto fd1 = fd.Integrate(tables_, alignment_);
  auto fd2 = fd.Integrate(reversed, *align_rev);
  ASSERT_TRUE(fd1.ok());
  ASSERT_TRUE(fd2.ok());
  // Column ORDER follows first appearance and differs across input orders;
  // compare as relations by projecting fd2 into fd1's column order.
  std::vector<size_t> proj;
  for (size_t c = 0; c < fd1->num_columns(); ++c) {
    size_t idx = fd2->schema().IndexOf(fd1->schema().column(c).name);
    ASSERT_NE(idx, Schema::npos) << fd1->schema().column(c).name;
    proj.push_back(idx);
  }
  Table fd2_reordered = fd2->ProjectColumns(proj, "fd2r");
  EXPECT_TRUE(fd1->SameRowsAs(fd2_reordered))
      << "FD must be associative/order-independent";
}

TEST_F(VaccineSetTest, ParallelFdMatchesSequentialFd) {
  FullDisjunction fd;
  ParallelFullDisjunction pfd(4);
  auto r1 = fd.Integrate(tables_, alignment_);
  auto r2 = pfd.Integrate(tables_, alignment_);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_TRUE(r1->SameRowsAs(*r2)) << r2->ToPrettyString();
}

TEST_F(VaccineSetTest, NaiveFdMatchesIndexedFd) {
  FullDisjunction fd;
  NaiveFullDisjunction naive;
  auto r1 = fd.Integrate(tables_, alignment_);
  auto r2 = naive.Integrate(tables_, alignment_);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r1->SameRowsAs(*r2));
}

TEST_F(VaccineSetTest, InnerJoinCollapses) {
  InnerJoinIntegration ij;
  auto r = ij.Integrate(tables_, alignment_);
  ASSERT_TRUE(r.ok());
  // T4⋈T5 on Approver keeps only the FDA pair; joining T6 then needs
  // Vaccine+Country equality: Pfizer vs J&J/JnJ fails -> empty.
  EXPECT_EQ(r->num_rows(), 0u) << r->ToPrettyString();
}

TEST_F(VaccineSetTest, UnionKeepsAllSixTuples) {
  UnionIntegration u;
  auto r = u.Integrate(tables_, alignment_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 6u);
}

// ------------------------------------------------------------ properties

TEST(FdPropertiesTest, OutputNeverLosesInputFacts) {
  // Every input tuple must be subsumed by some output tuple.
  LakeGeneratorParams p;
  p.fragments_per_domain = 3;
  p.min_rows = 10;
  p.max_rows = 25;
  p.null_rate = 0.15;
  p.domains = {"vaccine_approvals"};
  auto out = SyntheticLakeGenerator(p).Generate();
  std::vector<const Table*> tables = out.lake.tables();
  Alignment a = AlignSet(tables);
  FullDisjunction fd;
  auto r = fd.Integrate(tables, a);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto u = BuildOuterUnion(tables, a, "u");
  ASSERT_TRUE(u.ok());
  for (size_t i = 0; i < u->num_rows(); ++i) {
    bool covered = false;
    for (size_t j = 0; j < r->num_rows() && !covered; ++j) {
      covered = TupleSubsumedBy(u->row(i), r->row(j));
    }
    EXPECT_TRUE(covered) << "input tuple " << i << " lost";
  }
}

TEST(FdPropertiesTest, NoOutputTupleSubsumesAnother) {
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> tables = {&t1, &t2, &t3};
  Alignment a = AlignSet(tables);
  FullDisjunction fd;
  auto r = fd.Integrate(tables, a);
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < r->num_rows(); ++i) {
    for (size_t j = 0; j < r->num_rows(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(TupleSubsumedBy(r->row(i), r->row(j)))
          << "tuple " << i << " subsumed by " << j;
    }
  }
}

TEST(FdPropertiesTest, SingleTableFdIsIdentityModuloDuplicates) {
  Table t1 = paper::MakeT1();
  std::vector<const Table*> tables = {&t1};
  Alignment a = AlignSet(tables);
  FullDisjunction fd;
  auto r = fd.Integrate(tables, a);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->SameRowsAs(t1));
}

TEST(FdPropertiesTest, FdSupersetOfOuterJoinInformation) {
  // Every outer-join output tuple is subsumed by some FD output tuple.
  Table t4 = paper::MakeT4();
  Table t5 = paper::MakeT5();
  Table t6 = paper::MakeT6();
  std::vector<const Table*> tables = {&t4, &t5, &t6};
  Alignment a = AlignSet(tables);
  auto fd_r = FullDisjunction().Integrate(tables, a);
  auto oj_r = OuterJoinIntegration().Integrate(tables, a);
  ASSERT_TRUE(fd_r.ok());
  ASSERT_TRUE(oj_r.ok());
  for (size_t i = 0; i < oj_r->num_rows(); ++i) {
    bool covered = false;
    for (size_t j = 0; j < fd_r->num_rows() && !covered; ++j) {
      covered = TupleSubsumedBy(oj_r->row(i), fd_r->row(j));
    }
    EXPECT_TRUE(covered);
  }
}

TEST(FdPropertiesTest, ParallelMatchesSequentialOnSyntheticSet) {
  LakeGeneratorParams p;
  p.fragments_per_domain = 4;
  p.min_rows = 15;
  p.max_rows = 40;
  p.null_rate = 0.1;
  p.domains = {"football_clubs"};
  auto out = SyntheticLakeGenerator(p).Generate();
  std::vector<const Table*> tables = out.lake.tables();
  Alignment a = AlignSet(tables);
  auto r1 = FullDisjunction().Integrate(tables, a);
  auto r2 = ParallelFullDisjunction(3).Integrate(tables, a);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1->num_rows(), r2->num_rows());
  EXPECT_TRUE(r1->SameRowsAs(*r2));
}

TEST(FdPropertiesTest, ParallelFdReportsLikeAliteFd) {
  // Same spans and run-level counters as alite_fd, across four threads.
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> tables = {&t1, &t2, &t3};
  Alignment a = AlignSet(tables);
  ObservabilityContext seq_obs, par_obs;
  FullDisjunction fd;
  ParallelFullDisjunction parallel(4);
  fd.set_observability(&seq_obs);
  parallel.set_observability(&par_obs);
  ASSERT_TRUE(fd.Integrate(tables, a).ok());
  ASSERT_TRUE(parallel.Integrate(tables, a).ok());
  fd.set_observability(nullptr);
  parallel.set_observability(nullptr);
  for (const char* span :
       {"integrate.full_disjunction", "integrate.fd.encode",
        "integrate.fd.fixpoint", "integrate.fd.subsumption",
        "integrate.fd.decode"}) {
    EXPECT_TRUE(seq_obs.tracer().HasSpan(span)) << span;
    EXPECT_TRUE(par_obs.tracer().HasSpan(span)) << span;
  }
  EXPECT_EQ(par_obs.tracer().root_count(), 1u);
  for (const char* counter :
       {"integrate.fd.input_rows", "integrate.fd.output_rows",
        "integrate.fd.produced_nulls", "integrate.fd.subsumed_tuples"}) {
    EXPECT_EQ(par_obs.metrics().CounterValue(counter),
              seq_obs.metrics().CounterValue(counter))
        << counter;
  }
}

TEST(FdPropertiesTest, MaxTuplesGuardFires) {
  // Two tall tables complementing through a shared constant column blow up
  // the pool; the guard must turn that into an error, not a hang.
  Table a("A", Schema::FromNames({"k", "x"}));
  Table b("B", Schema::FromNames({"k", "y"}));
  for (int i = 0; i < 40; ++i) {
    (void)a.AddRow({Value::String("same"), Value::Int(i)});
    (void)b.AddRow({Value::String("same"), Value::Int(100 + i)});
  }
  ManualAlignment manual({{{"A", 0}, {"B", 0}}});
  auto align = manual.Align({&a, &b});
  ASSERT_TRUE(align.ok());
  FullDisjunction::Params p;
  p.max_tuples = 500;
  FullDisjunction fd(p);
  std::vector<const Table*> tables = {&a, &b};
  auto r = fd.Integrate(tables, *align);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(OuterJoinTest, OrderDependenceDemonstrated) {
  // The classic non-associativity: with T6 first, JnJ rows join Country
  // differently than with T4 first.
  Table t4 = paper::MakeT4();
  Table t5 = paper::MakeT5();
  Table t6 = paper::MakeT6();
  AliteMatcher matcher;
  std::vector<const Table*> order1 = {&t4, &t5, &t6};
  std::vector<const Table*> order2 = {&t6, &t4, &t5};
  auto a1 = matcher.Align(order1);
  auto a2 = matcher.Align(order2);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  OuterJoinIntegration oj;
  auto r1 = oj.Integrate(order1, *a1);
  auto r2 = oj.Integrate(order2, *a2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r1->SameRowsAs(*r2))
      << "outer join should be order-dependent on this set";
}

TEST(UnionIntegrationTest, DeduplicatesExactTuples) {
  Table a("A", Schema::FromNames({"x"}));
  (void)a.AddRow({Value::String("v")});
  Table b("B", Schema::FromNames({"x"}));
  (void)b.AddRow({Value::String("v")});
  (void)b.AddRow({Value::String("w")});
  ManualAlignment manual({{{"A", 0}, {"B", 0}}});
  auto align = manual.Align({&a, &b});
  ASSERT_TRUE(align.ok());
  std::vector<const Table*> tables = {&a, &b};
  auto r = UnionIntegration().Integrate(tables, *align);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  // Merged provenance on the duplicate.
  size_t rv = RowWithProv(*r, {"A#0", "B#0"});
  EXPECT_NE(rv, static_cast<size_t>(-1));
}

// ------------------------------------------ string-provenance reference FD

/// One tuple of the reference FD: materialized cells and source labels.
struct RefTuple {
  Row row;
  std::vector<std::string> prov;
};

/// Provenance union by sort-and-unique of the concatenation.
std::vector<std::string> RefUnion(std::vector<std::string> a,
                                  const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  return a;
}

bool RowsIdentical(const Row& a, const Row& b) {
  for (size_t c = 0; c < a.size(); ++c) {
    if (!a[c].Identical(b[c])) return false;
  }
  return true;
}

bool AllNull(const Row& row) {
  for (const Value& v : row) {
    if (!v.is_null()) return false;
  }
  return true;
}

/// Test-only reference FD over materialized Rows with string provenance,
/// the semantics the integer kernels must reproduce. The outer union's
/// rows enter with their labels sorted, repeats kept; an exact duplicate
/// (Identical cells) is absorbed: missing nulls win over produced ones and
/// the labels are unioned. With `complement`, rounds over all pairs merge
/// TuplesComplement partners with MergeTuples, absorbing or appending each
/// merge, until a round appends nothing. Then every tuple that
/// TupleSubsumedBy another drops; a fact-free tuple survives only when no
/// tuple has a fact. Without `complement` this is minimum union.
std::vector<RefTuple> ReferenceFd(const std::vector<const Table*>& tables,
                                  const Alignment& alignment,
                                  bool complement) {
  std::vector<RefTuple> pool;
  // True when `row` was appended, false when it was absorbed.
  auto absorb_or_append = [&pool](Row row, std::vector<std::string> prov) {
    for (RefTuple& t : pool) {
      if (!RowsIdentical(t.row, row)) continue;
      for (size_t c = 0; c < row.size(); ++c) {
        if (t.row[c].is_produced_null() && row[c].is_missing_null()) {
          t.row[c] = row[c];
        }
      }
      t.prov = RefUnion(std::move(t.prov), prov);
      return false;
    }
    pool.push_back({std::move(row), std::move(prov)});
    return true;
  };
  Result<Table> u = BuildOuterUnion(tables, alignment, "u");
  EXPECT_TRUE(u.ok()) << u.status().ToString();
  if (!u.ok()) return {};
  for (size_t r = 0; r < u->num_rows(); ++r) {
    std::vector<std::string> prov = u->provenance(r);
    std::sort(prov.begin(), prov.end());
    absorb_or_append(u->row(r), std::move(prov));
  }
  for (bool changed = complement; changed;) {
    changed = false;
    const size_t n = pool.size();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (!TuplesComplement(pool[i].row, pool[j].row)) continue;
        Row merged = MergeTuples(pool[i].row, pool[j].row);
        std::vector<std::string> prov = RefUnion(pool[i].prov, pool[j].prov);
        if (absorb_or_append(std::move(merged), std::move(prov))) {
          changed = true;
        }
      }
    }
  }
  bool any_fact = false;
  for (const RefTuple& t : pool) any_fact = any_fact || !AllNull(t.row);
  std::vector<RefTuple> out;
  for (size_t i = 0; i < pool.size(); ++i) {
    bool keep = !any_fact && i == 0;
    if (!AllNull(pool[i].row)) {
      keep = true;
      for (size_t j = 0; j < pool.size() && keep; ++j) {
        keep = j == i || !TupleSubsumedBy(pool[i].row, pool[j].row);
      }
    }
    if (keep) out.push_back(pool[i]);
  }
  return out;
}

/// One tuple as text: cells (null kinds told apart) and provenance labels
/// in their stored order.
std::string RenderTuple(const Row& row, const std::vector<std::string>& prov) {
  std::string out;
  for (const Value& v : row) {
    out += v.is_produced_null()  ? std::string("(produced null)")
           : v.is_missing_null() ? std::string("(missing null)")
                                 : v.ToCsvString();
    out += " | ";
  }
  out += "{";
  for (const std::string& label : prov) out += label + ";";
  return out + "}";
}

/// Tuples as a sorted list: the comparison ignores row order only.
std::vector<std::string> Rendered(const std::vector<RefTuple>& tuples) {
  std::vector<std::string> out;
  for (const RefTuple& t : tuples) out.push_back(RenderTuple(t.row, t.prov));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Rendered(const Table& t) {
  std::vector<std::string> out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out.push_back(RenderTuple(t.row(r), t.provenance(r)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every FD-family operator against the reference, provenance included;
/// parallel_fd at 1 to 4 threads.
void ExpectOperatorsMatchReference(const std::vector<const Table*>& tables,
                                   const Alignment& alignment,
                                   const std::string& label) {
  const std::vector<std::string> fd_ref =
      Rendered(ReferenceFd(tables, alignment, /*complement=*/true));
  const std::vector<std::string> union_ref =
      Rendered(ReferenceFd(tables, alignment, /*complement=*/false));
  FullDisjunction fd;
  NaiveFullDisjunction naive;
  ParallelFullDisjunction parallel1(1), parallel2(2), parallel3(3),
      parallel4(4);
  MinimumUnionIntegration min_union;
  const struct {
    const IntegrationOperator* op;
    const char* variant;
    const std::vector<std::string>* expected;
  } cases[] = {{&fd, "", &fd_ref},
               {&naive, "", &fd_ref},
               {&parallel1, " x1", &fd_ref},
               {&parallel2, " x2", &fd_ref},
               {&parallel3, " x3", &fd_ref},
               {&parallel4, " x4", &fd_ref},
               {&min_union, "", &union_ref}};
  for (const auto& [op, variant, expected] : cases) {
    Result<Table> r = op->Integrate(tables, alignment);
    ASSERT_TRUE(r.ok()) << label << " " << op->name() << variant << ": "
                        << r.status().ToString();
    EXPECT_EQ(Rendered(*r), *expected) << label << " " << op->name()
                                       << variant;
  }
}

TEST(FdReferenceTest, PaperFiguresWithProvenance) {
  const Table t1 = paper::MakeT1(), t2 = paper::MakeT2(), t3 = paper::MakeT3();
  const Table t4 = paper::MakeT4(), t5 = paper::MakeT5(), t6 = paper::MakeT6();
  const std::vector<const Table*> fig3 = {&t1, &t2, &t3};
  const std::vector<const Table*> fig8 = {&t4, &t5, &t6};
  ExpectOperatorsMatchReference(fig3, AlignSet(fig3), "fig3");
  ExpectOperatorsMatchReference(fig8, AlignSet(fig8), "fig8");
}

/// Calls `fn(label, tables)` on each seeded lake of the reference tests:
/// three domains at seeds 1 to 3.
template <typename Fn>
void ForEachSeededSet(const Fn& fn) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (const char* domain :
         {"vaccine_approvals", "football_clubs", "universities"}) {
      LakeGeneratorParams p;
      p.fragments_per_domain = 4;
      p.min_rows = 8;
      p.max_rows = 20;
      p.null_rate = 0.15;
      p.seed = seed;
      p.domains = {domain};
      const SyntheticLakeGenerator::Output out =
          SyntheticLakeGenerator(p).Generate();
      fn(std::string(domain) + " seed " + std::to_string(seed),
         out.lake.tables());
    }
  }
}

TEST(FdReferenceTest, SeededSetsWithProvenance) {
  ForEachSeededSet([](const std::string& label,
                      const std::vector<const Table*>& tables) {
    ExpectOperatorsMatchReference(tables, AlignSet(tables), label);
  });
}

/// FNV-1a of a table's ordered rendering: column names, then every row's
/// cells (null kinds told apart) and provenance, in row order.
uint64_t OrderedDigest(const Table& t) {
  std::string text;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    text += t.schema().column(c).name + ",";
  }
  for (size_t r = 0; r < t.num_rows(); ++r) {
    text += "\n" + RenderTuple(t.row(r), t.provenance(r));
  }
  uint64_t h = 14695981039346656037ull;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(FdReferenceTest, OneThreadKeepsAliteFdRowOrder) {
  // At one thread the whole outer union is one part, so alite_fd and
  // parallel_fd x1 must reproduce alite_fd's single-part output exactly:
  // rows, null kinds, provenance and row order, pinned here as recorded
  // digests.
  std::vector<std::pair<std::string, uint64_t>> got;
  auto record = [&got](const std::string& label,
                       const std::vector<const Table*>& tables) {
    const Alignment alignment = AlignSet(tables);
    Result<Table> fd = FullDisjunction().Integrate(tables, alignment);
    Result<Table> one = ParallelFullDisjunction(1).Integrate(tables, alignment);
    ASSERT_TRUE(fd.ok()) << label << ": " << fd.status().ToString();
    ASSERT_TRUE(one.ok()) << label << ": " << one.status().ToString();
    EXPECT_EQ(OrderedDigest(*one), OrderedDigest(*fd)) << label;
    got.emplace_back(label, OrderedDigest(*fd));
  };
  const Table t1 = paper::MakeT1(), t2 = paper::MakeT2(), t3 = paper::MakeT3();
  const Table t4 = paper::MakeT4(), t5 = paper::MakeT5(), t6 = paper::MakeT6();
  record("fig3", {&t1, &t2, &t3});
  record("fig8", {&t4, &t5, &t6});
  ForEachSeededSet(record);
  const std::vector<std::pair<std::string, uint64_t>> recorded = {
      {"fig3", 0xc6733692f41dc1eeull},
      {"fig8", 0x03097aace43eedf2ull},
      {"vaccine_approvals seed 1", 0xd6714395f7b8cd5aull},
      {"football_clubs seed 1", 0x4afc44e910ea8b4eull},
      {"universities seed 1", 0xa0a10ab5d57ea7aaull},
      {"vaccine_approvals seed 2", 0x863da967bb6dd45full},
      {"football_clubs seed 2", 0x69798363a1feb59eull},
      {"universities seed 2", 0x500e1d79d95d2aabull},
      {"vaccine_approvals seed 3", 0x99280e57c66ab2b2ull},
      {"football_clubs seed 3", 0x7646c1dd66ef4572ull},
      {"universities seed 3", 0xb3a7f7a515819697ull},
  };
  EXPECT_EQ(got, recorded);
}

TEST(FdReferenceTest, MultiLabelInputProvenance) {
  // FD outputs carry label sets ({t11, t13}, ...); integrating one again
  // with tables whose labels overlap them unions multi-label provenance.
  const Table t4 = paper::MakeT4(), t5 = paper::MakeT5(), t6 = paper::MakeT6();
  const std::vector<const Table*> fig8 = {&t4, &t5, &t6};
  Result<Table> f8 = FullDisjunction().Integrate(fig8, AlignSet(fig8));
  ASSERT_TRUE(f8.ok()) << f8.status().ToString();
  const std::vector<const Table*> again = {&*f8, &t5, &t6};
  ExpectOperatorsMatchReference(again, AlignSet(again), "fig8 again");

  const Table t1 = paper::MakeT1(), t2 = paper::MakeT2(), t3 = paper::MakeT3();
  const std::vector<const Table*> fig3 = {&t1, &t2, &t3};
  Result<Table> f3 = FullDisjunction().Integrate(fig3, AlignSet(fig3));
  ASSERT_TRUE(f3.ok()) << f3.status().ToString();
  const std::vector<const Table*> with_t1 = {&*f3, &t1};
  ExpectOperatorsMatchReference(with_t1, AlignSet(with_t1), "fig3 + t1");
}

TEST(FdReferenceTest, RepeatedLabelsInOneRowsProvenance) {
  // Labels arrive unsorted and repeated. A row that never merges keeps its
  // repeats (sorted); unions drop them.
  Table r("R", Schema::FromNames({"k", "a"}));
  ASSERT_TRUE(r.AddRow({Value::Int(1), Value::String("x")}, {"x", "x"}).ok());
  ASSERT_TRUE(
      r.AddRow({Value::Int(2), Value::String("y")}, {"q", "p", "q"}).ok());
  ASSERT_TRUE(r.AddRow({Value::Int(3), Value::String("z")}, {"w"}).ok());
  ASSERT_TRUE(r.AddRow({Value::Int(3), Value::Null()}, {"v", "v"}).ok());
  ASSERT_TRUE(r.AddRow({Value::Int(3), Value::String("z")}, {"v", "u"}).ok());
  Table s("S", Schema::FromNames({"k", "b"}));
  ASSERT_TRUE(s.AddRow({Value::Int(1), Value::String("u")}, {"x", "s"}).ok());
  ASSERT_TRUE(s.AddRow({Value::Int(4), Value::String("v")}).ok());
  const std::vector<const Table*> tables = {&r, &s};
  Result<Alignment> alignment = ManualAlignment({{{"R", 0}, {"S", 0}}}).Align(tables);
  ASSERT_TRUE(alignment.ok()) << alignment.status().ToString();
  ExpectOperatorsMatchReference(tables, *alignment, "repeated labels");

  // The unmerged row keeps its sorted repeats in every FD operator.
  Result<Table> fd = FullDisjunction().Integrate(tables, *alignment);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  EXPECT_NE(RowWithProv(*fd, {"p", "q", "q"}), static_cast<size_t>(-1))
      << fd->ToPrettyString();
  EXPECT_NE(RowWithProv(*fd, {"s", "x"}), static_cast<size_t>(-1))
      << fd->ToPrettyString();
}

TEST(FdReferenceTest, FactFreeRowsFoldIntoOneTuple) {
  // T1(a) = [null] and T2(b) = [null], one cluster each: dedup folds the two
  // fact-free rows into one tuple {T1#0, T2#0} in every operator, parallel
  // ones included. One fact-bearing row then subsumes that tuple.
  Table t1("T1", Schema::FromNames({"a"}));
  ASSERT_TRUE(t1.AddRow({Value::Null()}).ok());
  Table t2("T2", Schema::FromNames({"b"}));
  ASSERT_TRUE(t2.AddRow({Value::Null()}).ok());
  const std::vector<const Table*> tables = {&t1, &t2};
  Result<Alignment> alignment =
      ManualAlignment({{{"T1", 0}}, {{"T2", 0}}}).Align(tables);
  ASSERT_TRUE(alignment.ok()) << alignment.status().ToString();
  ExpectOperatorsMatchReference(tables, *alignment, "fact-free rows");
  Result<Table> parallel =
      ParallelFullDisjunction(2).Integrate(tables, *alignment);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->num_rows(), 1u) << parallel->ToPrettyString();
  EXPECT_NE(RowWithProv(*parallel, {"T1#0", "T2#0"}), static_cast<size_t>(-1))
      << parallel->ToPrettyString();

  ASSERT_TRUE(t2.AddRow({Value::String("x")}).ok());
  ExpectOperatorsMatchReference(tables, *alignment, "fact-free rows + a fact");
}

TEST(FdReferenceTest, AbsorbBetweenAPairsTwoEvaluations) {
  // Pool t0 = R#0 (1, A, ⊥, ⊥), t1 = U#0 (1, ⊥, ⊥, ±), t2 = S#0
  // (1, ⊥, B, ⊥) over (k, x, y, z); every pair complements on k = 1.
  // Turn 0 absorbs t0 ⊕ t1 into t0 (z turns missing, U#0 joins) and
  // appends t3 = t0 ⊕ t2. Turn 1 absorbs t1 ⊕ t2 into t2 and t1 ⊕ t3 into
  // t3. So t0 and t2 both changed between their pair's turns, and turn 2
  // evaluates (t2, t0) again; only turn 3's (t3, t2) is skipped, as
  // neither changed after turn 2 began. Without the change stamps, turns
  // 1 to 3 would skip 4 more pairs: the work counters pin the exception.
  Table r("R", Schema::FromNames({"k", "x"}));
  ASSERT_TRUE(r.AddRow({Value::Int(1), Value::String("A")}).ok());
  Table u("U", Schema::FromNames({"k", "z"}));
  ASSERT_TRUE(u.AddRow({Value::Int(1), Value::Null()}).ok());
  Table s("S", Schema::FromNames({"k", "y"}));
  ASSERT_TRUE(s.AddRow({Value::Int(1), Value::String("B")}).ok());
  const std::vector<const Table*> tables = {&r, &u, &s};
  Result<Alignment> alignment =
      ManualAlignment(
          {{{"R", 0}, {"U", 0}, {"S", 0}}, {{"R", 1}}, {{"S", 1}}, {{"U", 1}}})
          .Align(tables);
  ASSERT_TRUE(alignment.ok()) << alignment.status().ToString();
  ExpectOperatorsMatchReference(tables, *alignment, "absorb between turns");

  ObservabilityContext obs;
  FullDisjunction fd;
  fd.set_observability(&obs);
  Result<Table> out = fd.Integrate(tables, *alignment);
  fd.set_observability(nullptr);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->num_rows(), 1u) << out->ToPrettyString();
  EXPECT_EQ(RenderTuple(out->row(0), out->provenance(0)),
            "1 | A | B | (missing null) | {R#0;S#0;U#0;}");
  const Metrics& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("integrate.fd.fixpoint_iterations"), 4u);
  EXPECT_EQ(m.CounterValue("integrate.fd.rows_scanned"), 11u);
  EXPECT_EQ(m.CounterValue("integrate.fd.merges"), 11u);
}

/// A random cell of the sweep's small domain: missing nulls, ints, doubles
/// (NaN among them) and strings. The doubles are not integral: the kernels
/// decode a class to its first-seen cell, where the reference keeps each
/// cell, so int 5 and 5.0 in one set would render apart
/// (TupleCodecTest.IntAndDoubleFoldAcrossTablesAndColumns pins the
/// kernels' choice).
Value SweepCell(Rng* rng) {
  switch (rng->NextBounded(5)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Int(rng->NextInt(0, 2));
    case 2: {
      const double kDoubles[] = {0.5, 1.5, -2.5, std::nan("")};
      return Value::Double(kDoubles[rng->NextBounded(4)]);
    }
    default:
      return Value::String(std::string(1, static_cast<char>('a' + rng->NextBounded(3))));
  }
}

TEST(FdReferenceTest, SeededSmallSetsSweep) {
  // 240 small sets of 2-4 tables over 1-4 union columns. A table takes a
  // random subset of the columns, in random order. Half the tables carry
  // provenance: 0-3 labels per row from a small pool, with repeats, and
  // one label that collides with another table's "<table>#<row>".
  Rng rng(23);
  for (int set = 0; set < 240; ++set) {
    const size_t num_tables = 2 + rng.NextBounded(3);
    const size_t width = 1 + rng.NextBounded(4);
    std::vector<Table> tables;
    std::vector<std::vector<ColumnRef>> clusters(width);
    for (size_t t = 0; t < num_tables; ++t) {
      const std::string name = "T" + std::to_string(t);
      std::vector<size_t> ids(width);
      for (size_t c = 0; c < width; ++c) ids[c] = c;
      rng.Shuffle(&ids);
      ids.resize(1 + rng.NextBounded(width));
      std::vector<std::string> headers;
      for (size_t c = 0; c < ids.size(); ++c) {
        clusters[ids[c]].push_back({name, c});
        headers.push_back("c" + std::to_string(ids[c]));
      }
      Table table(name, Schema::FromNames(headers));
      const bool labelled = rng.NextBool(0.5);
      const size_t rows = 1 + rng.NextBounded(6);
      for (size_t r = 0; r < rows; ++r) {
        Row row;
        bool nan = false;
        for (size_t c = 0; c < ids.size(); ++c) {
          row.push_back(SweepCell(&rng));
          nan = nan || (row.back().is_double() && std::isnan(row.back().as_double()));
        }
        // A NaN never equals itself, so the reference would append a merge
        // of a NaN row forever; the kernels give each NaN occurrence its own
        // code, which merges copy. Keep NaN rows fact-free but for the NaN.
        for (Value& v : row) {
          if (nan && !(v.is_double() && std::isnan(v.as_double()))) v = Value::Null();
        }
        std::vector<std::string> prov;
        const char* kLabels[] = {"p", "q", "r", "T0#1"};
        for (size_t k = labelled ? rng.NextBounded(4) : 0; k > 0; --k) {
          prov.push_back(kLabels[rng.NextBounded(4)]);
        }
        ASSERT_TRUE((labelled ? table.AddRow(std::move(row), std::move(prov))
                              : table.AddRow(std::move(row)))
                        .ok());
      }
      tables.push_back(std::move(table));
    }
    clusters.erase(std::remove_if(clusters.begin(), clusters.end(),
                                  [](const std::vector<ColumnRef>& c) {
                                    return c.empty();
                                  }),
                   clusters.end());
    std::vector<const Table*> ptrs;
    for (const Table& t : tables) ptrs.push_back(&t);
    Result<Alignment> alignment = ManualAlignment(clusters).Align(ptrs);
    ASSERT_TRUE(alignment.ok()) << alignment.status().ToString();
    ExpectOperatorsMatchReference(ptrs, *alignment,
                                  "sweep set " + std::to_string(set));
  }
}

/// Death-test body: limits the process to `extra` bytes of address space
/// beyond what it maps now, then exits 0 iff `run()` holds (2 when the
/// limit cannot be set).
template <typename Fn>
void ExitWithinAddressSpace(size_t extra, const Fn& run) {
  long pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const rlim_t limit =
      static_cast<rlim_t>(pages) * static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
      extra;
  const rlimit as = {limit, limit};
  if (pages <= 0 || setrlimit(RLIMIT_AS, &as) != 0) std::_Exit(2);
  std::_Exit(run() ? 0 : 1);
}

TEST(FdMemoryTest, WideAllDistinctInputStaysLinear) {
  // 300 columns x 1,000 rows of distinct strings: 300,000 codes. An index
  // laid out width x codes would need 300 x 300,000 x 4 B = 360 MB; the
  // flat index is linear in the union's cells. Outside sanitizer builds
  // (which reserve terabytes of address space up front) the run gets
  // 256 MB of address space beyond what the process already maps.
  constexpr size_t kWidth = 300;
  constexpr size_t kRows = 1000;
  std::vector<std::string> headers;
  std::vector<std::vector<ColumnRef>> clusters;
  for (size_t c = 0; c < kWidth; ++c) {
    headers.push_back("c" + std::to_string(c));
    clusters.push_back({{"W", c}});
  }
  Table wide("W", Schema::FromNames(headers));
  TableBuilder builder(&wide);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < kWidth; ++c) {
      builder.AppendString(c, "v" + std::to_string(r * kWidth + c));
    }
    ASSERT_TRUE(builder.FinishRow().ok());
  }
  const std::vector<const Table*> tables = {&wide};
  Result<Alignment> alignment = ManualAlignment(clusters).Align(tables);
  ASSERT_TRUE(alignment.ok()) << alignment.status().ToString();
  auto run = [&] {
    Result<Table> fd = FullDisjunction().Integrate(tables, *alignment);
    return fd.ok() && fd->num_rows() == kRows &&
           fd->num_columns() == kWidth;
  };
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  EXPECT_TRUE(run());
#else
  EXPECT_EXIT(ExitWithinAddressSpace(256u << 20, run),
              ::testing::ExitedWithCode(0), "");
#endif
}

TEST(FdPropertiesTest, MaxTuplesCapsTheWholeRun) {
  // Three keys, each joining three A rows with three B rows: each key's
  // component closes at 6 inputs + 9 merges = 15 tuples, the run at 45.
  // The cap counts the run, not a component, at every thread count.
  Table a("A", Schema::FromNames({"k", "x"}));
  Table b("B", Schema::FromNames({"k", "y"}));
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(a.AddRow({Value::Int(k), Value::Int(10 * k + i)}).ok());
      ASSERT_TRUE(b.AddRow({Value::Int(k), Value::Int(100 + 10 * k + i)}).ok());
    }
  }
  Result<Alignment> align =
      ManualAlignment({{{"A", 0}, {"B", 0}}}).Align({&a, &b});
  ASSERT_TRUE(align.ok()) << align.status().ToString();
  const std::vector<const Table*> tables = {&a, &b};
  std::vector<std::vector<std::string>> outputs;
  for (size_t threads : {1u, 3u}) {
    FullDisjunction::Params p;
    p.num_threads = threads;
    p.max_tuples = 44;
    Result<Table> over = FullDisjunction(p).Integrate(tables, *align);
    ASSERT_FALSE(over.ok()) << threads << " threads";
    EXPECT_EQ(over.status().code(), StatusCode::kOutOfRange)
        << threads << " threads: " << over.status().ToString();
    p.max_tuples = 45;
    Result<Table> fits = FullDisjunction(p).Integrate(tables, *align);
    ASSERT_TRUE(fits.ok())
        << threads << " threads: " << fits.status().ToString();
    EXPECT_EQ(fits->num_rows(), 27u) << fits->ToPrettyString();
    outputs.push_back(Rendered(*fits));
  }
  EXPECT_EQ(outputs[0], outputs[1]);
}

// ------------------------------------------------- request deadlines

TEST(FdDeadlineTest, PreExpiredTokenAbortsBeforeFirstFixpointIteration) {
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> tables = {&t1, &t2, &t3};
  Alignment a = AlignSet(tables);
  FullDisjunction fd;
  ParallelFullDisjunction parallel(3);
  FullDisjunction* ops[] = {&fd, &parallel};
  for (FullDisjunction* op : ops) {
    ObservabilityContext obs;
    op->set_observability(&obs);
    CancelToken cancel;
    cancel.SetDeadlineAfter(std::chrono::nanoseconds(0));
    auto r = op->Integrate(tables, a, &cancel);
    op->set_observability(nullptr);
    ASSERT_FALSE(r.ok()) << op->name();
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << op->name() << ": " << r.status().ToString();
    // The FD counters flush on the cancel path too: input_rows proves the
    // flush happened, fixpoint_iterations == 0 proves the worklist aborted
    // before consuming its first item.
    EXPECT_GT(obs.metrics().CounterValue("integrate.fd.input_rows"), 0u)
        << op->name();
    EXPECT_EQ(obs.metrics().CounterValue("integrate.fd.fixpoint_iterations"),
              0u)
        << op->name();
    // One root span, whose fix-point stage aborted on the calling thread.
    EXPECT_EQ(obs.tracer().root_count(), 1u) << op->name();
    EXPECT_TRUE(obs.tracer().HasSpan("integrate.full_disjunction"))
        << op->name();
    EXPECT_TRUE(obs.tracer().HasSpan("integrate.fd.fixpoint")) << op->name();
  }
}

TEST(FdDeadlineTest, EveryIntegrationOperatorHonoursPreExpiredToken) {
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> tables = {&t1, &t2, &t3};
  Alignment a = AlignSet(tables);
  FullDisjunction fd;
  NaiveFullDisjunction naive;
  ParallelFullDisjunction parallel(2);
  MinimumUnionIntegration min_union;
  const IntegrationOperator* ops[] = {&fd, &naive, &parallel, &min_union};
  for (const IntegrationOperator* op : ops) {
    CancelToken cancel;
    cancel.SetDeadlineAfter(std::chrono::nanoseconds(0));
    auto r = op->Integrate(tables, a, &cancel);
    ASSERT_FALSE(r.ok()) << op->name();
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
        << op->name() << ": " << r.status().ToString();
  }
}

}  // namespace
}  // namespace dialite
