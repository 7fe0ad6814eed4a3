/// Tests for MinimumUnionIntegration (Galindo-Legaria's minimum union,
/// the paper's reference [6]).

#include <gtest/gtest.h>

#include "align/alite_matcher.h"
#include "core/dialite.h"
#include "integrate/full_disjunction.h"
#include "integrate/join_ops.h"
#include "lake/paper_fixtures.h"

namespace dialite {
namespace {

class MinUnionVaccineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    t4_ = paper::MakeT4();
    t5_ = paper::MakeT5();
    t6_ = paper::MakeT6();
    tables_ = {&t4_, &t5_, &t6_};
    AliteMatcher matcher;
    auto a = matcher.Align(tables_);
    ASSERT_TRUE(a.ok());
    alignment_ = std::move(a).value();
  }
  Table t4_, t5_, t6_;
  std::vector<const Table*> tables_;
  Alignment alignment_;
};

TEST_F(MinUnionVaccineTest, RemovesSubsumedButNeverConnects) {
  MinimumUnionIntegration mu;
  auto r = mu.Integrate(tables_, alignment_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Outer union has 6 tuples; t12 (JnJ,±,⊥) and t14 (⊥,±,USA) are
  // both subsumed by t16's rekeyed row (JnJ,⊥,USA) -> 4 maximal tuples.
  EXPECT_EQ(r->num_rows(), 4u) << r->ToPrettyString();
  // The J&J↔FDA connection requires complementation, which minimum union
  // does not perform.
  for (size_t row = 0; row < r->num_rows(); ++row) {
    bool jnj = false;
    bool fda = false;
    for (size_t c = 0; c < r->num_columns(); ++c) {
      if (r->at(row, c).is_null()) continue;
      std::string s = r->at(row, c).ToCsvString();
      if (s == "J&J") jnj = true;
      if (s == "FDA") fda = true;
    }
    EXPECT_FALSE(jnj && fda);
  }
}

TEST_F(MinUnionVaccineTest, SitsBetweenUnionAndFd) {
  auto u = UnionIntegration().Integrate(tables_, alignment_);
  auto mu = MinimumUnionIntegration().Integrate(tables_, alignment_);
  auto fd = FullDisjunction().Integrate(tables_, alignment_);
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(mu.ok());
  ASSERT_TRUE(fd.ok());
  // union (6) >= minimum union (5) >= fd (3) on this set.
  EXPECT_GE(u->num_rows(), mu->num_rows());
  EXPECT_GE(mu->num_rows(), fd->num_rows());
  // Every minimum-union tuple is subsumed by some FD tuple.
  for (size_t i = 0; i < mu->num_rows(); ++i) {
    bool covered = false;
    for (size_t j = 0; j < fd->num_rows() && !covered; ++j) {
      covered = TupleSubsumedBy(mu->row(i), fd->row(j));
    }
    EXPECT_TRUE(covered) << i;
  }
}

TEST(MinUnionTest, IdentityWhenNothingSubsumes) {
  Table a("A", Schema::FromNames({"x"}));
  (void)a.AddRow({Value::String("p")});
  Table b("B", Schema::FromNames({"x"}));
  (void)b.AddRow({Value::String("q")});
  ManualAlignment manual({{{"A", 0}, {"B", 0}}});
  auto align = manual.Align({&a, &b});
  ASSERT_TRUE(align.ok());
  std::vector<const Table*> tables = {&a, &b};
  auto r = MinimumUnionIntegration().Integrate(tables, *align);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
}

TEST(MinUnionTest, RegisteredInDefaults) {
  DataLake lake = paper::MakeDemoLake(0);
  Dialite d(&lake);
  ASSERT_TRUE(d.RegisterDefaults().ok());
  auto ops = d.IntegrationOperators();
  EXPECT_NE(std::find(ops.begin(), ops.end(), "minimum_union"), ops.end());
}

}  // namespace
}  // namespace dialite
