#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <clocale>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/fd_util.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace dialite {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::OutOfRange("").code(),
      Status::IoError("").code(),        Status::ParseError("").code(),
      Status::TypeMismatch("").code(),   Status::Internal("").code(),
      Status::NotImplemented("").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    DIALITE_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IoError("disk");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("abc");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "abc");
}

// ---------------------------------------------------------------- Hash

TEST(HashTest, StringHashIsDeterministic) {
  EXPECT_EQ(HashString("hello"), HashString("hello"));
  EXPECT_NE(HashString("hello"), HashString("hellp"));
}

TEST(HashTest, SeedSelectsIndependentFunctions) {
  EXPECT_NE(HashString("hello", 1), HashString("hello", 2));
  EXPECT_NE(HashUint64(7, 1), HashUint64(7, 2));
}

TEST(HashTest, Mix64ChangesInput) {
  EXPECT_NE(Mix64(0), 0u);
  EXPECT_NE(Mix64(1), Mix64(2));
}

TEST(HashTest, EmptyStringHashes) {
  EXPECT_EQ(HashString(""), HashString(""));
  EXPECT_NE(HashString("", 1), HashString("", 2));
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng r(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = r.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(11);
  double mean = 0.0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    mean += d;
  }
  mean /= kN;
  EXPECT_NEAR(mean, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng r(13);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double g = r.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(RngTest, ShufflePermutes) {
  Rng r(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  r.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng r(19);
  std::vector<size_t> s = r.SampleIndices(100, 10);
  EXPECT_EQ(s.size(), 10u);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (size_t i : s) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleIndicesClampsToN) {
  Rng r(21);
  EXPECT_EQ(r.SampleIndices(3, 10).size(), 3u);
}

// ---------------------------------------------------------------- Strings

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("HeLLo 42"), "hello 42");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b \t\n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, AffixChecks) {
  EXPECT_TRUE(StartsWith("table.csv", "table"));
  EXPECT_FALSE(StartsWith("t", "table"));
  EXPECT_TRUE(EndsWith("table.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(StringUtilTest, CaseInsensitive) {
  EXPECT_TRUE(EqualsIgnoreCase("USA", "usa"));
  EXPECT_FALSE(EqualsIgnoreCase("USA", "us"));
  EXPECT_TRUE(ContainsIgnoreCase("United States", "states"));
  EXPECT_FALSE(ContainsIgnoreCase("United", "states"));
  EXPECT_TRUE(ContainsIgnoreCase("anything", ""));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14), "3.14");
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(-1.25), "-1.25");
  // Not "-0": integer-looking text would be re-inferred as Int(0) on a CSV
  // reparse, changing the rendering (found by fuzz_csv_roundtrip).
  EXPECT_EQ(FormatDouble(-0.0), "-0.0");
}

// Regression (found by fuzz_csv_roundtrip): the old "%.*f" implementation
// truncated magnitudes whose fixed notation overflowed its 64-byte buffer
// (2e134 needs 135 integer digits) and rounded away sub-precision digits,
// so FormatDouble -> ParseStrictNumeric changed the value. Formatting must
// be exact for every double, including extremes and denormals.
TEST(StringUtilTest, FormatDoubleRoundTripsExactly) {
  const double cases[] = {
      2e134,                     // fixed notation would need 135 digits
      1.0 / 3.0,                 // needs 17 significant digits
      0.30000000000000004,       // classic 0.1 + 0.2 artifact
      5e-324,                    // smallest denormal
      1.7976931348623157e308,    // largest finite double
      -6.02214076e23,
      0.1,
  };
  for (double v : cases) {
    const std::string s = FormatDouble(v);
    double back = 0;
    ASSERT_TRUE(ParseStrictNumeric(s, &back)) << s;
    EXPECT_EQ(back, v) << s;
  }
}

// ---------------------------------------------------------------- Pool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ZeroRequestsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}


// ------------------------------------------------- ParseStrictNumeric

TEST(ParseStrictNumericTest, AcceptsFiniteDecimals) {
  double v = 0.0;
  EXPECT_TRUE(ParseStrictNumeric("42", &v));
  EXPECT_DOUBLE_EQ(v, 42.0);
  EXPECT_TRUE(ParseStrictNumeric("-7.5", &v));
  EXPECT_DOUBLE_EQ(v, -7.5);
  EXPECT_TRUE(ParseStrictNumeric("+3", &v));
  EXPECT_DOUBLE_EQ(v, 3.0);
  EXPECT_TRUE(ParseStrictNumeric(".5", &v));
  EXPECT_DOUBLE_EQ(v, 0.5);
  EXPECT_TRUE(ParseStrictNumeric("2.", &v));
  EXPECT_DOUBLE_EQ(v, 2.0);
  EXPECT_TRUE(ParseStrictNumeric("1e3", &v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_TRUE(ParseStrictNumeric("6.02E+23", &v));
  EXPECT_TRUE(ParseStrictNumeric("1e-3", &v));
  EXPECT_DOUBLE_EQ(v, 0.001);
  EXPECT_TRUE(ParseStrictNumeric("  42  ", &v));  // surrounding whitespace
  EXPECT_DOUBLE_EQ(v, 42.0);
}

TEST(ParseStrictNumericTest, RejectsStrtodExtras) {
  // strtod accepts all of these; the strict grammar must not.
  double v = 0.0;
  EXPECT_FALSE(ParseStrictNumeric("0x1A", &v));     // hex float
  EXPECT_FALSE(ParseStrictNumeric("0X1p4", &v));    // hex float with exponent
  EXPECT_FALSE(ParseStrictNumeric("inf", &v));
  EXPECT_FALSE(ParseStrictNumeric("-inf", &v));
  EXPECT_FALSE(ParseStrictNumeric("infinity", &v));
  EXPECT_FALSE(ParseStrictNumeric("nan", &v));
  EXPECT_FALSE(ParseStrictNumeric("nan(0x1)", &v));
  EXPECT_FALSE(ParseStrictNumeric("1e999", &v));    // overflows to +inf
  EXPECT_FALSE(ParseStrictNumeric("-1e999", &v));
}

TEST(ParseStrictNumericTest, RejectsMalformed) {
  double v = 0.0;
  EXPECT_FALSE(ParseStrictNumeric("", &v));
  EXPECT_FALSE(ParseStrictNumeric("   ", &v));
  EXPECT_FALSE(ParseStrictNumeric(".", &v));
  EXPECT_FALSE(ParseStrictNumeric("+", &v));
  EXPECT_FALSE(ParseStrictNumeric("e5", &v));
  EXPECT_FALSE(ParseStrictNumeric("1e", &v));
  EXPECT_FALSE(ParseStrictNumeric("1e+", &v));
  EXPECT_FALSE(ParseStrictNumeric("1.2.3", &v));
  EXPECT_FALSE(ParseStrictNumeric("12abc", &v));
  EXPECT_FALSE(ParseStrictNumeric("1 2", &v));
  EXPECT_FALSE(ParseStrictNumeric("--5", &v));
}

/// Installs a comma-decimal locale for one test; skips when the container
/// has no such locale installed. Restores the previous locale on scope
/// exit so later tests see the default "C" behavior again.
class ScopedCommaLocale {
 public:
  ScopedCommaLocale() {
    previous_ = std::setlocale(LC_ALL, nullptr);
    for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                             "fr_FR.utf8"}) {
      if (std::setlocale(LC_ALL, name) != nullptr) {
        installed_ = true;
        return;
      }
    }
  }
  ~ScopedCommaLocale() { std::setlocale(LC_ALL, previous_.c_str()); }
  [[nodiscard]] bool installed() const { return installed_; }

 private:
  std::string previous_;
  bool installed_ = false;
};

// Regression: ParseStrictNumeric's overflow/subnormal fallback went
// through strtod, which honors the process locale's decimal separator —
// under de_DE "3.14" parsed as 3 (strtod stops at '.'). Parsing must be
// locale-independent.
TEST(ParseStrictNumericTest, LocaleIndependentDecimalSeparator) {
  ScopedCommaLocale locale;
  if (!locale.installed()) {
    GTEST_SKIP() << "no comma-decimal locale installed in this container";
  }
  double v = 0.0;
  ASSERT_TRUE(ParseStrictNumeric("3.14", &v));
  EXPECT_DOUBLE_EQ(v, 3.14);
  // The locale's own separator must NOT become valid.
  EXPECT_FALSE(ParseStrictNumeric("3,14", &v));
  // The subnormal fallback path (from_chars reports result_out_of_range,
  // strtod resolves it) must also survive a comma-decimal locale.
  ASSERT_TRUE(ParseStrictNumeric("4.9406564584124654e-324", &v));
  EXPECT_GT(v, 0.0);
  ASSERT_TRUE(ParseStrictNumeric("1e-310", &v));
  EXPECT_GT(v, 0.0);
  // And formatting stays period-decimal for the JSON/bench emitters.
  double back = 0.0;
  ASSERT_TRUE(ParseStrictNumeric(FormatDouble(0.1), &back));
  EXPECT_DOUBLE_EQ(back, 0.1);
}

// ------------------------------------------------------------- fd_util

TEST(AtomicWriteFileTest, WritesAndReplaces) {
  std::string path = testing::TempDir() + "/atomic_write_test.txt";
  ASSERT_TRUE(AtomicWriteFile(path, "first contents").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "second contents").ok());
  std::ifstream in(path, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "second contents");
  // No staging file survives a successful replace.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(AtomicWriteFileTest, FailureLeavesOldFileUntouched) {
  std::string path = testing::TempDir() + "/atomic_keep_test.txt";
  ASSERT_TRUE(AtomicWriteFile(path, "precious").ok());
  // A directory squatting on the staging path fails the save before the
  // destination is touched (works even when the suite runs as root,
  // unlike permission tricks).
  const std::string tmp = path + ".tmp";
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0);
  EXPECT_FALSE(AtomicWriteFile(path, "replacement").ok());
  ASSERT_EQ(::rmdir(tmp.c_str()), 0);
  std::ifstream in(path, std::ios::binary);
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(got, "precious");
  std::remove(path.c_str());
}

TEST(UniqueFdTest, MoveTransfersOwnership) {
  UniqueFd a(::open("/dev/null", O_WRONLY));
  ASSERT_TRUE(a.valid());
  const int raw = a.get();
  UniqueFd b(std::move(a));
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): asserting it
  EXPECT_EQ(b.get(), raw);
  b.reset();
  EXPECT_FALSE(b.valid());
}

// --------------------------------------------------------------- cancel

TEST(CancelTokenTest, FiresOnCancelAndStaysFired) {
  CancelToken token;
  EXPECT_FALSE(token.Cancelled());
  token.Cancel();
  EXPECT_TRUE(token.Cancelled());
  EXPECT_TRUE(token.Cancelled());
}

TEST(CancelTokenTest, ZeroDeadlineFiresImmediately) {
  CancelToken token;
  token.SetDeadlineAfter(std::chrono::nanoseconds(0));
  EXPECT_TRUE(token.Cancelled());
}

TEST(CancelTokenTest, FarDeadlineDoesNotFire) {
  CancelToken token;
  token.SetDeadlineAfter(std::chrono::hours(24));
  EXPECT_FALSE(token.Cancelled());
  // Past the clock's range: saturates instead of wrapping into the past.
  CancelToken saturated;
  saturated.SetDeadlineAfter(std::chrono::nanoseconds::max());
  EXPECT_FALSE(saturated.Cancelled());
}

TEST(CancelTokenTest, CancelVisibleAcrossThreads) {
  CancelToken token;
  std::atomic<bool> seen{false};
  ThreadPool pool(2);
  pool.Submit([&] {
    while (!token.Cancelled()) {
    }
    seen.store(true);
  });
  token.Cancel();
  pool.Wait();
  EXPECT_TRUE(seen.load());
}

}  // namespace
}  // namespace dialite
