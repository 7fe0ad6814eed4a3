#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/tracer.h"

namespace dialite {
namespace {

// ----------------------------------------------------------------- Counter

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Set(7);
  EXPECT_EQ(c.value(), 7u);
}

// --------------------------------------------------------------- Histogram

TEST(HistogramTest, ExactStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty convention
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 60u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 30u);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(HistogramTest, PowerOfTwoBuckets) {
  Histogram h;
  h.Record(0);  // bucket 0
  h.Record(1);  // [1,2) -> bucket 1
  h.Record(2);  // [2,4) -> bucket 2
  h.Record(3);  // [2,4) -> bucket 2
  h.Record(4);  // [4,8) -> bucket 3
  std::vector<uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // trailing zeros trimmed
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(HistogramTest, LargeValues) {
  Histogram h;
  h.Record(~uint64_t{0});
  EXPECT_EQ(h.max(), ~uint64_t{0});
  EXPECT_EQ(h.bucket_counts().size(), Histogram::kBuckets);
}

TEST(HistogramTest, TopBucketBoundaries) {
  // Bucket-index boundary guard: values at and above 2^63 must land in the
  // last bucket (index kBuckets - 1), not one past the end of the array.
  // Run under ASan/UBSan this would catch an off-by-one in BucketOf.
  Histogram h;
  h.Record(uint64_t{1} << 63);        // smallest value of the top bucket
  h.Record(~uint64_t{0});             // largest representable value
  h.Record((uint64_t{1} << 63) - 1);  // largest value of the bucket below
  std::vector<uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), Histogram::kBuckets);
  EXPECT_EQ(buckets[Histogram::kBuckets - 1], 2u);
  EXPECT_EQ(buckets[Histogram::kBuckets - 2], 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), (uint64_t{1} << 63) - 1);
  EXPECT_EQ(h.max(), ~uint64_t{0});
}

// ----------------------------------------------------------------- Metrics

TEST(MetricsTest, GetOrCreateStablePointers) {
  Metrics m;
  Counter* c1 = m.counter("a");
  Counter* c2 = m.counter("a");
  EXPECT_EQ(c1, c2);
  c1->Add(5);
  EXPECT_EQ(m.CounterValue("a"), 5u);
  EXPECT_EQ(m.CounterValue("never_touched"), 0u);
}

TEST(MetricsTest, Snapshots) {
  Metrics m;
  m.Add("x", 3);
  m.Add("y");
  m.Record("lat", 100);
  m.Record("lat", 200);
  auto counters = m.CounterSnapshot();
  EXPECT_EQ(counters.at("x"), 3u);
  EXPECT_EQ(counters.at("y"), 1u);
  auto hists = m.HistogramSnapshots();
  ASSERT_TRUE(hists.count("lat"));
  EXPECT_EQ(hists.at("lat").count, 2u);
  EXPECT_EQ(hists.at("lat").sum, 300u);
  EXPECT_TRUE(m.HasHistogram("lat"));
  EXPECT_FALSE(m.HasHistogram("nope"));
}

// ------------------------------------------------------------------ Tracer

TEST(TracerTest, NestedSpansFormTree) {
  Tracer t;
  {
    ScopedSpan outer(&t, "outer");
    { ScopedSpan inner1(&t, "inner1"); }
    { ScopedSpan inner2(&t, "inner2"); }
  }
  EXPECT_EQ(t.root_count(), 1u);
  EXPECT_TRUE(t.HasSpan("outer"));
  EXPECT_TRUE(t.HasSpan("inner1"));
  EXPECT_TRUE(t.HasSpan("inner2"));
  std::string tree;
  t.AppendTree(&tree);
  // Children are indented under the root.
  EXPECT_NE(tree.find("outer"), std::string::npos);
  EXPECT_NE(tree.find("\n  inner1"), std::string::npos);
}

TEST(TracerTest, SiblingRootsWhenNotNested) {
  Tracer t;
  { ScopedSpan a(&t, "a"); }
  { ScopedSpan b(&t, "b"); }
  EXPECT_EQ(t.root_count(), 2u);
}

TEST(TracerTest, NullTracerIsInert) {
  ScopedSpan s(nullptr, "ghost");
  // No crash; nothing recorded anywhere (nothing to assert on — the span
  // must simply not touch thread-local state in a way that breaks nesting).
  Tracer t;
  {
    ScopedSpan outer(&t, "outer");
    ScopedSpan ghost(nullptr, "ghost");
    ScopedSpan inner(&t, "inner");
  }
  EXPECT_TRUE(t.HasSpan("inner"));
  EXPECT_EQ(t.root_count(), 1u);
}

TEST(TracerTest, TwoTracersDoNotCrossNest) {
  Tracer t1;
  Tracer t2;
  {
    ScopedSpan outer(&t1, "outer");
    ScopedSpan foreign(&t2, "foreign");
    ScopedSpan inner(&t1, "inner");
  }
  // "inner" nests under "outer" (same tracer) even though a foreign span
  // sits between them on the stack; "foreign" is a root of its own tracer.
  EXPECT_EQ(t1.root_count(), 1u);
  EXPECT_EQ(t2.root_count(), 1u);
  EXPECT_TRUE(t1.HasSpan("inner"));
  EXPECT_FALSE(t2.HasSpan("inner"));
}

TEST(TracerTest, RingKeepsNewestRoots) {
  Tracer t;
  const size_t cap = Tracer::kMaxRoots;
  const size_t n = 10 * cap;
  for (size_t i = 0; i < n; ++i) {
    ScopedSpan root(&t, "root" + std::to_string(i));
    ScopedSpan child(&t, "child" + std::to_string(i));
  }
  EXPECT_EQ(t.root_count(), cap);
  // The newest `cap` roots survive with their subtrees; older ones are gone.
  EXPECT_TRUE(t.HasSpan("root" + std::to_string(n - 1)));
  EXPECT_TRUE(t.HasSpan("child" + std::to_string(n - cap)));
  EXPECT_FALSE(t.HasSpan("root" + std::to_string(n - cap - 1)));
  EXPECT_FALSE(t.HasSpan("child0"));
  // Export runs oldest to newest.
  std::string tree;
  t.AppendTree(&tree);
  const std::string oldest = "root" + std::to_string(n - cap) + "  wall=";
  EXPECT_EQ(tree.compare(0, oldest.size(), oldest), 0) << tree.substr(0, 80);
  EXPECT_NE(tree.rfind("\nroot" + std::to_string(n - 1) + "  wall="),
            std::string::npos);
  std::string json;
  t.AppendJson(&json);
  EXPECT_LT(json.find("\"root" + std::to_string(n - cap) + "\""),
            json.find("\"root" + std::to_string(n - 1) + "\""));
}

TEST(TracerTest, WorkerThreadSpansBecomeRoots) {
  Tracer t;
  {
    ScopedSpan outer(&t, "outer");
    std::thread worker([&t] { ScopedSpan w(&t, "worker"); });
    worker.join();
  }
  // The worker span cannot nest under a parent on another thread.
  EXPECT_EQ(t.root_count(), 2u);
}

// ----------------------------------------------------------- JSON export

TEST(JsonTest, StringEscaping) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\nd\te");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\"");
}

/// Schema snapshot: the export is one JSON object with exactly the three
/// top-level keys, counters as an object of integers, histograms as objects
/// with count/sum/min/max/mean/buckets, spans as a list of
/// {name, wall_ns, cpu_ns, children} trees.
TEST(ObservabilityContextTest, JsonExportSchema) {
  ObservabilityContext obs;
  obs.metrics().Add("stage.events", 3);
  obs.metrics().Record("stage.latency_ns", 1000);
  { ScopedSpan s(&obs.tracer(), "stage.run"); }

  std::string json = obs.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"stage.events\":3"), std::string::npos);
  EXPECT_NE(json.find("\"stage.latency_ns\":{\"count\":1,\"sum\":1000"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage.run\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"cpu_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"children\":[]"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check without a parser).
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(ObservabilityContextTest, EmptyExport) {
  ObservabilityContext obs;
  EXPECT_EQ(obs.ToJson(),
            "{\"counters\":{},\"histograms\":{},\"spans\":[]}");
}

TEST(ObservabilityContextTest, TreeStringListsEverything) {
  ObservabilityContext obs;
  obs.metrics().Add("n.items", 7);
  obs.metrics().Record("n.sizes", 32);
  { ScopedSpan s(&obs.tracer(), "phase"); }
  std::string tree = obs.ToTreeString();
  EXPECT_NE(tree.find("phase"), std::string::npos);
  EXPECT_NE(tree.find("n.items"), std::string::npos);
  EXPECT_NE(tree.find("n.sizes"), std::string::npos);
}

// ----------------------------------------------------- null-safe helpers

TEST(NullSafeHelpersTest, NullContextFastPath) {
  // None of these may crash or allocate; they are the disabled fast path.
  ObsAdd(nullptr, "x");
  ObsSet(nullptr, "x", 1);
  ObsRecord(nullptr, "x", 1);
  EXPECT_EQ(ObsCounter(nullptr, "x"), nullptr);
  { ObsSpan s(nullptr, "x"); }

  ObservabilityContext obs;
  ObsAdd(&obs, "x", 2);
  ObsSet(&obs, "g", 9);
  ObsRecord(&obs, "h", 4);
  Counter* c = ObsCounter(&obs, "x");
  ASSERT_NE(c, nullptr);
  c->Add(3);
  EXPECT_EQ(obs.metrics().CounterValue("x"), 5u);
  EXPECT_EQ(obs.metrics().CounterValue("g"), 9u);
  EXPECT_TRUE(obs.metrics().HasHistogram("h"));
}

}  // namespace
}  // namespace dialite
