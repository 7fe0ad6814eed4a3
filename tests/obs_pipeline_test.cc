#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "align/alite_matcher.h"
#include "core/dialite.h"
#include "integrate/full_disjunction.h"
#include "lake/paper_fixtures.h"
#include "table/csv.h"

namespace dialite {
namespace {

/// One pipeline run with observability installed must surface every stage —
/// discovery builds and searches, alignment, integration, analyses, thread
/// pool, sketch cache — in a single JSON export.
class ObsPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    lake_ = paper::MakeDemoLake(8);
    dialite_ = std::make_unique<Dialite>(&lake_);
    ASSERT_TRUE(dialite_->RegisterDefaults().ok());
    dialite_->set_observability(&obs_);
    query_ = paper::MakeT1();
  }
  DataLake lake_;
  std::unique_ptr<Dialite> dialite_;
  ObservabilityContext obs_;
  Table query_;
};

TEST_F(ObsPipelineTest, EveryStageLandsInOneExport) {
  // Force the parallel build path even on single-core CI runners so the
  // thread-pool instrumentation is exercised.
  dialite_->set_num_threads(2);
  ASSERT_TRUE(dialite_->BuildIndexes().ok());
  PipelineOptions opts;
  opts.query_column = 1;
  opts.k = 5;
  opts.analyses = {"summary"};
  auto report = dialite_->Run(query_, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const Metrics& m = obs_.metrics();
  const Tracer& t = obs_.tracer();

  // Offline phase: every registered builder emitted a build counter and a
  // span, and the thread pool reported in.
  for (const char* algo : {"santos", "josie", "lsh_ensemble", "starmie",
                           "cocoa", "tus", "keyword"}) {
    EXPECT_GT(m.CounterValue("discover." + std::string(algo) +
                             ".build.tables"), 0u)
        << algo;
    EXPECT_TRUE(t.HasSpan("build." + std::string(algo))) << algo;
  }
  EXPECT_GT(m.CounterValue("threadpool.tasks_run"), 0u);
  EXPECT_TRUE(m.HasHistogram("threadpool.queue_depth"));
  EXPECT_TRUE(m.HasHistogram("threadpool.task_wait_ns"));

  // Online phase: facade spans plus per-stage instrumentation.
  EXPECT_TRUE(t.HasSpan("pipeline.build_indexes"));
  EXPECT_TRUE(t.HasSpan("pipeline.run"));
  EXPECT_TRUE(t.HasSpan("pipeline.discover"));
  EXPECT_TRUE(t.HasSpan("pipeline.align_integrate"));
  EXPECT_TRUE(t.HasSpan("pipeline.analyze"));
  EXPECT_TRUE(t.HasSpan("discover.santos"));
  EXPECT_GT(m.CounterValue("discover.searches"), 0u);
  EXPECT_GT(m.CounterValue("pipeline.integration_set_size"), 0u);

  // Align: the holistic matcher's spans and tallies.
  EXPECT_TRUE(t.HasSpan("align.alite_holistic"));
  EXPECT_TRUE(t.HasSpan("align.signatures"));
  EXPECT_TRUE(t.HasSpan("align.similarity_matrix"));
  EXPECT_TRUE(t.HasSpan("align.cluster"));
  EXPECT_GT(m.CounterValue("align.tables"), 0u);
  EXPECT_GT(m.CounterValue("align.columns"), 0u);
  EXPECT_GT(m.CounterValue("align.pair_evals"), 0u);
  EXPECT_GT(m.CounterValue("align.clusters"), 0u);

  // Integrate: FD counters (rows scanned / produced nulls / subsumed /
  // fix-point iterations) plus the integration spans.
  EXPECT_TRUE(t.HasSpan("integrate.full_disjunction"));
  EXPECT_TRUE(t.HasSpan("integrate.fd.fixpoint"));
  EXPECT_TRUE(t.HasSpan("integrate.fd.subsumption"));
  EXPECT_GT(m.CounterValue("integrate.fd.input_rows"), 0u);
  EXPECT_GT(m.CounterValue("integrate.fd.output_rows"), 0u);
  EXPECT_GT(m.CounterValue("integrate.fd.produced_nulls"), 0u);
  EXPECT_GT(m.CounterValue("integrate.fd.fixpoint_iterations"), 0u);

  // Analyze.
  EXPECT_TRUE(t.HasSpan("analyze.summary"));
  EXPECT_GT(m.CounterValue("analyze.rows_in"), 0u);

  // And all of it is in ONE JSON document.
  std::string json = obs_.ToJson();
  for (const char* needle :
       {"\"counters\":{", "\"histograms\":{", "\"spans\":[",
        "discover.santos.build.tables", "threadpool.tasks_run",
        "align.pair_evals",
        "integrate.fd.produced_nulls", "pipeline.integration_set_size",
        "\"name\":\"pipeline.run\"", "\"name\":\"align.alite_holistic\"",
        "\"name\":\"integrate.full_disjunction\"",
        "\"name\":\"analyze.summary\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST_F(ObsPipelineTest, DisabledContextEmitsNothing) {
  dialite_->set_observability(nullptr);
  ASSERT_TRUE(dialite_->BuildIndexes().ok());
  PipelineOptions opts;
  opts.query_column = 1;
  auto report = dialite_->Run(query_, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(obs_.ToJson(),
            "{\"counters\":{},\"histograms\":{},\"spans\":[]}");
}

TEST_F(ObsPipelineTest, PerRunOverrideCapturesFacadeSpans) {
  dialite_->set_observability(nullptr);
  ASSERT_TRUE(dialite_->BuildIndexes().ok());
  ObservabilityContext run_obs;
  PipelineOptions opts;
  opts.query_column = 1;
  opts.observability = &run_obs;
  auto report = dialite_->Run(query_, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(run_obs.tracer().HasSpan("pipeline.run"));
  EXPECT_GT(run_obs.metrics().CounterValue("pipeline.integration_set_size"),
            0u);
}

TEST_F(ObsPipelineTest, ResultsIdenticalWithAndWithoutObservability) {
  // Observability must never change pipeline output.
  ASSERT_TRUE(dialite_->BuildIndexes().ok());
  PipelineOptions opts;
  opts.query_column = 1;
  opts.k = 5;
  auto with_obs = dialite_->Run(query_, opts);
  ASSERT_TRUE(with_obs.ok());

  Dialite plain(&lake_);
  ASSERT_TRUE(plain.RegisterDefaults().ok());
  ASSERT_TRUE(plain.BuildIndexes().ok());
  auto without = plain.Run(query_, opts);
  ASSERT_TRUE(without.ok());

  EXPECT_EQ(with_obs->integration_set, without->integration_set);
  EXPECT_EQ(with_obs->integration.table.num_rows(),
            without->integration.table.num_rows());
  EXPECT_EQ(CsvWriter::ToString(with_obs->integration.table),
            CsvWriter::ToString(without->integration.table));
}

// Direct component usage (no facade): matcher + FD with obs wired by hand,
// the way the benches do it.
TEST(ObsComponentTest, MatcherAndFdStandalone) {
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  std::vector<const Table*> tables = {&t1, &t2, &t3};

  ObservabilityContext obs;
  AliteMatcher matcher;
  matcher.set_observability(&obs);
  auto alignment = matcher.Align(tables);
  ASSERT_TRUE(alignment.ok());

  FullDisjunction fd;
  fd.set_observability(&obs);
  auto result = fd.Integrate(tables, *alignment);
  ASSERT_TRUE(result.ok());

  EXPECT_TRUE(obs.tracer().HasSpan("align.alite_holistic"));
  EXPECT_TRUE(obs.tracer().HasSpan("integrate.full_disjunction"));
  EXPECT_GT(obs.metrics().CounterValue("integrate.fd.input_rows"), 0u);
}

// CSV ingest instrumentation.
TEST(ObsCsvTest, ParseEmitsIngestCounters) {
  ObservabilityContext obs;
  CsvOptions opts;
  opts.observability = &obs;
  const char* csv =
      "name,age,score\n"
      "alice,30,1.5\n"
      "bob,NA,2.5\n"
      "carol,40,not_a_number\n";
  auto t = CsvReader::Parse(csv, "people", opts);
  ASSERT_TRUE(t.ok());
  const Metrics& m = obs.metrics();
  EXPECT_EQ(m.CounterValue("csv.records"), 4u);  // header + 3 rows
  EXPECT_EQ(m.CounterValue("csv.rows"), 3u);
  EXPECT_EQ(m.CounterValue("csv.cells"), 9u);
  EXPECT_EQ(m.CounterValue("csv.null_cells"), 1u);       // NA
  EXPECT_EQ(m.CounterValue("csv.na_coercions"), 1u);     // NA
  // alice/bob/carol/not_a_number stayed strings after inference.
  EXPECT_EQ(m.CounterValue("csv.inference_fallbacks"), 4u);
  EXPECT_TRUE(obs.tracer().HasSpan("csv.parse"));
  EXPECT_TRUE(m.HasHistogram("csv.table_rows"));
}

}  // namespace
}  // namespace dialite
