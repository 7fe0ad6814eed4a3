#include <gtest/gtest.h>

#include <chrono>

#include "align/alite_matcher.h"
#include "align/alignment.h"
#include "common/cancel.h"
#include "core/dialite.h"
#include "integrate/full_disjunction.h"
#include "kb/embedding.h"
#include "lake/lake_generator.h"
#include "lake/paper_fixtures.h"
#include "text/similarity.h"
#include "text/tokenizer.h"

namespace dialite {
namespace {

// --------------------------------------------------------------- Alignment

TEST(AlignmentTest, AddAndLookup) {
  Alignment a;
  size_t id0 = a.AddCluster({{"T1", 0}, {"T2", 0}}, "Country");
  size_t id1 = a.AddCluster({{"T1", 1}}, "");
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u);
  EXPECT_EQ(a.num_clusters(), 2u);
  EXPECT_EQ(a.IdOf("T1", 0), 0u);
  EXPECT_EQ(a.IdOf("T2", 0), 0u);
  EXPECT_EQ(a.IdOf("T1", 1), 1u);
  EXPECT_EQ(a.IdOf("T9", 0), Alignment::npos);
  EXPECT_EQ(a.IdName(0), "Country");
  EXPECT_EQ(a.IdName(1), "iid1");  // auto-named
}

TEST(AlignmentTest, ValidateDetectsMissingColumn) {
  Table t1 = paper::MakeT1();
  Alignment a;
  a.AddCluster({{"T1", 0}}, "c0");
  // Columns 1, 2 of T1 unassigned.
  std::vector<const Table*> tables = {&t1};
  EXPECT_FALSE(a.Validate(tables).ok());
}

TEST(AlignmentTest, ValidateDetectsSameTableConflict) {
  Table t1 = paper::MakeT1();
  Alignment a;
  a.AddCluster({{"T1", 0}, {"T1", 1}}, "bad");
  a.AddCluster({{"T1", 2}}, "c2");
  std::vector<const Table*> tables = {&t1};
  EXPECT_FALSE(a.Validate(tables).ok());
}

// ------------------------------------------------------------ AliteMatcher

TEST(AliteMatcherTest, AlignsPaperCovidTables) {
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  AliteMatcher matcher;
  auto r = matcher.Align({&t1, &t2, &t3});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Alignment& a = *r;
  // Fig. 3: 5 integration IDs — Country, City, VaccinationRate,
  // TotalCases, DeathRate.
  EXPECT_EQ(a.num_clusters(), 5u);
  // City columns of all three tables share one id.
  EXPECT_EQ(a.IdOf("T1", 1), a.IdOf("T2", 1));
  EXPECT_EQ(a.IdOf("T1", 1), a.IdOf("T3", 0));
  // Country columns of T1 and T2 share one id.
  EXPECT_EQ(a.IdOf("T1", 0), a.IdOf("T2", 0));
  // Vaccination-rate columns of T1 and T2 share one id.
  EXPECT_EQ(a.IdOf("T1", 2), a.IdOf("T2", 2));
  // T3's numeric columns stay separate.
  EXPECT_NE(a.IdOf("T3", 1), a.IdOf("T3", 2));
  EXPECT_NE(a.IdOf("T3", 1), a.IdOf("T1", 2));
}

TEST(AliteMatcherTest, AlignsPaperVaccineTables) {
  Table t4 = paper::MakeT4();
  Table t5 = paper::MakeT5();
  Table t6 = paper::MakeT6();
  AliteMatcher matcher;
  auto r = matcher.Align({&t4, &t5, &t6});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Alignment& a = *r;
  // Fig. 8: 3 integration IDs — Vaccine, Approver, Country.
  EXPECT_EQ(a.num_clusters(), 3u);
  EXPECT_EQ(a.IdOf("T4", 0), a.IdOf("T6", 0));  // Vaccine
  EXPECT_EQ(a.IdOf("T4", 1), a.IdOf("T5", 1));  // Approver
  EXPECT_EQ(a.IdOf("T5", 0), a.IdOf("T6", 1));  // Country
}

TEST(AliteMatcherTest, ColumnSimilaritySignals) {
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  AliteMatcher m;
  // Same concept, disjoint values (City/City) — embeddings + header carry.
  double city_city = m.ColumnSimilarity(t1, 1, t2, 1);
  // Different concepts (City vs Country).
  double city_country = m.ColumnSimilarity(t1, 1, t2, 0);
  EXPECT_GT(city_city, city_country);
  EXPECT_GE(city_city, 0.4);
}

/// ALITE's pairwise similarity spelled out with the generic set functions:
/// hash-set Containment both ways over the unsorted ColumnTokens lists.
double GenericSimilarity(const Table& ta, size_t ca, const Table& tb,
                         size_t cb) {
  const AliteMatcher::Params p;
  const HashEmbedder emb(&KnowledgeBase::BuiltIn());
  auto numeric = [](const ColumnView& col) {
    for (size_t r = 0; r < col.size(); ++r) {
      double d;
      if (!col.is_null(r) && col.kind(r) == CellKind::kString &&
          !col.AsNumericAt(r, &d)) {
        return false;
      }
    }
    return true;
  };
  const std::vector<std::string> a = ColumnTokens(ta.column(ca));
  const std::vector<std::string> b = ColumnTokens(tb.column(cb));
  if (p.type_gate && !a.empty() && !b.empty() &&
      numeric(ta.column(ca)) != numeric(tb.column(cb))) {
    return 0.0;
  }
  double s = 0.0;
  if (!a.empty() && !b.empty()) {
    s += p.value_weight * std::max(Containment(a, b), Containment(b, a));
    s += p.embedding_weight *
         CosineSimilarity(emb.EmbedValueSet(a), emb.EmbedValueSet(b));
  }
  const std::string ha = NormalizeText(ta.schema().column(ca).name);
  const std::string hb = NormalizeText(tb.schema().column(cb).name);
  if (!ha.empty() && !hb.empty()) {
    s += ha == hb ? p.header_exact_bonus
                  : p.header_fuzzy_weight * JaroWinkler(ha, hb);
  }
  return s;
}

TEST(AliteMatcherTest, ColumnSimilarityEqualsGenericFormula) {
  const std::vector<Table> tables = {paper::MakeT1(), paper::MakeT2(),
                                     paper::MakeT3(), paper::MakeT4(),
                                     paper::MakeT5(), paper::MakeT6()};
  AliteMatcher m;
  size_t overlapping = 0;
  for (size_t i = 0; i < tables.size(); ++i) {
    for (size_t j = i + 1; j < tables.size(); ++j) {
      for (size_t ca = 0; ca < tables[i].num_columns(); ++ca) {
        for (size_t cb = 0; cb < tables[j].num_columns(); ++cb) {
          // Bit for bit: the merge count feeds the same two divisions.
          EXPECT_EQ(m.ColumnSimilarity(tables[i], ca, tables[j], cb),
                    GenericSimilarity(tables[i], ca, tables[j], cb))
              << tables[i].name() << "." << ca << " vs " << tables[j].name()
              << "." << cb;
          if (Containment(ColumnTokens(tables[i].column(ca)),
                          ColumnTokens(tables[j].column(cb))) > 0) {
            ++overlapping;
          }
        }
      }
    }
  }
  EXPECT_GT(overlapping, 5u);  // the containment term is exercised
}

TEST(AliteMatcherTest, TypeGateBlocksNumericTextMatches) {
  Table a("A", Schema::FromNames({"x"}));
  (void)a.AddRow({Value::Int(1)});
  (void)a.AddRow({Value::Int(2)});
  Table b("B", Schema::FromNames({"x"}));
  (void)b.AddRow({Value::String("Berlin")});
  (void)b.AddRow({Value::String("Paris")});
  AliteMatcher m;
  EXPECT_DOUBLE_EQ(m.ColumnSimilarity(a, 0, b, 0), 0.0);
  AliteMatcher::Params p;
  p.type_gate = false;
  AliteMatcher m2(p);
  EXPECT_GT(m2.ColumnSimilarity(a, 0, b, 0), 0.0);  // header bonus applies
}

TEST(AliteMatcherTest, SameTableColumnsNeverCluster) {
  // Two identical-content columns in one table must not merge.
  Table a("A", Schema::FromNames({"city1", "city2"}));
  (void)a.AddRow({Value::String("Berlin"), Value::String("Berlin")});
  (void)a.AddRow({Value::String("Boston"), Value::String("Boston")});
  Table b("B", Schema::FromNames({"city"}));
  (void)b.AddRow({Value::String("Berlin")});
  AliteMatcher m;
  auto r = m.Align({&a, &b});
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->IdOf("A", 0), r->IdOf("A", 1));
}

TEST(AliteMatcherTest, RecoversGroundTruthWithCleanHeaders) {
  LakeGeneratorParams p;
  p.fragments_per_domain = 4;
  p.header_noise = 0.0;
  p.domains = {"universities"};
  auto out = SyntheticLakeGenerator(p).Generate();
  std::vector<const Table*> tables = out.lake.tables();
  AliteMatcher m;
  auto r = m.Align(tables);
  ASSERT_TRUE(r.ok());
  // Every same-base pair must share an id; every different-base must not.
  size_t correct = 0;
  size_t total = 0;
  for (size_t i = 0; i < tables.size(); ++i) {
    for (size_t j = i + 1; j < tables.size(); ++j) {
      for (size_t ci = 0; ci < tables[i]->num_columns(); ++ci) {
        for (size_t cj = 0; cj < tables[j]->num_columns(); ++cj) {
          bool truth = out.truth.SameBaseColumn(tables[i]->name(), ci,
                                                tables[j]->name(), cj);
          bool pred = r->IdOf(tables[i]->name(), ci) ==
                      r->IdOf(tables[j]->name(), cj);
          ++total;
          if (truth == pred) ++correct;
        }
      }
    }
  }
  EXPECT_GE(static_cast<double>(correct) / static_cast<double>(total), 0.95)
      << correct << "/" << total;
}

TEST(AliteMatcherTest, SurvivesScrambledHeadersOnTextColumns) {
  LakeGeneratorParams p;
  p.fragments_per_domain = 3;
  p.header_noise = 1.0;
  p.min_rows = 40;
  p.max_rows = 100;
  p.domains = {"world_cities"};
  auto out = SyntheticLakeGenerator(p).Generate();
  std::vector<const Table*> tables = out.lake.tables();
  AliteMatcher m;
  auto r = m.Align(tables);
  ASSERT_TRUE(r.ok());
  // Text columns (City/Country/Continent) still overlap heavily in values;
  // count pairwise recall on those.
  size_t hit = 0;
  size_t want = 0;
  for (size_t i = 0; i < tables.size(); ++i) {
    for (size_t j = i + 1; j < tables.size(); ++j) {
      for (size_t ci = 0; ci < tables[i]->num_columns(); ++ci) {
        const std::string& base =
            out.truth.BaseColumnOf(tables[i]->name(), ci);
        if (base != "City" && base != "Country" && base != "Continent") {
          continue;
        }
        for (size_t cj = 0; cj < tables[j]->num_columns(); ++cj) {
          if (out.truth.BaseColumnOf(tables[j]->name(), cj) != base) continue;
          ++want;
          if (r->IdOf(tables[i]->name(), ci) ==
              r->IdOf(tables[j]->name(), cj)) {
            ++hit;
          }
        }
      }
    }
  }
  if (want > 0) {
    EXPECT_GE(static_cast<double>(hit) / static_cast<double>(want), 0.7)
        << hit << "/" << want;
  }
}

// ------------------------------------------------------------- NameMatcher

TEST(NameMatcherTest, GroupsByNormalizedHeader) {
  Table a("A", Schema::FromNames({"Country", "City"}));
  (void)a.AddRow({Value::String("x"), Value::String("y")});
  Table b("B", Schema::FromNames({"country", "Population"}));
  (void)b.AddRow({Value::String("x"), Value::Int(5)});
  NameMatcher m;
  auto r = m.Align({&a, &b});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_clusters(), 3u);
  EXPECT_EQ(r->IdOf("A", 0), r->IdOf("B", 0));  // Country == country
  EXPECT_NE(r->IdOf("A", 1), r->IdOf("B", 1));
}

TEST(NameMatcherTest, SameTableDuplicateHeadersSplit) {
  Table a("A", Schema::FromNames({"x", "x"}));
  (void)a.AddRow({Value::Int(1), Value::Int(2)});
  Table b("B", Schema::FromNames({"x"}));
  (void)b.AddRow({Value::Int(1)});
  NameMatcher m;
  auto r = m.Align({&a, &b});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->IdOf("A", 0), r->IdOf("A", 1));
  // B.x joins the first cluster.
  EXPECT_EQ(r->IdOf("A", 0), r->IdOf("B", 0));
}

TEST(NameMatcherTest, CollapsesUnderScrambledHeaders) {
  LakeGeneratorParams p;
  p.fragments_per_domain = 3;
  p.header_noise = 1.0;
  p.domains = {"world_cities"};
  auto out = SyntheticLakeGenerator(p).Generate();
  std::vector<const Table*> tables = out.lake.tables();
  NameMatcher name_m;
  AliteMatcher alite_m;
  auto rn = name_m.Align(tables);
  auto ra = alite_m.Align(tables);
  ASSERT_TRUE(rn.ok());
  ASSERT_TRUE(ra.ok());
  // The name matcher fragments into more clusters than the holistic
  // matcher once headers are scrambled.
  EXPECT_GT(rn->num_clusters(), ra->num_clusters());
}

// --------------------------------------------------------- ManualAlignment

TEST(ManualAlignmentTest, AppliesGivenClustersAndSingletons) {
  Table t4 = paper::MakeT4();
  Table t5 = paper::MakeT5();
  ManualAlignment manual({{{"T4", 1}, {"T5", 1}}});
  auto r = manual.Align({&t4, &t5});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->IdOf("T4", 1), r->IdOf("T5", 1));
  EXPECT_NE(r->IdOf("T4", 0), r->IdOf("T5", 0));
  EXPECT_EQ(r->num_clusters(), 3u);
}

TEST(ManualAlignmentTest, RejectsUnknownReferences) {
  Table t4 = paper::MakeT4();
  ManualAlignment bad_table({{{"T9", 0}}});
  EXPECT_FALSE(bad_table.Align({&t4}).ok());
  ManualAlignment bad_col({{{"T4", 9}}});
  EXPECT_FALSE(bad_col.Align({&t4}).ok());
}

TEST(AliteMatcherTest, PreExpiredTokenAbortsAlignment) {
  // A fired per-request deadline must stop the matcher inside its first
  // polled stage (signature building / similarity matrix / merge loop),
  // surfacing kDeadlineExceeded instead of a partial alignment.
  Table t1 = paper::MakeT1();
  Table t2 = paper::MakeT2();
  Table t3 = paper::MakeT3();
  AliteMatcher matcher;
  CancelToken cancel;
  cancel.SetDeadlineAfter(std::chrono::nanoseconds(0));
  auto r = matcher.Align({&t1, &t2, &t3}, &cancel);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  // A null token (the default overload) still aligns fine.
  EXPECT_TRUE(matcher.Align({&t1, &t2, &t3}).ok());
}

// ------------------------------------------------------ signature residency

/// Three domains of four fragments: sets can mix same-domain fragments
/// with unrelated tables.
SyntheticLakeGenerator::Output ResidencyLake() {
  LakeGeneratorParams p;
  p.fragments_per_domain = 4;
  p.min_rows = 15;
  p.max_rows = 40;
  p.null_rate = 0.1;
  p.domains = {"universities", "football_clubs", "vaccine_approvals"};
  return SyntheticLakeGenerator(p).Generate();
}

/// An alignment and its integrated table — rows in order, null kinds and
/// provenance — rendered for exact comparison.
std::string Render(const Alignment& alignment, const Table& table) {
  return alignment.ToString() + "\n" + table.ToPrettyString(table.num_rows());
}

/// `set` aligned by a standalone matcher (no lake: every column signed on
/// the spot) and integrated by full disjunction.
std::string StandaloneRender(const std::vector<const Table*>& set) {
  AliteMatcher matcher;
  Result<Alignment> alignment = matcher.Align(set);
  EXPECT_TRUE(alignment.ok()) << alignment.status().ToString();
  if (!alignment.ok()) return "";
  Result<Table> table = FullDisjunction().Integrate(set, *alignment);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.ok() ? Render(*alignment, *table) : "";
}

/// `set` through the facade, whose matcher borrows lake columns' tokens and
/// embeddings from the lake.
std::string FacadeRender(const Dialite& dialite,
                         const std::vector<const Table*>& set) {
  Result<IntegrationResult> r = dialite.AlignAndIntegrate(set);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? Render(r->alignment, r->table) : "";
}

/// A copy of every column of `t` under the name `name`.
Table Renamed(const Table& t, const std::string& name) {
  std::vector<size_t> all(t.num_columns());
  for (size_t c = 0; c < all.size(); ++c) all[c] = c;
  return t.ProjectColumns(all, name);
}

size_t NumColumns(const std::vector<const Table*>& set) {
  size_t n = 0;
  for (const Table* t : set) n += t->num_columns();
  return n;
}

TEST(SignatureResidencyTest, FacadeEqualsStandaloneMatcherOnEveryCall) {
  const SyntheticLakeGenerator::Output out = ResidencyLake();
  const std::vector<const Table*> lake_tables = out.lake.tables();
  ASSERT_EQ(lake_tables.size(), 12u);
  Dialite dialite(&out.lake);
  ASSERT_TRUE(dialite.RegisterDefaults().ok());
  ObservabilityContext obs;
  dialite.set_observability(&obs);
  // A body table: a lake fragment's content under a name the lake lacks.
  const Table body = Renamed(*lake_tables[0], "body");

  std::vector<std::vector<const Table*>> sets;
  for (size_t d = 0; d < 3; ++d) {  // each domain's four fragments
    sets.push_back({lake_tables[4 * d], lake_tables[4 * d + 1],
                    lake_tables[4 * d + 2], lake_tables[4 * d + 3]});
  }
  sets.push_back({lake_tables[1], lake_tables[6], lake_tables[11]});
  sets.push_back({&body, lake_tables[1], lake_tables[2]});
  sets.push_back({&body, lake_tables[5], lake_tables[9]});

  auto counter = [&obs](const char* name) {
    return obs.metrics().CounterValue(name);
  };
  size_t set_columns = 0;
  for (const std::vector<const Table*>& set : sets) {
    set_columns += NumColumns(set);
  }
  for (int pass = 0; pass < 3; ++pass) {
    const uint64_t computed = counter("align.signatures.computed");
    const uint64_t reused = counter("align.signatures.reused");
    for (const std::vector<const Table*>& set : sets) {
      EXPECT_EQ(FacadeRender(dialite, set), StandaloneRender(set))
          << "pass " << pass;
    }
    // Every pass, the first included, signs only the body (twice) and
    // borrows every lake column from the lake's tokens. The body's values
    // are lake values: none is embedded anew.
    const uint64_t signed_now = counter("align.signatures.computed") - computed;
    EXPECT_EQ(signed_now, 2 * body.num_columns()) << "pass " << pass;
    EXPECT_EQ(counter("align.work.embedded_values"), 0u) << "pass " << pass;
    EXPECT_EQ(counter("align.signatures.reused") - reused,
              set_columns - signed_now)
        << "pass " << pass;
  }
}

TEST(SignatureResidencyTest, AllMissBodyEmbedsEveryValue) {
  const SyntheticLakeGenerator::Output out = ResidencyLake();
  const std::vector<const Table*> lake_tables = out.lake.tables();
  Dialite dialite(&out.lake);
  ASSERT_TRUE(dialite.RegisterDefaults().ok());
  ObservabilityContext obs;
  dialite.set_observability(&obs);
  // A body whose every cell is a lake cell's text plus "~": no token of it
  // is in the lake's dictionary, so each is embedded anew.
  const Table& source = *lake_tables[4];
  std::vector<ColumnDef> defs;
  for (size_t c = 0; c < source.num_columns(); ++c) {
    defs.push_back({source.schema().column(c).name, ValueType::kString});
  }
  Table body("body", Schema(std::move(defs)));
  for (size_t r = 0; r < source.num_rows(); ++r) {
    Row row = source.row(r);
    for (Value& v : row) {
      if (!v.is_null()) v = Value::String(v.ToCsvString() + "~");
    }
    ASSERT_TRUE(body.AddRow(std::move(row)).ok());
  }
  std::shared_ptr<const LakeTokens> tokens = out.lake.tokens();
  size_t values = 0;
  for (size_t c = 0; c < body.num_columns(); ++c) {
    for (const std::string& tok : ColumnTokens(body.column(c))) {
      ASSERT_EQ(tokens->Find(tok), kNoToken) << tok;
      ++values;
    }
  }
  ASSERT_GT(values, 0u);
  const std::vector<const Table*> set = {&body, lake_tables[5],
                                         lake_tables[6]};
  EXPECT_EQ(FacadeRender(dialite, set), StandaloneRender(set));
  EXPECT_EQ(obs.metrics().CounterValue("align.work.embedded_values"), values);
  EXPECT_EQ(obs.metrics().CounterValue("align.signatures.computed"),
            body.num_columns());
}

TEST(SignatureResidencyTest, BodyNamedLikeALakeTableIsSignedFresh) {
  const SyntheticLakeGenerator::Output out = ResidencyLake();
  const std::vector<const Table*> lake_tables = out.lake.tables();
  Dialite dialite(&out.lake);
  ASSERT_TRUE(dialite.RegisterDefaults().ok());
  ObservabilityContext obs;
  dialite.set_observability(&obs);
  const Table* resident = lake_tables[0];
  const std::vector<const Table*> warm = {resident, lake_tables[1]};
  EXPECT_EQ(FacadeRender(dialite, warm), StandaloneRender(warm));

  // Same name as the resident table, another domain's content.
  const Table impostor = Renamed(*lake_tables[8], resident->name());
  const std::vector<const Table*> set = {&impostor, lake_tables[1]};
  const uint64_t before = obs.metrics().CounterValue("align.signatures.computed");
  const std::string facade = FacadeRender(dialite, set);
  EXPECT_EQ(facade, StandaloneRender(set));
  EXPECT_NE(facade, StandaloneRender(warm));
  EXPECT_EQ(obs.metrics().CounterValue("align.signatures.computed") - before,
            impostor.num_columns());
}

TEST(SignatureResidencyTest, ExpiredTokenOnLakeOnlySetComputesNothing) {
  const SyntheticLakeGenerator::Output out = ResidencyLake();
  const std::vector<const Table*> lake_tables = out.lake.tables();
  Dialite dialite(&out.lake);
  ASSERT_TRUE(dialite.RegisterDefaults().ok());
  ObservabilityContext obs;
  dialite.set_observability(&obs);
  auto computed = [&obs] {
    return obs.metrics().CounterValue("align.signatures.computed");
  };
  const std::vector<const Table*> set = {lake_tables[2], lake_tables[3]};
  CancelToken expired;
  expired.SetDeadlineAfter(std::chrono::nanoseconds(0));
  Result<IntegrationResult> r =
      dialite.AlignAndIntegrate(set, "alite_fd", "alite_holistic", &expired);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_EQ(computed(), 0u);
  // Without a deadline the same set aligns, still computing nothing.
  EXPECT_EQ(FacadeRender(dialite, set), StandaloneRender(set));
  EXPECT_EQ(computed(), 0u);
}

}  // namespace
}  // namespace dialite
