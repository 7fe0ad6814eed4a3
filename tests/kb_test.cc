#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "kb/annotator.h"
#include "kb/embedding.h"
#include "kb/knowledge_base.h"
#include "kb/world.h"
#include "lake/lake_generator.h"
#include "table/table.h"
#include "text/tokenizer.h"

namespace dialite {
namespace {

bool HasLabel(const std::vector<Annotation>& anns, const std::string& label) {
  return std::any_of(anns.begin(), anns.end(),
                     [&](const Annotation& a) { return a.label == label; });
}

// ---------------------------------------------------------------- World

TEST(WorldTest, BuiltInIsPopulated) {
  const World& w = World::BuiltIn();
  EXPECT_GE(w.countries().size(), 50u);
  EXPECT_GE(w.cities().size(), 100u);
  EXPECT_GE(w.vaccines().size(), 10u);
  EXPECT_GE(w.agencies().size(), 10u);
  EXPECT_GE(w.companies().size(), 25u);
  EXPECT_GE(w.universities().size(), 40u);
  EXPECT_GE(w.airlines().size(), 30u);
  EXPECT_GE(w.airports().size(), 50u);
  EXPECT_GE(w.clubs().size(), 30u);
}

TEST(WorldTest, CityCountriesResolvable) {
  const World& w = World::BuiltIn();
  std::unordered_set<std::string> countries;
  for (const CountryInfo& c : w.countries()) countries.insert(c.name);
  for (const CityInfo& c : w.cities()) {
    EXPECT_TRUE(countries.count(c.country))
        << c.name << " references unknown country " << c.country;
  }
}

TEST(WorldTest, UniversityCitiesResolvable) {
  const World& w = World::BuiltIn();
  std::unordered_set<std::string> cities;
  for (const CityInfo& c : w.cities()) cities.insert(c.name);
  // Singapore is a country-city; universities may reference it.
  cities.insert("Singapore");
  for (const UniversityInfo& u : w.universities()) {
    EXPECT_TRUE(cities.count(u.city))
        << u.name << " references unknown city " << u.city;
  }
}

// ------------------------------------------------------------------ KB

TEST(KnowledgeBaseTest, TypeHierarchyWalk) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddType("entity").ok());
  ASSERT_TRUE(kb.AddType("location", "entity").ok());
  ASSERT_TRUE(kb.AddType("city", "location").ok());
  ASSERT_TRUE(kb.AddEntity("Springfield", "city").ok());
  std::vector<std::string> types = kb.TypesOf("Springfield");
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], "city");
  EXPECT_EQ(types[1], "location");
  EXPECT_EQ(types[2], "entity");
}

TEST(KnowledgeBaseTest, AddTypeValidations) {
  KnowledgeBase kb;
  EXPECT_FALSE(kb.AddType("").ok());
  EXPECT_FALSE(kb.AddType("x", "nonexistent").ok());
  ASSERT_TRUE(kb.AddType("x").ok());
  EXPECT_EQ(kb.AddType("x").code(), StatusCode::kAlreadyExists);
}

TEST(KnowledgeBaseTest, AddEntityRequiresKnownType) {
  KnowledgeBase kb;
  EXPECT_FALSE(kb.AddEntity("v", "ghost").ok());
}

TEST(KnowledgeBaseTest, FactsRequireKnownEntities) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddType("t").ok());
  ASSERT_TRUE(kb.AddEntity("a", "t").ok());
  EXPECT_FALSE(kb.AddFact("a", "rel", "ghost").ok());
  EXPECT_FALSE(kb.AddFact("ghost", "rel", "a").ok());
  ASSERT_TRUE(kb.AddEntity("b", "t").ok());
  ASSERT_TRUE(kb.AddFact("a", "rel", "b").ok());
  EXPECT_EQ(kb.RelationBetween("a", "b").value(), "rel");
  EXPECT_FALSE(kb.RelationBetween("b", "a").has_value());
}

TEST(KnowledgeBaseTest, LookupIsCaseAndPunctuationInsensitive) {
  const KnowledgeBase& kb = KnowledgeBase::BuiltIn();
  EXPECT_TRUE(kb.Knows("berlin"));
  EXPECT_TRUE(kb.Knows("BERLIN"));
  EXPECT_TRUE(kb.Knows("Mexico  City"));
  EXPECT_FALSE(kb.Knows("Atlantis"));
}

TEST(KnowledgeBaseTest, BuiltInGeography) {
  const KnowledgeBase& kb = KnowledgeBase::BuiltIn();
  std::vector<std::string> t = kb.TypesOf("Berlin");
  EXPECT_TRUE(std::find(t.begin(), t.end(), "capital") != t.end());
  EXPECT_TRUE(std::find(t.begin(), t.end(), "city") != t.end());
  EXPECT_TRUE(std::find(t.begin(), t.end(), "location") != t.end());
  EXPECT_EQ(kb.RelationBetween("Berlin", "Germany").value(), "locatedIn");
  EXPECT_EQ(kb.RelationBetween("Boston", "United States").value(),
            "locatedIn");
}

TEST(KnowledgeBaseTest, BuiltInVaccinesAndAliases) {
  const KnowledgeBase& kb = KnowledgeBase::BuiltIn();
  EXPECT_EQ(kb.RelationBetween("Pfizer", "FDA").value(), "approvedBy");
  EXPECT_EQ(kb.RelationBetween("J&J", "FDA").value(), "approvedBy");
  EXPECT_EQ(kb.RelationBetween("JnJ", "United States").value(),
            "originatesFrom");
  EXPECT_EQ(kb.RelationBetween("USA", "United States").value(), "sameAs");
}

TEST(KnowledgeBaseTest, BuiltInMovies) {
  const KnowledgeBase& kb = KnowledgeBase::BuiltIn();
  std::vector<std::string> t = kb.TypesOf("The Silent Harbor");
  EXPECT_TRUE(std::find(t.begin(), t.end(), "movie") != t.end());
  EXPECT_TRUE(std::find(t.begin(), t.end(), "creative_work") != t.end());
  EXPECT_EQ(kb.RelationBetween("The Silent Harbor", "Elena Vasquez").value(),
            "directedBy");
  EXPECT_EQ(kb.RelationBetween("The Silent Harbor", "Spain").value(),
            "producedIn");
}

TEST(KnowledgeBaseTest, BuiltInCounts) {
  const KnowledgeBase& kb = KnowledgeBase::BuiltIn();
  EXPECT_GT(kb.num_entities(), 400u);
  EXPECT_GT(kb.num_facts(), 500u);
  EXPECT_GT(kb.num_types(), 20u);
}

// ----------------------------------------------------------- Annotator

TEST(AnnotatorTest, CityColumnAnnotatedAsCity) {
  ColumnAnnotator ann(&KnowledgeBase::BuiltIn());
  std::vector<Annotation> types =
      ann.AnnotateValues({"Berlin", "Boston", "Barcelona", "Toronto"});
  ASSERT_FALSE(types.empty());
  EXPECT_TRUE(HasLabel(types, "city"));
  // Coverage is full, so the top score should be 1.0 for "city"/"location".
  EXPECT_DOUBLE_EQ(types[0].score, 1.0);
}

TEST(AnnotatorTest, MixedColumnScoresFractional) {
  ColumnAnnotator ann(&KnowledgeBase::BuiltIn());
  std::vector<Annotation> types =
      ann.AnnotateValues({"Berlin", "Boston", "NotARealPlaceXyz", "Qqqq"});
  ASSERT_FALSE(types.empty());
  EXPECT_NEAR(types[0].score, 0.5, 1e-9);
}

TEST(AnnotatorTest, UnknownValuesYieldNothing) {
  ColumnAnnotator ann(&KnowledgeBase::BuiltIn());
  EXPECT_TRUE(ann.AnnotateValues({"zzz1", "zzz2"}).empty());
  EXPECT_TRUE(ann.AnnotateValues({}).empty());
}

TEST(AnnotatorTest, RelationAnnotation) {
  ColumnAnnotator ann(&KnowledgeBase::BuiltIn());
  std::vector<Annotation> rels = ann.AnnotateRelation(
      {{"Berlin", "Germany"}, {"Boston", "United States"},
       {"Barcelona", "Spain"}});
  ASSERT_FALSE(rels.empty());
  EXPECT_EQ(rels[0].label, "locatedIn");
  EXPECT_DOUBLE_EQ(rels[0].score, 1.0);
}

TEST(AnnotatorTest, ReverseRelationGetsInverseLabel) {
  ColumnAnnotator ann(&KnowledgeBase::BuiltIn());
  std::vector<Annotation> rels =
      ann.AnnotateRelation({{"Germany", "Berlin"}, {"Spain", "Madrid"}});
  ASSERT_FALSE(rels.empty());
  EXPECT_TRUE(HasLabel(rels, "locatedIn^-1"));
}

TEST(AnnotatorTest, TableColumnAndPairAnnotation) {
  Table t("t", Schema::FromNames({"City", "Country"}));
  ASSERT_TRUE(
      t.AddRow({Value::String("Berlin"), Value::String("Germany")}).ok());
  ASSERT_TRUE(
      t.AddRow({Value::String("Madrid"), Value::String("Spain")}).ok());
  ASSERT_TRUE(t.AddRow({Value::String("Lyon"), Value::Null()}).ok());
  ColumnAnnotator ann(&KnowledgeBase::BuiltIn());
  EXPECT_TRUE(HasLabel(ann.AnnotateColumn(t, 0), "city"));
  EXPECT_TRUE(HasLabel(ann.AnnotateColumn(t, 1), "country"));
  std::vector<Annotation> rels = ann.AnnotateColumnPair(t, 0, 1);
  ASSERT_FALSE(rels.empty());
  EXPECT_TRUE(HasLabel(rels, "locatedIn"));  // null row skipped
  EXPECT_DOUBLE_EQ(rels[0].score, 1.0);
  EXPECT_NEAR(ann.ColumnCoverage(t, 0), 1.0, 1e-9);
}

// ----------------------------------------------------------- Embedding

TEST(EmbeddingTest, CosineBasics) {
  Embedding a = {1.0f, 0.0f};
  Embedding b = {0.0f, 1.0f};
  Embedding c = {2.0f, 0.0f};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 0.0);
  EXPECT_NEAR(CosineSimilarity(a, c), 1.0, 1e-6);
  Embedding zero = {0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, zero), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, {1.0f}), 0.0);  // dim mismatch
}

TEST(EmbeddingTest, DeterministicAndNormalized) {
  HashEmbedder emb(&KnowledgeBase::BuiltIn());
  Embedding e1 = emb.EmbedValue("Berlin");
  Embedding e2 = emb.EmbedValue("Berlin");
  EXPECT_EQ(e1, e2);
  double norm = 0.0;
  for (float x : e1) norm += static_cast<double>(x) * x;
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

TEST(EmbeddingTest, SameTypeValuesCloserThanCrossType) {
  HashEmbedder emb(&KnowledgeBase::BuiltIn());
  double city_city =
      CosineSimilarity(emb.EmbedValue("Berlin"), emb.EmbedValue("Boston"));
  double city_vaccine =
      CosineSimilarity(emb.EmbedValue("Berlin"), emb.EmbedValue("Pfizer"));
  EXPECT_GT(city_city, city_vaccine);
  EXPECT_GT(city_city, 0.3);
}

TEST(EmbeddingTest, SurfaceSimilarityWithoutKb) {
  HashEmbedder emb;  // no KB
  double typo = CosineSimilarity(emb.EmbedValue("vaccination"),
                                 emb.EmbedValue("vacination"));
  double far =
      CosineSimilarity(emb.EmbedValue("vaccination"), emb.EmbedValue("zebra"));
  EXPECT_GT(typo, far);
  EXPECT_GT(typo, 0.35);
}

TEST(EmbeddingTest, EmptyValueIsZeroVector) {
  HashEmbedder emb;
  Embedding e = emb.EmbedValue("");
  for (float x : e) EXPECT_EQ(x, 0.0f);
}

// CosineUpperBound is the pruning bound TUS and Starmie rely on: it must
// never fall below the exact cosine, whatever the summation order, scale
// or dimension.
TEST(EmbeddingTest, CosineUpperBoundDominatesCosineSimilarity) {
  auto check = [](const Embedding& a, const Embedding& b) {
    const double exact = CosineSimilarity(a.data(), b.data(), a.size());
    const double bound =
        CosineUpperBound(a.data(), EmbeddingNorm(a.data(), a.size()),
                         b.data(), EmbeddingNorm(b.data(), b.size()), a.size());
    EXPECT_GE(bound, exact) << "dim=" << a.size();
  };
  Rng rng(2023);
  auto random_vec = [&](size_t dim, double scale) {
    Embedding v(dim);
    for (float& x : v) {
      x = static_cast<float>((rng.NextDouble() * 2.0 - 1.0) * scale);
    }
    return v;
  };
  // Random unit vectors at the embedder's dimension.
  for (int i = 0; i < 16384; ++i) {
    Embedding a = random_vec(128, 1.0);
    Embedding b = random_vec(128, 1.0);
    NormalizeEmbedding(&a);
    NormalizeEmbedding(&b);
    check(a, b);
  }
  // Every dimension from 1 to 257, non-normalized at several scales, and
  // near-parallel pairs, where the cosine sits at 1 and rounding decides.
  for (size_t dim = 1; dim <= 257; ++dim) {
    for (double scale : {1e-3, 1.0, 1e3}) {
      Embedding a = random_vec(dim, scale);
      check(a, random_vec(dim, scale));
      Embedding b = a;
      for (float& x : b) {
        x *= 1.0f + static_cast<float>(rng.NextDouble()) * 1e-6f;
      }
      check(a, b);
      check(a, a);
    }
  }
  // Zero vectors score 0 exactly; the bound may not go below that.
  Embedding zero(64, 0.0f);
  Embedding one = random_vec(64, 1.0);
  check(zero, one);
  check(one, zero);
  check(zero, zero);
  EXPECT_EQ(CosineUpperBound(zero.data(), 0.0, one.data(),
                             EmbeddingNorm(one.data(), 64), 64),
            0.0);
}

TEST(EmbeddingTest, ValueSetEmbeddingSeparatesColumns) {
  HashEmbedder emb(&KnowledgeBase::BuiltIn());
  Embedding cities = emb.EmbedValueSet({"Berlin", "Madrid", "Boston"});
  Embedding cities2 = emb.EmbedValueSet({"Toronto", "Lyon", "Osaka"});
  Embedding vaccines = emb.EmbedValueSet({"Pfizer", "Moderna", "Sinovac"});
  EXPECT_GT(CosineSimilarity(cities, cities2),
            CosineSimilarity(cities, vaccines));
}

TEST(EmbeddingTest, CountryAliasVeryClose) {
  HashEmbedder emb(&KnowledgeBase::BuiltIn());
  double alias =
      CosineSimilarity(emb.EmbedValue("USA"), emb.EmbedValue("United States"));
  double unrelated =
      CosineSimilarity(emb.EmbedValue("USA"), emb.EmbedValue("Premier League"));
  EXPECT_GT(alias, unrelated);
  EXPECT_GT(alias, 0.5);
}

// ------------------------------------------ Embedding kernel equivalence

// HashEmbedder as first written: per value it builds word tokens, trigrams
// and key strings, and per feature dimension it hashes twice and branches
// on the sign. The production kernel must reproduce it float for float,
// because Starmie and TUS persist embeddings in snapshots.
class ReferenceEmbedder {
 public:
  ReferenceEmbedder(HashEmbedder::Params params, const KnowledgeBase* kb)
      : params_(params), kb_(kb) {}

  Embedding EmbedValue(std::string_view text) const {
    Embedding acc(params_.dim, 0.0f);
    std::vector<std::string> words = WordTokens(text);
    std::vector<std::string> grams = CharQGrams(Trim(text), 3);
    if (words.empty() && grams.empty()) return acc;
    for (const std::string& w : words) AddFeature("w:" + w, 1.0, &acc);
    for (const std::string& g : grams) AddFeature("g:" + g, 0.3, &acc);
    if (kb_ != nullptr) {
      for (const std::string& t : kb_->TypesOf(NormalizeText(text))) {
        if (t == "entity") continue;
        AddFeature("t:" + t, params_.semantic_weight, &acc);
      }
    }
    NormalizeEmbedding(&acc);
    return acc;
  }

  Embedding EmbedValueSet(const std::vector<std::string>& values) const {
    Embedding acc(params_.dim, 0.0f);
    for (const std::string& v : values) {
      Embedding e = EmbedValue(v);
      for (size_t i = 0; i < acc.size(); ++i) acc[i] += e[i];
    }
    NormalizeEmbedding(&acc);
    return acc;
  }

 private:
  void AddFeature(std::string_view key, double w, Embedding* acc) const {
    const uint64_t base = HashString(key, params_.seed);
    const double unit = w / std::sqrt(static_cast<double>(params_.dim));
    for (size_t i = 0; i < params_.dim; ++i) {
      uint64_t bit = HashUint64(base, i) & 1ULL;
      (*acc)[i] += static_cast<float>(bit ? unit : -unit);
    }
  }

  HashEmbedder::Params params_;
  const KnowledgeBase* kb_;
};

/// Bit-level float equality: EXPECT_EQ on the vectors, plus the sign of
/// zeros, which float == cannot see.
void ExpectSameFloats(const Embedding& want, const Embedding& got,
                      const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  EXPECT_EQ(want, got) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::signbit(want[i]), std::signbit(got[i]))
        << what << " dim " << i;
  }
}

std::vector<std::string> EdgeValues() {
  return {"",
          " ",
          "\t",
          " \t\n\r\v\f ",
          "\tBerlin\n",
          "  New York  ",
          "\n\nSan\tFrancisco\r\n",
          "a",
          "ab",
          "a b",
          "A-B_C.d",
          "!!!",
          "%",
          "$ 1,000",
          "...---...",
          "caf\xc3\xa9",
          "\xe4\xb8\xad\xe6\x96\x87",
          "\x80\xff\xfe",
          "na\xefve r\xe9sum\xe9",
          "0",
          "12345",
          "-3.75e+12",
          "2021-03-04",
          "Berlin",
          "berlin",
          "BERLIN",
          "Boston",
          "USA",
          "United States",
          "Pfizer",
          "Premier League",
          "Germany",
          "Vaccination Rate (1+ dose)",
          "a very long value with many words that repeats words many words"};
}

TEST(EmbeddingEquivalenceTest, EdgeValuesMatchReference) {
  const KnowledgeBase* kbs[] = {&KnowledgeBase::BuiltIn(), nullptr};
  for (const KnowledgeBase* kb : kbs) {
    HashEmbedder emb(kb);
    ReferenceEmbedder ref(HashEmbedder::Params(), kb);
    for (const std::string& v : EdgeValues()) {
      ExpectSameFloats(ref.EmbedValue(v), emb.EmbedValue(v),
                       "value '" + v + "' kb=" + (kb ? "yes" : "no"));
    }
    ExpectSameFloats(ref.EmbedValueSet(EdgeValues()),
                     emb.EmbedValueSet(EdgeValues()), "edge value set");
    ExpectSameFloats(ref.EmbedValueSet({}), emb.EmbedValueSet({}),
                     "empty value set");
  }
}

TEST(EmbeddingEquivalenceTest, NonDefaultParamsMatchReference) {
  std::vector<HashEmbedder::Params> variants(4);
  variants[0].dim = 100;  // not a multiple of 64
  variants[1].seed = 7;
  variants[2].dim = 1;
  variants[2].semantic_weight = 0.5;
  variants[3].dim = 0;
  variants[3].semantic_weight = 0.0;
  for (const HashEmbedder::Params& p : variants) {
    const std::string what = "dim=" + std::to_string(p.dim) +
                             " seed=" + std::to_string(p.seed);
    HashEmbedder emb(p, &KnowledgeBase::BuiltIn());
    ReferenceEmbedder ref(p, &KnowledgeBase::BuiltIn());
    EXPECT_EQ(emb.dim(), p.dim);
    for (const std::string& v : EdgeValues()) {
      ExpectSameFloats(ref.EmbedValue(v), emb.EmbedValue(v),
                       what + " value '" + v + "'");
    }
    ExpectSameFloats(ref.EmbedValueSet(EdgeValues()),
                     emb.EmbedValueSet(EdgeValues()), what + " value set");
  }
}

TEST(EmbeddingEquivalenceTest, LakeColumnTokenSetsMatchReference) {
  LakeGeneratorParams p;
  p.fragments_per_domain = 3;
  p.header_noise = 0.5;
  const auto out = SyntheticLakeGenerator(p).Generate();
  HashEmbedder kb_emb(&KnowledgeBase::BuiltIn());
  ReferenceEmbedder kb_ref(HashEmbedder::Params(), &KnowledgeBase::BuiltIn());
  HashEmbedder plain_emb;
  ReferenceEmbedder plain_ref(HashEmbedder::Params(), nullptr);
  size_t columns = 0;
  for (const Table* t : out.lake.tables()) {
    for (size_t c = 0; c < t->num_columns(); ++c) {
      const std::vector<std::string> tokens = ColumnTokens(t->column(c));
      const std::string what = t->name() + "." + std::to_string(c);
      ExpectSameFloats(kb_ref.EmbedValueSet(tokens),
                       kb_emb.EmbedValueSet(tokens), what + " kb");
      ExpectSameFloats(plain_ref.EmbedValueSet(tokens),
                       plain_emb.EmbedValueSet(tokens), what + " no kb");
      ++columns;
    }
  }
  EXPECT_GT(columns, 100u);
}

}  // namespace
}  // namespace dialite
