#include <gtest/gtest.h>

#include <cmath>

#include "text/similarity.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace dialite {
namespace {

// ------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, WordTokensLowercaseAndSplit) {
  auto toks = WordTokens("Vaccination Rate (1+ dose)");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0], "vaccination");
  EXPECT_EQ(toks[1], "rate");
  EXPECT_EQ(toks[2], "1");
  EXPECT_EQ(toks[3], "dose");
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(WordTokens("").empty());
  EXPECT_TRUE(WordTokens("--- !!").empty());
}

TEST(TokenizerTest, DistinctWordTokens) {
  auto toks = DistinctWordTokens("a b a c b");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0], "a");
  EXPECT_EQ(toks[1], "b");
  EXPECT_EQ(toks[2], "c");
}

TEST(TokenizerTest, CharQGramsPadded) {
  auto grams = CharQGrams("ab", 3);
  // "##ab##" -> ##a, #ab, ab#, b##
  ASSERT_EQ(grams.size(), 4u);
  EXPECT_EQ(grams[0], "##a");
  EXPECT_EQ(grams[3], "b##");
}

TEST(TokenizerTest, CharQGramsEmptyInput) {
  EXPECT_TRUE(CharQGrams("", 3).empty());
}

TEST(TokenizerTest, CharQGramsSpacesBecomeUnderscore) {
  auto grams = CharQGrams("a b", 2);
  bool found = false;
  for (const auto& g : grams) {
    if (g == "a_") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TokenizerTest, NormalizeText) {
  EXPECT_EQ(NormalizeText("Death Rate (per 100k residents)"),
            "death rate per 100k residents");
  EXPECT_EQ(NormalizeText("  A--B  "), "a b");
  EXPECT_EQ(NormalizeText(""), "");
}

// ------------------------------------------------------------- Set sims

TEST(SetSimTest, Jaccard) {
  EXPECT_DOUBLE_EQ(Jaccard({"a", "b"}, {"b", "c"}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Jaccard({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(Jaccard({"a"}, {}), 0.0);
  EXPECT_DOUBLE_EQ(Jaccard({"a"}, {"a"}), 1.0);
}

TEST(SetSimTest, Containment) {
  EXPECT_DOUBLE_EQ(Containment({"a", "b"}, {"a", "b", "c"}), 1.0);
  EXPECT_DOUBLE_EQ(Containment({"a", "b", "z"}, {"a", "b", "c"}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Containment({}, {"a"}), 0.0);
}

// ------------------------------------------------------------- Edit dist

TEST(EditDistTest, JaroKnownValues) {
  EXPECT_DOUBLE_EQ(Jaro("", ""), 1.0);
  EXPECT_DOUBLE_EQ(Jaro("a", ""), 0.0);
  EXPECT_NEAR(Jaro("martha", "marhta"), 0.944444, 1e-5);
  EXPECT_NEAR(Jaro("dixon", "dicksonx"), 0.766667, 1e-5);
}

TEST(EditDistTest, JaroWinklerBoostsCommonPrefix) {
  double jw = JaroWinkler("martha", "marhta");
  EXPECT_NEAR(jw, 0.961111, 1e-5);
  EXPECT_GT(JaroWinkler("prefixed", "prefixes"), Jaro("prefixed", "prefixes"));
  EXPECT_DOUBLE_EQ(JaroWinkler("same", "same"), 1.0);
}

// ------------------------------------------------------------- TF-IDF

TEST(TfIdfTest, CommonTermsDownWeighted) {
  TfIdfVectorizer v;
  v.AddDocument({"the", "cat", "sat"});
  v.AddDocument({"the", "dog", "ran"});
  v.AddDocument({"the", "bird", "flew"});
  v.Finalize();
  SparseVector cat = v.Transform({"the", "cat"});
  int64_t the_id = v.TermId("the");
  int64_t cat_id = v.TermId("cat");
  ASSERT_GE(the_id, 0);
  ASSERT_GE(cat_id, 0);
  EXPECT_LT(cat.at(static_cast<uint32_t>(the_id)),
            cat.at(static_cast<uint32_t>(cat_id)));
}

TEST(TfIdfTest, TransformIsL2Normalized) {
  TfIdfVectorizer v;
  v.AddDocument({"a", "b", "c"});
  v.AddDocument({"a", "d"});
  v.Finalize();
  SparseVector x = v.Transform({"a", "b", "b"});
  double norm = 0.0;
  for (const auto& [k, w] : x) norm += w * w;
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(TfIdfTest, UnknownTermsIgnored) {
  TfIdfVectorizer v;
  v.AddDocument({"a"});
  v.Finalize();
  SparseVector x = v.Transform({"zzz"});
  EXPECT_TRUE(x.empty());
}

TEST(TfIdfTest, SparseCosine) {
  SparseVector a = {{0, 1.0}, {1, 0.0}};
  SparseVector b = {{0, 1.0}};
  EXPECT_NEAR(SparseCosine(a, b), 1.0, 1e-12);
  SparseVector c = {{2, 1.0}};
  EXPECT_DOUBLE_EQ(SparseCosine(a, c), 0.0);
  SparseVector zero;
  EXPECT_DOUBLE_EQ(SparseCosine(a, zero), 0.0);
}

TEST(TfIdfTest, VocabularyGrows) {
  TfIdfVectorizer v;
  v.AddDocument({"a", "b"});
  v.AddDocument({"b", "c"});
  v.Finalize();
  EXPECT_EQ(v.vocabulary_size(), 3u);
  EXPECT_EQ(v.num_documents(), 2u);
}

}  // namespace
}  // namespace dialite
