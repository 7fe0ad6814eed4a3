/// Tests for LakeTokens: the dictionary, column token sets and column
/// embeddings every token search and embedding reader shares, their
/// once-per-lake build under concurrency, the AddTable reset, and the
/// "lake.tokens" snapshot decode.

#include "lake/lake_tokens.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/dialite.h"
#include "discovery/josie.h"
#include "kb/embedding.h"
#include "lake/data_lake.h"
#include "lake/lake_generator.h"
#include "lake/paper_fixtures.h"
#include "snapshot/bytes.h"
#include "snapshot/lake_codec.h"

namespace dialite {
namespace {

DataLake MakeLake(uint64_t seed) {
  LakeGeneratorParams p;
  p.fragments_per_domain = 4;
  p.header_noise = 0.5;
  p.neutral_names = true;
  p.seed = seed;
  return SyntheticLakeGenerator(p).Generate().lake;
}

TEST(LakeTokensTest, ColumnIdsDecodeToColumnTokens) {
  for (uint64_t seed : {1u, 4u}) {
    DataLake lake = MakeLake(seed);
    std::shared_ptr<const LakeTokens> tokens = lake.tokens();
    ASSERT_EQ(tokens->num_tables(), lake.size());
    size_t columns = 0;
    for (TableId t = 0; t < lake.size(); ++t) {
      const Table& table = lake.table(t);
      ASSERT_EQ(tokens->NumColumns(t), table.num_columns());
      for (size_t c = 0; c < table.num_columns(); ++c, ++columns) {
        const size_t col = tokens->FirstColumn(t) + c;
        ASSERT_EQ(col, columns);
        EXPECT_EQ(tokens->TableOf(col), t);
        // In order: keyword's per-column cap and the embeddings' float
        // sums read the tokens in first-occurrence order.
        EXPECT_EQ(tokens->ColumnStrings(col), ColumnTokens(table.column(c)))
            << "seed " << seed << " " << table.name() << " column " << c;
      }
    }
    EXPECT_EQ(tokens->num_columns(), columns);
  }
}

TEST(LakeTokensTest, DictionaryIsStrictlyAscending) {
  DataLake lake = MakeLake(1);
  std::shared_ptr<const LakeTokens> tokens = lake.tokens();
  ASSERT_GT(tokens->num_tokens(), 1u);
  for (uint32_t id = 1; id < tokens->num_tokens(); ++id) {
    EXPECT_LT(tokens->token(id - 1), tokens->token(id)) << id;
  }
}

TEST(LakeTokensTest, PostingsAreTheAscendingInversion) {
  DataLake lake = MakeLake(4);
  std::shared_ptr<const LakeTokens> tokens = lake.tokens();
  std::vector<std::vector<uint32_t>> inversion(tokens->num_tokens());
  for (uint32_t col = 0; col < tokens->num_columns(); ++col) {
    for (size_t i = 0; i < tokens->ColumnSize(col); ++i) {
      inversion[tokens->ColumnIds(col)[i]].push_back(col);
    }
  }
  for (uint32_t id = 0; id < tokens->num_tokens(); ++id) {
    const std::vector<uint32_t> got(
        tokens->Postings(id), tokens->Postings(id) + tokens->PostingCount(id));
    EXPECT_EQ(got, inversion[id]) << tokens->token(id);
  }
}

TEST(LakeTokensTest, FindMissesAbsentTokens) {
  DataLake lake = paper::MakeDemoLake(0);
  std::shared_ptr<const LakeTokens> tokens = lake.tokens();
  for (uint32_t id = 0; id < tokens->num_tokens(); ++id) {
    EXPECT_EQ(tokens->Find(tokens->token(id)), id);
  }
  EXPECT_EQ(tokens->Find("no such token"), kNoToken);
  EXPECT_EQ(tokens->Find(""), kNoToken);
  EXPECT_EQ(tokens->Find("\xff\xff"), kNoToken);
  // SortedIds drops the misses and sorts the rest.
  const std::vector<uint32_t> ids = tokens->SortedIds(
      {std::string(tokens->token(1)), "no such token",
       std::string(tokens->token(0))});
  EXPECT_EQ(ids, (std::vector<uint32_t>{0, 1}));
}

TEST(LakeTokensTest, AddTableResetsTokensAndOlderIndexesKeepAnswering) {
  DataLake lake = paper::MakeDemoLake(2);
  JosieSearch josie;
  ASSERT_TRUE(josie.BuildIndex(lake).ok());
  const Table query = paper::MakeT1();
  const DiscoveryQuery q{&query, 1, 10};
  auto before = josie.Search(q);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_FALSE(before->empty());
  std::shared_ptr<const LakeTokens> old_tokens = lake.tokens();
  ASSERT_EQ(old_tokens->num_tables(), lake.size());

  Table extra("extra", Schema::FromNames({"City"}));
  ASSERT_TRUE(extra.AddRow({Value::String("Toronto")}).ok());
  ASSERT_TRUE(extra.AddRow({Value::String("Berlin")}).ok());
  ASSERT_TRUE(lake.AddTable(std::move(extra)).ok());
  std::shared_ptr<const LakeTokens> new_tokens = lake.tokens();
  EXPECT_NE(new_tokens.get(), old_tokens.get());
  EXPECT_EQ(new_tokens->num_tables(), lake.size());

  // The index built before the table arrived answers from its own tokens,
  // as before; a rebuild sees the new table.
  auto after = josie.Search(q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, *before);
  ASSERT_TRUE(josie.BuildIndex(lake).ok());
  auto rebuilt = josie.Search(q);
  ASSERT_TRUE(rebuilt.ok());
  bool found = false;
  for (const DiscoveryHit& h : *rebuilt) found = found || h.table_name == "extra";
  EXPECT_TRUE(found);
}

TEST(LakeTokensTest, ConcurrentFirstCallersShareOneBuild) {
  DataLake lake = MakeLake(1);
  constexpr size_t kCallers = 64;
  std::vector<std::shared_ptr<const LakeTokens>> got(kCallers);
  ThreadPool pool(8);
  pool.ParallelFor(kCallers, [&](size_t i) { got[i] = lake.tokens(2); });
  for (size_t i = 1; i < kCallers; ++i) EXPECT_EQ(got[i].get(), got[0].get());
  EXPECT_EQ(lake.tokens().get(), got[0].get());
}

TEST(LakeTokensTest, BuildIndexesBuildsOnce) {
  DataLake lake = MakeLake(4);
  Dialite dialite(&lake);
  ASSERT_TRUE(dialite.RegisterDefaults().ok());
  dialite.set_num_threads(4);
  ASSERT_TRUE(dialite.BuildIndexes().ok());
  // The algorithms built concurrently; the four that keep the tokens
  // (JOSIE, COCOA, LSH Ensemble, TUS) all hold the lake's one copy, next
  // to the lake itself and this test's reference.
  std::shared_ptr<const LakeTokens> tokens = lake.tokens();
  EXPECT_EQ(tokens.use_count(), 6);
  ASSERT_TRUE(dialite.BuildIndexes().ok());
  EXPECT_EQ(lake.tokens().get(), tokens.get());
}

TEST(LakeTokensTest, BuildIsIdenticalForEveryThreadCount) {
  DataLake lake = MakeLake(4);
  std::shared_ptr<const LakeTokens> single = LakeTokens::Build(lake, 1);
  BinaryWriter reference;
  WriteLakeTokens(*single, &reference);
  for (size_t threads : {2u, 8u, 0u}) {
    std::shared_ptr<const LakeTokens> built = LakeTokens::Build(lake, threads);
    // The payload holds every persisted array, the embedding matrix too.
    BinaryWriter w;
    WriteLakeTokens(*built, &w);
    EXPECT_EQ(w.buffer(), reference.buffer()) << "threads=" << threads;
    EXPECT_EQ(built->embeddings(), single->embeddings())
        << "threads=" << threads;
  }
}

/// ReadLakeTokens over `payload` from 8-byte-aligned storage, as a mapped
/// snapshot section would present it.
Result<std::shared_ptr<const LakeTokens>> Decoded(const BinaryWriter& payload,
                                                  const DataLake& lake) {
  std::vector<uint64_t> storage((payload.size() + 7) / 8);
  std::memcpy(storage.data(), payload.buffer().data(), payload.size());
  const std::span<const uint8_t> bytes(
      reinterpret_cast<const uint8_t*>(storage.data()), payload.size());
  return ReadLakeTokens(bytes, lake);
}

TEST(LakeTokensTest, EmbeddingsEqualColumnTokensEmbedding) {
  const HashEmbedder& embedder = ColumnEmbedder();
  for (uint64_t seed : {1u, 4u}) {
    DataLake lake = MakeLake(seed);
    std::shared_ptr<const LakeTokens> one = LakeTokens::Build(lake, 1);
    BinaryWriter payload;
    WriteLakeTokens(*one, &payload);
    Result<std::shared_ptr<const LakeTokens>> decoded = Decoded(payload, lake);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const std::shared_ptr<const LakeTokens> variants[] = {
        one, LakeTokens::Build(lake, 4), *decoded};
    for (const std::shared_ptr<const LakeTokens>& tokens : variants) {
      ASSERT_EQ(tokens->dim(), embedder.dim());
      for (TableId t = 0; t < lake.size(); ++t) {
        const Table& table = lake.table(t);
        for (size_t c = 0; c < table.num_columns(); ++c) {
          const size_t col = tokens->FirstColumn(t) + c;
          const Embedding expected =
              embedder.EmbedValueSet(ColumnTokens(table.column(c)));
          // Bit for bit: memcmp, so -0.0 and 0.0 differ too.
          EXPECT_EQ(std::memcmp(tokens->ColumnEmbedding(col), expected.data(),
                                expected.size() * sizeof(float)),
                    0)
              << "seed " << seed << " " << table.name() << " column " << c;
          EXPECT_EQ(tokens->ColumnNorm(col),
                    EmbeddingNorm(tokens->ColumnEmbedding(col),
                                  tokens->dim()));
        }
      }
    }
  }
}

// ------------------------------------------------------------ decode

/// The decoded parts of a lake.tokens payload, re-encodable after a
/// mutation.
struct Parts {
  std::string chars;
  std::vector<uint32_t> token_offsets;
  std::vector<uint32_t> column_offsets;
  std::vector<uint32_t> ids;
  std::vector<float> embeddings;

  explicit Parts(const LakeTokens& t)
      : chars(t.chars()),
        token_offsets(t.token_offsets()),
        column_offsets(t.column_offsets()),
        ids(t.ids()),
        embeddings(t.embeddings()) {}

  /// The dictionary, token by token.
  std::vector<std::string> Dictionary() const {
    std::vector<std::string> out;
    for (size_t i = 0; i + 1 < token_offsets.size(); ++i) {
      out.push_back(chars.substr(token_offsets[i],
                                 token_offsets[i + 1] - token_offsets[i]));
    }
    return out;
  }
  void SetDictionary(const std::vector<std::string>& dict) {
    chars.clear();
    token_offsets.assign(1, 0);
    for (const std::string& tok : dict) {
      chars += tok;
      token_offsets.push_back(static_cast<uint32_t>(chars.size()));
    }
  }

  BinaryWriter Encode() const {
    BinaryWriter w;
    w.U32(2);
    w.Str(chars);
    w.Array<uint32_t>(token_offsets);
    w.Array<uint32_t>(column_offsets);
    w.Array<uint32_t>(ids);
    w.Array<float>(embeddings);
    return w;
  }
};

Status Decode(const BinaryWriter& payload, const DataLake& lake) {
  return Decoded(payload, lake).status();
}

class LakeTokensDecodeTest : public ::testing::Test {
 protected:
  LakeTokensDecodeTest() : lake_(paper::MakeDemoLake(0)) {}
  /// The lake's own tokens as parts: the well-formed control.
  Parts Valid() { return Parts(*lake_.tokens()); }
  DataLake lake_;
};

TEST_F(LakeTokensDecodeTest, WellFormedPayloadDecodes) {
  EXPECT_TRUE(Decode(Valid().Encode(), lake_).ok());
}

TEST_F(LakeTokensDecodeTest, RejectsIdPastTheDictionary) {
  Parts p = Valid();
  p.ids[0] = static_cast<uint32_t>(p.token_offsets.size() - 1);
  EXPECT_EQ(Decode(p.Encode(), lake_).code(), StatusCode::kParseError);
}

TEST_F(LakeTokensDecodeTest, RejectsDictionaryNotStrictlyAscending) {
  // The first two tokens swapped: the ids still resolve, the order breaks.
  Parts p = Valid();
  std::vector<std::string> dict = p.Dictionary();
  ASSERT_GT(dict.size(), 1u);
  std::swap(dict[0], dict[1]);
  p.SetDictionary(dict);
  EXPECT_EQ(Decode(p.Encode(), lake_).code(), StatusCode::kParseError);
  // A repeated token is not strictly ascending either.
  dict[0] = dict[1];
  p.SetDictionary(dict);
  EXPECT_EQ(Decode(p.Encode(), lake_).code(), StatusCode::kParseError);
}

TEST_F(LakeTokensDecodeTest, RejectsColumnRepeatingAnId) {
  Parts p = Valid();
  // The first column with two tokens repeats its first.
  size_t col = 0;
  while (p.column_offsets[col + 1] - p.column_offsets[col] < 2) ++col;
  p.ids[p.column_offsets[col] + 1] = p.ids[p.column_offsets[col]];
  EXPECT_EQ(Decode(p.Encode(), lake_).code(), StatusCode::kParseError);
}

TEST_F(LakeTokensDecodeTest, RejectsColumnCountOtherThanTheLakes) {
  DataLake wider = paper::MakeDemoLake(1);
  EXPECT_EQ(Decode(Valid().Encode(), wider).code(), StatusCode::kParseError);
  Parts p = Valid();
  p.column_offsets.pop_back();
  p.column_offsets.back() = static_cast<uint32_t>(p.ids.size());
  EXPECT_EQ(Decode(p.Encode(), lake_).code(), StatusCode::kParseError);
}

TEST_F(LakeTokensDecodeTest, RejectsEmbeddingMatrixOfWrongSize) {
  Parts short_one = Valid();
  short_one.embeddings.pop_back();
  EXPECT_EQ(Decode(short_one.Encode(), lake_).code(), StatusCode::kParseError);
  Parts extra_row = Valid();
  extra_row.embeddings.resize(
      extra_row.embeddings.size() + ColumnEmbedder().dim(), 0.5f);
  EXPECT_EQ(Decode(extra_row.Encode(), lake_).code(), StatusCode::kParseError);
}

TEST_F(LakeTokensDecodeTest, RejectsVersionOneSection) {
  // A version-1 writer's section: the same arrays without the matrix.
  const Parts p = Valid();
  BinaryWriter w;
  w.U32(1);
  w.Str(p.chars);
  w.Array<uint32_t>(p.token_offsets);
  w.Array<uint32_t>(p.column_offsets);
  w.Array<uint32_t>(p.ids);
  EXPECT_EQ(Decode(w, lake_).code(), StatusCode::kParseError);
}

TEST_F(LakeTokensDecodeTest, RejectsOffsetsOverrunningTheArrays) {
  Parts p = Valid();
  p.column_offsets.back() += 1;
  EXPECT_EQ(Decode(p.Encode(), lake_).code(), StatusCode::kParseError);
  Parts q = Valid();
  q.token_offsets.back() += 1;
  EXPECT_EQ(Decode(q.Encode(), lake_).code(), StatusCode::kParseError);
  Parts r = Valid();
  r.column_offsets[1] = static_cast<uint32_t>(r.ids.size() + 7);
  EXPECT_EQ(Decode(r.Encode(), lake_).code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace dialite
