/// Tests for LakeTokens: the dictionary, column token sets, column
/// embeddings and token vectors every token search and embedding reader
/// shares, their once-per-lake build under concurrency, the AddTable reset,
/// the "lake.tokens" snapshot decode (and what it derives: the embeddings,
/// and LSH Ensemble's sketches), and the query and body columns that TUS,
/// Starmie and ALITE sum from the token vectors.

#include "lake/lake_tokens.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "align/alite_matcher.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dialite.h"
#include "discovery/josie.h"
#include "discovery/lsh_ensemble_search.h"
#include "discovery/starmie.h"
#include "discovery/tus.h"
#include "kb/embedding.h"
#include "lake/data_lake.h"
#include "lake/lake_generator.h"
#include "lake/paper_fixtures.h"
#include "obs/observability.h"
#include "sketch/minhash.h"
#include "snapshot/bytes.h"
#include "snapshot/lake_codec.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"

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
  // The algorithms built concurrently; the five that keep the tokens
  // (JOSIE, COCOA, LSH Ensemble, TUS, Starmie) all hold the lake's one
  // copy, next to the lake itself and this test's reference.
  std::shared_ptr<const LakeTokens> tokens = lake.tokens();
  EXPECT_EQ(tokens.use_count(), 7);
  ASSERT_TRUE(dialite.BuildIndexes().ok());
  EXPECT_EQ(lake.tokens().get(), tokens.get());
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

/// The bytes of every column embedding of `tokens`, row after row: equal
/// strings mean bitwise-equal rows (-0.0 and 0.0 differ).
std::string RowBytes(const LakeTokens& tokens) {
  std::string out;
  for (size_t col = 0; col < tokens.num_columns(); ++col) {
    out.append(reinterpret_cast<const char*>(tokens.ColumnEmbedding(col)),
               tokens.dim() * sizeof(float));
  }
  return out;
}

TEST(LakeTokensTest, BuildIsIdenticalForEveryThreadCount) {
  DataLake lake = MakeLake(4);
  std::shared_ptr<const LakeTokens> single = LakeTokens::Build(lake, 1);
  BinaryWriter reference;
  WriteLakeTokens(*single, &reference);
  const std::string rows = RowBytes(*single);
  ASSERT_FALSE(rows.empty());
  for (size_t threads : {2u, 8u, 0u}) {
    std::shared_ptr<const LakeTokens> built = LakeTokens::Build(lake, threads);
    // The payload holds every persisted array; the rows are derived.
    BinaryWriter w;
    WriteLakeTokens(*built, &w);
    EXPECT_EQ(w.buffer(), reference.buffer()) << "threads=" << threads;
    EXPECT_EQ(RowBytes(*built), rows) << "threads=" << threads;
  }
  // A decode derives the same rows.
  Result<std::shared_ptr<const LakeTokens>> decoded = Decoded(reference, lake);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(RowBytes(**decoded), rows);
}

/// The lake's tokens built at 1 and 4 threads and decoded from a payload.
std::vector<std::shared_ptr<const LakeTokens>> BuiltAndDecoded(
    const DataLake& lake) {
  std::shared_ptr<const LakeTokens> one = LakeTokens::Build(lake, 1);
  BinaryWriter payload;
  WriteLakeTokens(*one, &payload);
  Result<std::shared_ptr<const LakeTokens>> decoded = Decoded(payload, lake);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  std::vector<std::shared_ptr<const LakeTokens>> out = {
      one, LakeTokens::Build(lake, 4)};
  if (decoded.ok()) out.push_back(*decoded);
  return out;
}

TEST(LakeTokensTest, EmbeddingsEqualColumnTokensEmbedding) {
  const HashEmbedder& embedder = ColumnEmbedder();
  for (uint64_t seed : {1u, 4u}) {
    DataLake lake = MakeLake(seed);
    const std::vector<std::shared_ptr<const LakeTokens>> variants =
        BuiltAndDecoded(lake);
    ASSERT_EQ(variants.size(), 3u);
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

TEST(LakeTokensTest, TokenVectorsEqualEmbedValue) {
  const HashEmbedder& embedder = ColumnEmbedder();
  for (uint64_t seed : {1u, 4u}) {
    DataLake lake = MakeLake(seed);
    for (const std::shared_ptr<const LakeTokens>& tokens :
         BuiltAndDecoded(lake)) {
      ASSERT_GT(tokens->num_tokens(), 0u);
      for (uint32_t id = 0; id < tokens->num_tokens(); ++id) {
        const Embedding expected = embedder.EmbedValue(tokens->token(id));
        // Bit for bit: memcmp, so -0.0 and 0.0 differ too.
        EXPECT_EQ(std::memcmp(tokens->TokenVector(id), expected.data(),
                              expected.size() * sizeof(float)),
                  0)
            << "seed " << seed << " token " << tokens->token(id);
      }
    }
  }
}

TEST(LakeTokensTest, SortedColumnIdsAreTheColumnIdsAscending) {
  DataLake lake = MakeLake(4);
  for (const std::shared_ptr<const LakeTokens>& tokens :
       BuiltAndDecoded(lake)) {
    for (size_t col = 0; col < tokens->num_columns(); ++col) {
      std::vector<uint32_t> expected(
          tokens->ColumnIds(col),
          tokens->ColumnIds(col) + tokens->ColumnSize(col));
      std::sort(expected.begin(), expected.end());
      const std::vector<uint32_t> got(
          tokens->SortedColumnIds(col),
          tokens->SortedColumnIds(col) + tokens->ColumnSize(col));
      EXPECT_EQ(got, expected) << "column " << col;
    }
  }
}

/// Checks that `lsh`, built over the lake of `tokens`, indexes every
/// join-indexed column in lake order, each with the MinHash signature, set
/// size and histogram of its strings.
void ExpectLshSketchesOfColumnStrings(const LshEnsembleSearch& lsh,
                                      const LakeTokens& tokens,
                                      const std::string& what) {
  const LshEnsembleSearch::Params p;
  size_t id = 0;
  for (size_t col = 0; col < tokens.num_columns(); ++col) {
    if (!tokens.JoinIndexed(col)) continue;
    ASSERT_LT(id, lsh.columns().size()) << what;
    const LakeColumn& indexed = lsh.columns()[id];
    ASSERT_EQ(tokens.FirstColumn(indexed.table) + indexed.column, col)
        << what;
    const std::vector<std::string> strings = tokens.ColumnStrings(col);
    EXPECT_EQ(lsh.ensemble().sketch(id).signature(),
              MinHash::FromTokens(strings, p.num_perm, p.seed).signature())
        << what << " column " << col;
    EXPECT_EQ(lsh.ensemble().set_size(id), strings.size())
        << what << " column " << col;
    EXPECT_EQ(lsh.Histogram(id), lsh.TokenHistogram(strings))
        << what << " column " << col;
    ++id;
  }
  EXPECT_EQ(id, lsh.columns().size()) << what;
}

// LSH Ensemble sketches columns from their token ids, at build and at
// open; the sketches equal those of the columns' strings.
TEST(LakeTokensTest, LshSketchesEqualColumnStringSketches) {
  for (uint64_t seed : {1u, 4u}) {
    for (size_t threads : {1u, 4u}) {
      DataLake lake = MakeLake(seed);
      LshEnsembleSearch lsh;
      lsh.set_num_threads(threads);
      ASSERT_TRUE(lsh.BuildIndex(lake).ok());
      ExpectLshSketchesOfColumnStrings(
          lsh, *lake.tokens(),
          "seed " + std::to_string(seed) + " threads " +
              std::to_string(threads));
    }
    // Saved and opened: the lake and its tokens decoded from a snapshot.
    SnapshotWriter w;
    ASSERT_TRUE(WriteLake(MakeLake(seed), &w).ok());
    Result<std::string> bytes = w.FinishToString();
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    Result<SnapshotReader> reader =
        SnapshotReader::OpenOwning(std::move(*bytes));
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    Result<std::unique_ptr<DataLake>> opened = ReadLake(*reader);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    LshEnsembleSearch lsh;
    ASSERT_TRUE(lsh.BuildIndex(**opened).ok());
    ExpectLshSketchesOfColumnStrings(lsh, *(*opened)->tokens(),
                                     "seed " + std::to_string(seed) +
                                         " opened");
  }
}

/// A servebench-shaped query of `t`: a seeded random sample of at least
/// half its rows, in row order, every column kept.
Table SampledRows(const Table& t, Rng* rng) {
  const size_t keep = static_cast<size_t>(
      rng->NextInt(static_cast<int64_t>((t.num_rows() + 1) / 2),
                   static_cast<int64_t>(t.num_rows())));
  std::vector<size_t> rows = rng->SampleIndices(t.num_rows(), keep);
  std::sort(rows.begin(), rows.end());
  Table out("query", t.schema());
  for (size_t r : rows) EXPECT_TRUE(out.AddRow(t.row(r)).ok());
  return out;
}

/// `t` under `name` with every non-null cell of the columns `perturb`
/// selects replaced by the string of its CSV text and "~": lake tokens
/// never end in "~", so those cells' tokens all miss the dictionary.
template <typename Pred>
Table Perturbed(const Table& t, const std::string& name, Pred perturb) {
  std::vector<ColumnDef> defs;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    defs.push_back(t.schema().column(c));
    if (perturb(c)) defs.back().type = ValueType::kString;
  }
  Table out(name, Schema(std::move(defs)));
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Row row = t.row(r);
    for (size_t c = 0; c < row.size(); ++c) {
      if (perturb(c) && !row[c].is_null()) {
        row[c] = Value::String(row[c].ToCsvString() + "~");
      }
    }
    EXPECT_TRUE(out.AddRow(std::move(row)).ok());
  }
  return out;
}

Table AllPerturbed(const Table& t, const std::string& name) {
  return Perturbed(t, name, [](size_t) { return true; });
}

/// Checks EmbedColumn against EmbedValueSet, bit for bit, on `tokens`, and
/// that it reports `misses` tokens absent and their ids as kNoToken.
void ExpectTokenPathEqualsEmbedValueSet(const LakeTokens& lake_tokens,
                                        const std::vector<std::string>& tokens,
                                        size_t misses,
                                        const std::string& what) {
  std::vector<uint32_t> ids;
  uint64_t embedded = 0;
  const Embedding got = lake_tokens.EmbedColumn(tokens, &ids, &embedded);
  const Embedding expected = ColumnEmbedder().EmbedValueSet(tokens);
  ASSERT_EQ(got.size(), expected.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                        expected.size() * sizeof(float)),
            0)
      << what;
  EXPECT_EQ(embedded, misses) << what;
  ASSERT_EQ(ids.size(), tokens.size()) << what;
  for (size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(ids[i], lake_tokens.Find(tokens[i])) << what << " " << tokens[i];
  }
}

TEST(LakeTokensTest, EmbedColumnEqualsEmbedValueSet) {
  for (uint64_t seed : {1u, 4u}) {
    DataLake lake = MakeLake(seed);
    std::shared_ptr<const LakeTokens> tokens = lake.tokens();
    Rng rng(seed);
    for (TableId t = 0; t < lake.size(); ++t) {
      const Table& table = lake.table(t);
      const Table sample = SampledRows(table, &rng);
      // Every other column perturbed: some tokens hit, some miss.
      const Table half = Perturbed(table, "half",
                                   [](size_t c) { return c % 2 == 1; });
      const Table all = AllPerturbed(table, "all");
      for (size_t c = 0; c < table.num_columns(); ++c) {
        const std::string what = "seed " + std::to_string(seed) + " " +
                                 table.name() + " column " +
                                 std::to_string(c);
        ExpectTokenPathEqualsEmbedValueSet(
            *tokens, ColumnTokens(table.column(c)), 0, what + " lake");
        ExpectTokenPathEqualsEmbedValueSet(
            *tokens, ColumnTokens(sample.column(c)), 0, what + " sampled");
        const std::vector<std::string> missed = ColumnTokens(all.column(c));
        ExpectTokenPathEqualsEmbedValueSet(*tokens, missed, missed.size(),
                                           what + " all absent");
        const std::vector<std::string> half_tokens =
            ColumnTokens(half.column(c));
        ExpectTokenPathEqualsEmbedValueSet(
            *tokens, half_tokens, c % 2 == 1 ? half_tokens.size() : 0,
            what + " half absent");
      }
      // One column of hits and misses interleaved.
      if (table.num_columns() > 0) {
        std::vector<std::string> mixed;
        for (const std::string& tok : ColumnTokens(table.column(0))) {
          mixed.push_back(tok);
          mixed.push_back(tok + "~");
        }
        ExpectTokenPathEqualsEmbedValueSet(*tokens, mixed, mixed.size() / 2,
                                           table.name() + " interleaved");
      }
    }
    ExpectTokenPathEqualsEmbedValueSet(*tokens, {}, 0, "empty list");
  }
}

/// FNV-1a 64 of `text`.
uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ull;
  }
  return h;
}

/// A query table and its intent column.
struct MissQuery {
  Table table;
  size_t intent = 0;
};

/// Queries whose tokens all miss the lake's dictionary: every third lake
/// table, every cell perturbed, queried on its first text column.
std::vector<MissQuery> MissQueries(const DataLake& lake) {
  std::vector<MissQuery> out;
  for (TableId t = 0; t < lake.size(); t += 3) {
    const Table& source = lake.table(t);
    size_t intent = 0;
    for (size_t c = source.num_columns(); c-- > 0;) {
      if (source.schema().column(c).type == ValueType::kString) intent = c;
    }
    out.push_back({AllPerturbed(source, "query"), intent});
  }
  return out;
}

/// The FNV-1a of `algo`'s ranked hits (k = 10) for every query: names and
/// %.17g scores, in rank order. Adds the number of hits to `*num_hits`.
uint64_t MissDigest(const DiscoveryAlgorithm& algo,
                    const std::vector<MissQuery>& queries, size_t* num_hits) {
  std::string text;
  for (size_t i = 0; i < queries.size(); ++i) {
    const DiscoveryQuery q{&queries[i].table, queries[i].intent, 10};
    auto hits = algo.Search(q);
    EXPECT_TRUE(hits.ok()) << algo.name() << ": " << hits.status().ToString();
    if (!hits.ok()) continue;
    *num_hits += hits->size();
    text += "#" + std::to_string(i);
    for (const DiscoveryHit& h : *hits) {
      char score[32];
      std::snprintf(score, sizeof(score), "%.17g", h.score);
      text += " " + h.table_name + "=" + score;
    }
  }
  return Fnv1a(text);
}

// TUS and Starmie answers to queries that share no token with the lake, so
// every query value is embedded anew; the digests were recorded
// before query columns were summed from the lake's token vectors.
TEST(PinnedMissAnswersTest, AllMissQueriesKeepRecordedDigests) {
  std::vector<std::pair<std::string, uint64_t>> got;
  for (uint64_t seed : {1u, 4u}) {
    DataLake lake = MakeLake(seed);
    const std::vector<MissQuery> queries = MissQueries(lake);
    std::shared_ptr<const LakeTokens> tokens = lake.tokens();
    size_t values = 0;
    for (const MissQuery& q : queries) {
      for (const std::vector<std::string>& col : TableTokens(q.table)) {
        for (const std::string& tok : col) {
          ASSERT_EQ(tokens->Find(tok), kNoToken) << tok;
        }
        values += col.size();
      }
    }
    ObservabilityContext obs;
    TusSearch tus;
    StarmieSearch starmie;
    for (DiscoveryAlgorithm* algo :
         std::initializer_list<DiscoveryAlgorithm*>{&tus, &starmie}) {
      ASSERT_TRUE(algo->BuildIndex(lake).ok());
      algo->set_observability(&obs);
      size_t num_hits = 0;
      got.emplace_back("seed " + std::to_string(seed) + " " + algo->name(),
                       MissDigest(*algo, queries, &num_hits));
      // Perturbed values still embed near their originals: most queries
      // find unionable tables.
      EXPECT_GT(num_hits, 5 * queries.size()) << algo->name();
      // Each search embeds every query value once.
      EXPECT_EQ(obs.metrics().CounterValue("discover." + algo->name() +
                                           ".work.embedded_values"),
                values)
          << algo->name();
    }
  }
  const std::vector<std::pair<std::string, uint64_t>> recorded = {
      {"seed 1 tus", 0x69ff78602ce733b2ull},
      {"seed 1 starmie", 0xb19f005b92431f05ull},
      {"seed 4 tus", 0xdded6de35cc0099aull},
      {"seed 4 starmie", 0x9521b7ce4caa276bull},
  };
  EXPECT_EQ(got, recorded);
}

TEST(LakeTokensTest, AlignWithoutALakeTableLeavesTokensUnbuilt) {
  DataLake lake = MakeLake(1);
  AliteMatcher matcher;
  matcher.set_lake(&lake);
  ObservabilityContext obs;
  matcher.set_observability(&obs);
  // Copies of lake tables are not lake tables: the set holds none.
  const Table a = AllPerturbed(lake.table(0), "a");
  const Table b = AllPerturbed(lake.table(1), "b");
  ASSERT_TRUE(matcher.Align({&a, &b}).ok());
  EXPECT_FALSE(lake.tokens_built());
  // Without a lake table there is no dictionary: every value is embedded.
  size_t values = 0;
  for (const Table* t : {&a, &b}) {
    for (const std::vector<std::string>& col : TableTokens(*t)) {
      values += col.size();
    }
  }
  EXPECT_EQ(obs.metrics().CounterValue("align.work.embedded_values"), values);
  // One lake table in the set takes the lake's tokens.
  ASSERT_TRUE(matcher.Align({&a, &lake.table(1)}).ok());
  EXPECT_TRUE(lake.tokens_built());
}

// ------------------------------------------------------------ decode

/// The decoded parts of a lake.tokens payload, re-encodable after a
/// mutation.
struct Parts {
  std::string chars;
  std::vector<uint32_t> token_offsets;
  std::vector<uint32_t> column_offsets;
  std::vector<uint32_t> ids;

  explicit Parts(const LakeTokens& t)
      : chars(t.chars()),
        token_offsets(t.token_offsets()),
        column_offsets(t.column_offsets()),
        ids(t.ids()) {}

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

  /// The payload under section version `version`: 3, the current one,
  /// by default.
  BinaryWriter Encode(uint32_t version = 3) const {
    BinaryWriter w;
    w.U32(version);
    w.Str(chars);
    w.Array<uint32_t>(token_offsets);
    w.Array<uint32_t>(column_offsets);
    w.Array<uint32_t>(ids);
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

TEST_F(LakeTokensDecodeTest, RejectsVersionTwoSection) {
  // A version-2 writer's section: the same arrays, then the column
  // embedding matrix that version 3 derives instead.
  const Parts p = Valid();
  BinaryWriter w = p.Encode(2);
  const std::vector<float> matrix(
      (p.column_offsets.size() - 1) * ColumnEmbedder().dim(), 0.5f);
  w.Array<float>(matrix);
  EXPECT_EQ(Decode(w, lake_).code(), StatusCode::kParseError);
  // Version 3 carries no matrix: one left behind is trailing bytes.
  BinaryWriter trailing = p.Encode();
  trailing.Array<float>(matrix);
  EXPECT_EQ(Decode(trailing, lake_).code(), StatusCode::kParseError);
}

TEST_F(LakeTokensDecodeTest, RejectsVersionOneSection) {
  // A version-1 writer's section held version 3's arrays.
  EXPECT_EQ(Decode(Valid().Encode(1), lake_).code(), StatusCode::kParseError);
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
