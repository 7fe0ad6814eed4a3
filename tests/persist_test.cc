/// Tests for offline-index persistence: the payloads that the
/// PersistentIndex algorithms (SANTOS, TUS, keyword) write as "idx.<name>"
/// snapshot sections, and the "lake.tokens" payload that JOSIE's index is
/// (the snapshot container itself is covered in snapshot_test.cc).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "discovery/josie.h"
#include "discovery/keyword_search.h"
#include "discovery/santos.h"
#include "discovery/tus.h"
#include "lake/paper_fixtures.h"
#include "snapshot/bytes.h"
#include "snapshot/lake_codec.h"

namespace dialite {
namespace {

/// Feeds `payload` to `index->LoadPayload` from 8-byte-aligned storage, as
/// a mapped snapshot section would present it.
Status LoadCrafted(PersistentIndex* index, const BinaryWriter& payload,
                   const DataLake& lake) {
  std::vector<uint64_t> storage((payload.size() + 7) / 8);
  std::memcpy(storage.data(), payload.buffer().data(), payload.size());
  BinaryReader r(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(storage.data()), payload.size()));
  return index->LoadPayload(&r, lake);
}

/// A keyword payload with vocabulary `terms` (document frequency 1 each)
/// and `copies` documents, each lake table T2 holding term id `id`.
BinaryWriter KeywordPayload(const std::vector<std::string>& terms,
                            uint32_t id, size_t copies = 1) {
  BinaryWriter w;
  w.Str("keyword");
  w.U32(1);
  w.U64(1);
  w.U64(terms.size());
  for (const std::string& t : terms) {
    w.Str(t);
    w.U64(1);
  }
  w.U64(copies);
  for (size_t i = 0; i < copies; ++i) {
    w.Str("T2");
    w.U64(1);
    w.U32(id);
    w.F64(1.0);
  }
  return w;
}

/// A TUS payload listing lake table T2 (3 columns) once per entry of
/// `widths`, with that many columns; each column has no KB types.
BinaryWriter TusPayload(const std::vector<uint64_t>& widths) {
  BinaryWriter w;
  w.Str("tus");
  w.U32(3);
  w.U64(widths.size());
  for (uint64_t ncols : widths) {
    w.Str("T2");
    w.U64(ncols);
    for (uint64_t c = 0; c < ncols; ++c) w.U64(0);
  }
  return w;
}

/// A SANTOS payload listing T2 `copies` times, each with one column typed
/// "city" and no relations.
BinaryWriter SantosPayload(size_t copies) {
  BinaryWriter w;
  w.Str("santos");
  w.U32(1);
  w.U64(copies);
  for (size_t i = 0; i < copies; ++i) {
    w.Str("T2");
    w.U64(1);
    w.U64(1);
    w.Str("city");
    w.F64(1.0);
    w.U64(0);  // relations
    w.U64(0);  // relations anchored at column 0
  }
  return w;
}

/// `payload` copied into 8-byte-aligned storage, as a mapped snapshot
/// section presents it; `storage` owns the bytes.
std::span<const uint8_t> Aligned(const BinaryWriter& payload,
                                 std::vector<uint64_t>* storage) {
  storage->assign((payload.size() + 7) / 8, 0);
  std::memcpy(storage->data(), payload.buffer().data(), payload.size());
  return std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(storage->data()), payload.size());
}

// JOSIE persists no section of its own: its index is the lake's tokens
// (the snapshot's "lake.tokens") plus per-token counts it derives on
// build. A JOSIE over a lake whose tokens were saved and decoded answers
// exactly like the original.
TEST(JosiePersistTest, SaveLoadGivesIdenticalResults) {
  DataLake lake = paper::MakeDemoLake(12);
  JosieSearch original;
  ASSERT_TRUE(original.BuildIndex(lake).ok());
  BinaryWriter saved;
  WriteLakeTokens(*lake.tokens(), &saved);

  DataLake reopened = paper::MakeDemoLake(12);
  std::vector<uint64_t> storage;
  Result<std::shared_ptr<const LakeTokens>> tokens =
      ReadLakeTokens(Aligned(saved, &storage), reopened);
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  reopened.InstallTokens(*tokens);
  JosieSearch loaded;
  ASSERT_TRUE(loaded.BuildIndex(reopened).ok());
  Table query = paper::MakeT1();
  DiscoveryQuery q{&query, 1, 10};
  auto h1 = original.Search(q);
  auto h2 = loaded.Search(q);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  ASSERT_FALSE(h1->empty());
  EXPECT_EQ(*h2, *h1);
}

TEST(JosiePersistTest, SaveLoadSaveIsByteIdentical) {
  DataLake lake = paper::MakeDemoLake(12);
  BinaryWriter first;
  WriteLakeTokens(*lake.tokens(), &first);
  std::vector<uint64_t> storage;
  Result<std::shared_ptr<const LakeTokens>> loaded =
      ReadLakeTokens(Aligned(first, &storage), lake);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  BinaryWriter second;
  WriteLakeTokens(**loaded, &second);
  EXPECT_EQ(second.buffer(), first.buffer());
}

/// `index`'s payload.
BinaryWriter Saved(const PersistentIndex& index) {
  BinaryWriter w;
  EXPECT_TRUE(index.SavePayload(&w).ok());
  return w;
}

TEST(SantosPersistTest, SaveLoadGivesIdenticalResults) {
  DataLake lake = paper::MakeDemoLake(12);
  SantosSearch original;
  ASSERT_TRUE(original.BuildIndex(lake).ok());
  SantosSearch loaded;
  ASSERT_TRUE(LoadCrafted(&loaded, Saved(original), lake).ok());
  Table query = paper::MakeT1();
  DiscoveryQuery q{&query, 1, 10};
  auto h1 = original.Search(q);
  auto h2 = loaded.Search(q);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok()) << h2.status().ToString();
  ASSERT_EQ(h1->size(), h2->size());
  for (size_t i = 0; i < h1->size(); ++i) {
    EXPECT_EQ((*h1)[i].table_name, (*h2)[i].table_name);
    // Confidences round-trip as exact f64 bits, so scores match exactly.
    EXPECT_DOUBLE_EQ((*h1)[i].score, (*h2)[i].score);
  }
}

TEST(SantosPersistTest, SaveLoadSaveIsByteIdentical) {
  DataLake lake = paper::MakeDemoLake(12);
  SantosSearch original;
  ASSERT_TRUE(original.BuildIndex(lake).ok());
  const BinaryWriter first = Saved(original);
  SantosSearch loaded;
  ASSERT_TRUE(LoadCrafted(&loaded, first, lake).ok());
  EXPECT_EQ(Saved(loaded).buffer(), first.buffer());
}

TEST(SantosPersistTest, LoadedIndexStillRanksT2First) {
  DataLake lake = paper::MakeDemoLake(12);
  SantosSearch original;
  ASSERT_TRUE(original.BuildIndex(lake).ok());
  SantosSearch loaded;
  ASSERT_TRUE(LoadCrafted(&loaded, Saved(original), lake).ok());
  Table query = paper::MakeT1();
  DiscoveryQuery q{&query, 1, 5};
  auto hits = loaded.Search(q);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits->empty());
  EXPECT_EQ((*hits)[0].table_name, "T2");
}

TEST(SantosPersistTest, LoadRejectsWrongAlgorithmPayload) {
  DataLake lake = paper::MakeDemoLake(0);
  KeywordSearch keyword;
  ASSERT_TRUE(keyword.BuildIndex(lake).ok());
  SantosSearch loaded;
  EXPECT_EQ(LoadCrafted(&loaded, Saved(keyword), lake).code(),
            StatusCode::kParseError);
}

// A payload that fails to load leaves the built index answering as before,
// for each algorithm that keeps a payload: keyword given a repeated term,
// TUS a column-count mismatch, SANTOS a repeated table.
TEST(PersistentIndexTest, FailedLoadKeepsTheIndex) {
  DataLake lake = paper::MakeDemoLake(0);
  const Table query = paper::MakeT1();
  const DiscoveryQuery q{&query, 1, 5};
  KeywordSearch keyword;
  TusSearch tus;
  SantosSearch santos;
  struct Case {
    DiscoveryAlgorithm* algo;
    PersistentIndex* index;
    BinaryWriter bad;
  };
  Case cases[] = {{&keyword, &keyword, KeywordPayload({"x", "x"}, 1)},
                  {&tus, &tus, TusPayload({1})},
                  {&santos, &santos, SantosPayload(2)}};
  for (Case& c : cases) {
    ASSERT_TRUE(c.algo->BuildIndex(lake).ok()) << c.algo->name();
    auto before = c.algo->Search(q);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    ASSERT_FALSE(before->empty()) << c.algo->name();
    EXPECT_EQ(LoadCrafted(c.index, c.bad, lake).code(),
              StatusCode::kParseError)
        << c.algo->name();
    auto after = c.algo->Search(q);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(*after, *before) << c.algo->name();
  }
}

// A vocabulary that repeats a term must fail to load: the postings
// derived on load hold one list per distinct term, while a document entry
// may name any id below the term count. {"x", "y"} is the control.
TEST(KeywordPersistTest, LoadRejectsRepeatedTerm) {
  DataLake lake = paper::MakeDemoLake(0);
  KeywordSearch keyword;
  ASSERT_TRUE(LoadCrafted(&keyword, KeywordPayload({"x", "y"}, 1), lake).ok());
  auto hits = keyword.SearchKeywords("y", 5);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].table_name, "T2");
  EXPECT_EQ(LoadCrafted(&keyword, KeywordPayload({"x", "x"}, 1), lake).code(),
            StatusCode::kParseError);
}

// Indexes give each lake table one slot, so a payload that lists a table
// twice must fail to load: a search would rank the table twice. One copy
// is the control.
TEST(KeywordPersistTest, LoadRejectsRepeatedTable) {
  DataLake lake = paper::MakeDemoLake(0);
  KeywordSearch keyword;
  ASSERT_TRUE(LoadCrafted(&keyword, KeywordPayload({"x", "y"}, 1), lake).ok());
  EXPECT_EQ(
      LoadCrafted(&keyword, KeywordPayload({"x", "y"}, 1, 2), lake).code(),
      StatusCode::kParseError);
}

TEST(TusPersistTest, LoadRejectsRepeatedTable) {
  DataLake lake = paper::MakeDemoLake(0);
  TusSearch tus;
  ASSERT_TRUE(LoadCrafted(&tus, TusPayload({3}), lake).ok());
  Table query("q", Schema::FromNames({"City"}));
  ASSERT_TRUE(query.AddRow({Value::String("toronto")}).ok());
  auto hits = tus.Search(DiscoveryQuery{&query, 0, 5});
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].table_name, "T2");
  EXPECT_EQ(LoadCrafted(&tus, TusPayload({3, 3}), lake).code(),
            StatusCode::kParseError);
}

// TUS column c of a table is lake column c, whose token set the lake's
// tokens hold, so a payload must give each table the lake's column count.
TEST(TusPersistTest, LoadRejectsColumnCountMismatch) {
  DataLake lake = paper::MakeDemoLake(0);
  TusSearch tus;
  ASSERT_TRUE(LoadCrafted(&tus, TusPayload({3}), lake).ok());
  EXPECT_EQ(LoadCrafted(&tus, TusPayload({1}), lake).code(),
            StatusCode::kParseError);
  EXPECT_EQ(LoadCrafted(&tus, TusPayload({4}), lake).code(),
            StatusCode::kParseError);
}

TEST(SantosPersistTest, LoadRejectsRepeatedTable) {
  DataLake lake = paper::MakeDemoLake(0);
  SantosSearch santos;
  ASSERT_TRUE(LoadCrafted(&santos, SantosPayload(1), lake).ok());
  EXPECT_EQ(LoadCrafted(&santos, SantosPayload(2), lake).code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace dialite
