/// Tests for the versioned mmap lake snapshot layer: container round-trip
/// and corruption rejection, zero-copy lake/table restore, the Dialite
/// facade's SaveSnapshot/OpenSnapshot end-to-end flow and what a snapshot
/// persists, and the committed fuzz seeds that hold real snapshots.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/dialite.h"
#include "lake/paper_fixtures.h"
#include "sketch/minhash.h"
#include "snapshot/bytes.h"
#include "snapshot/format.h"
#include "snapshot/lake_codec.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"
#include "table/column_view.h"

namespace dialite {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

void PatchU32(std::string* bytes, size_t off, uint32_t v) {
  std::memcpy(&(*bytes)[off], &v, sizeof(v));
}

/// Recomputes the header CRC after a deliberate header edit, so tests hit
/// the specific rejection path instead of the checksum catch-all.
void FixHeaderCrc(std::string* bytes) {
  PatchU32(bytes, 48, Crc32(bytes->data(), 48));
}

std::string MakeTwoSectionSnapshot() {
  SnapshotWriter w;
  BinaryWriter a;
  a.U32(7);
  a.Str("hello");
  EXPECT_TRUE(w.AddSection("alpha", std::move(a)).ok());
  EXPECT_TRUE(w.AddSection("beta", std::string("raw payload")).ok());
  Result<std::string> bytes = w.FinishToString();
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

TEST(SnapshotContainerTest, WriteReadRoundTrip) {
  std::string bytes = MakeTwoSectionSnapshot();
  Result<SnapshotReader> r = SnapshotReader::OpenOwning(bytes);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->format_version(), kSnapshotFormatVersion);
  EXPECT_EQ(r->file_size(), bytes.size());
  ASSERT_EQ(r->sections().size(), 2u);
  EXPECT_TRUE(r->HasSection("alpha"));
  EXPECT_TRUE(r->HasSection("beta"));
  EXPECT_FALSE(r->HasSection("gamma"));
  EXPECT_EQ(r->Section("gamma").status().code(), StatusCode::kNotFound);

  Result<std::span<const uint8_t>> alpha = r->Section("alpha");
  ASSERT_TRUE(alpha.ok());
  BinaryReader br(*alpha);
  uint32_t v = 0;
  ASSERT_TRUE(br.U32(&v).ok());
  EXPECT_EQ(v, 7u);
  std::string s;
  ASSERT_TRUE(br.Str(&s).ok());
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(br.AtEnd());

  Result<std::span<const uint8_t>> beta = r->Section("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(std::string(beta->begin(), beta->end()), "raw payload");
  // Section payloads start 64-byte aligned.
  for (const SnapshotSection& sec : r->sections()) {
    EXPECT_EQ(sec.offset % kSnapshotSectionAlign, 0u) << sec.name;
  }
}

TEST(SnapshotContainerTest, RewriteIsByteIdentical) {
  EXPECT_EQ(MakeTwoSectionSnapshot(), MakeTwoSectionSnapshot());
}

TEST(SnapshotContainerTest, RejectsTruncation) {
  std::string bytes = MakeTwoSectionSnapshot();
  for (size_t keep : {size_t{0}, size_t{16}, size_t{63}, size_t{64},
                      bytes.size() - 1}) {
    Result<SnapshotReader> r = SnapshotReader::OpenOwning(bytes.substr(0, keep));
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << "keep=" << keep;
  }
}

TEST(SnapshotContainerTest, RejectsBadMagic) {
  std::string bytes = MakeTwoSectionSnapshot();
  bytes[0] = 'X';
  EXPECT_EQ(SnapshotReader::OpenOwning(bytes).status().code(),
            StatusCode::kParseError);
}

TEST(SnapshotContainerTest, RejectsHeaderBitFlip) {
  std::string bytes = MakeTwoSectionSnapshot();
  bytes[20] = static_cast<char>(bytes[20] ^ 0x01);  // file-size field
  EXPECT_EQ(SnapshotReader::OpenOwning(bytes).status().code(),
            StatusCode::kParseError);
}

TEST(SnapshotContainerTest, RejectsVersionSkew) {
  std::string bytes = MakeTwoSectionSnapshot();
  PatchU32(&bytes, 8, kSnapshotFormatVersion + 41);
  FixHeaderCrc(&bytes);
  Status s = SnapshotReader::OpenOwning(bytes).status();
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST(SnapshotContainerTest, RejectsForeignEndianness) {
  std::string bytes = MakeTwoSectionSnapshot();
  PatchU32(&bytes, 12, __builtin_bswap32(kSnapshotEndianTag));
  FixHeaderCrc(&bytes);
  Status s = SnapshotReader::OpenOwning(bytes).status();
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

TEST(SnapshotContainerTest, RejectsPayloadBitFlip) {
  std::string bytes = MakeTwoSectionSnapshot();
  bytes[kSnapshotHeaderSize] =
      static_cast<char>(bytes[kSnapshotHeaderSize] ^ 0x80);
  Status s = SnapshotReader::OpenOwning(bytes).status();
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  // With payload verification off, the container opens (callers then rely
  // on payload-level validation instead).
  SnapshotReadOptions opts;
  opts.verify_section_crcs = false;
  EXPECT_TRUE(SnapshotReader::OpenOwning(bytes, opts).ok());
}

std::string SaveLakeToString(const DataLake& lake) {
  SnapshotWriter w;
  EXPECT_TRUE(WriteLake(lake, &w).ok());
  Result<std::string> bytes = w.FinishToString();
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.schema().column(c).name, b.schema().column(c).name);
    EXPECT_EQ(a.schema().column(c).type, b.schema().column(c).type);
    for (size_t r = 0; r < a.num_rows(); ++r) {
      const Value& va = a.at(r, c);
      const Value& vb = b.at(r, c);
      EXPECT_EQ(va.is_null(), vb.is_null()) << a.name() << " " << r << "," << c;
      EXPECT_EQ(va.ToCsvString(), vb.ToCsvString())
          << a.name() << " " << r << "," << c;
    }
  }
  EXPECT_EQ(a.provenance(), b.provenance());
}

TEST(LakeSnapshotTest, RoundTripPreservesEveryTable) {
  DataLake lake = paper::MakeDemoLake(8);
  std::string bytes = SaveLakeToString(lake);
  Result<SnapshotReader> reader = SnapshotReader::OpenOwning(std::move(bytes));
  ASSERT_TRUE(reader.ok());
  Result<std::unique_ptr<DataLake>> opened = ReadLake(*reader);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ((*opened)->table_names(), lake.table_names());
  for (const std::string& name : lake.table_names()) {
    ExpectTablesEqual(*lake.Get(name), *(*opened)->Get(name));
  }
}

TEST(LakeSnapshotTest, ReSaveIsByteIdentical) {
  DataLake lake = paper::MakeDemoLake(8);
  std::string bytes1 = SaveLakeToString(lake);
  Result<SnapshotReader> reader = SnapshotReader::OpenOwning(bytes1);
  ASSERT_TRUE(reader.ok());
  Result<std::unique_ptr<DataLake>> opened = ReadLake(*reader);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(SaveLakeToString(**opened), bytes1);
}

TEST(LakeSnapshotTest, BorrowedTableOutlivesLakeAndReader) {
  Table copy("empty", Schema::FromNames({"x"}));
  {
    DataLake lake = paper::MakeDemoLake(2);
    std::string bytes = SaveLakeToString(lake);
    Result<SnapshotReader> reader =
        SnapshotReader::OpenOwning(std::move(bytes));
    ASSERT_TRUE(reader.ok());
    Result<std::unique_ptr<DataLake>> opened = ReadLake(*reader);
    ASSERT_TRUE(opened.ok());
    copy = *(*opened)->Get((*opened)->table_names().front());
    // Lake and reader die here; the copy's storage anchor keeps the
    // snapshot bytes alive.
  }
  ASSERT_GT(copy.num_rows(), 0u);
  for (size_t c = 0; c < copy.num_columns(); ++c) {
    for (size_t r = 0; r < copy.num_rows(); ++r) {
      (void)copy.at(r, c).ToCsvString();  // must not touch freed memory
    }
  }
}

TEST(LakeSnapshotTest, BorrowedTableCopiesOnWrite) {
  DataLake lake = paper::MakeDemoLake(2);
  std::string bytes = SaveLakeToString(lake);
  Result<SnapshotReader> reader = SnapshotReader::OpenOwning(std::move(bytes));
  ASSERT_TRUE(reader.ok());
  Result<std::unique_ptr<DataLake>> opened = ReadLake(*reader);
  ASSERT_TRUE(opened.ok());
  const Table& borrowed = *(*opened)->Get("T2");
  const size_t rows_before = borrowed.num_rows();
  ASSERT_GT(rows_before, 0u);

  Table copy = borrowed;
  Row row;
  for (size_t c = 0; c < copy.num_columns(); ++c) {
    row.push_back(borrowed.at(0, c));  // duplicate row 0, types preserved
  }
  ASSERT_TRUE(copy.AddRow(std::move(row)).ok());
  EXPECT_EQ(copy.num_rows(), rows_before + 1);
  EXPECT_EQ(copy.at(rows_before, 0).ToCsvString(),
            borrowed.at(0, 0).ToCsvString());
  // The mmap-backed original is untouched.
  EXPECT_EQ(borrowed.num_rows(), rows_before);
  ExpectTablesEqual(*lake.Get("T2"), borrowed);
}

TEST(DialiteSnapshotTest, SaveRequiresBuiltIndexes) {
  DataLake lake = paper::MakeDemoLake(2);
  Dialite system(&lake);
  ASSERT_TRUE(system.RegisterDefaults().ok());
  EXPECT_EQ(system.SaveSnapshot(TempPath("never_written.snap")).code(),
            StatusCode::kInternal);
}

TEST(DialiteSnapshotTest, OpenRejectsMissingAndGarbageFiles) {
  EXPECT_EQ(Dialite::OpenSnapshot("/nonexistent/lake.snap").status().code(),
            StatusCode::kIoError);
  std::string path = TempPath("garbage.snap");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a snapshot", f);
    std::fclose(f);
  }
  EXPECT_EQ(Dialite::OpenSnapshot(path).status().code(),
            StatusCode::kParseError);
  std::remove(path.c_str());
}

/// Every registered algorithm answers `qa` on `a` exactly as `qb` on `b`.
void ExpectSameDiscoveries(const Dialite& a, const DiscoveryQuery& qa,
                           const Dialite& b, const DiscoveryQuery& qb) {
  auto a_hits = a.DiscoverAll(qa);
  auto b_hits = b.DiscoverAll(qb);
  ASSERT_TRUE(a_hits.ok()) << a_hits.status().ToString();
  ASSERT_TRUE(b_hits.ok()) << b_hits.status().ToString();
  ASSERT_EQ(a_hits->size(), b_hits->size());
  for (const auto& [algo, hits] : *a_hits) {
    ASSERT_TRUE(b_hits->count(algo)) << algo;
    const std::vector<DiscoveryHit>& other = (*b_hits)[algo];
    ASSERT_EQ(hits.size(), other.size()) << algo;
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].table_name, other[i].table_name) << algo;
      EXPECT_DOUBLE_EQ(hits[i].score, other[i].score) << algo;
    }
  }
}

TEST(DialiteSnapshotTest, OpenedSystemMatchesFreshBuildEverywhere) {
  DataLake lake = paper::MakeDemoLake(10);
  Dialite fresh(&lake);
  ASSERT_TRUE(fresh.RegisterDefaults().ok());
  ASSERT_TRUE(fresh.BuildIndexes().ok());

  std::string path = TempPath("demo_lake.snap");
  ASSERT_TRUE(fresh.SaveSnapshot(path).ok());
  Result<SnapshotSystem> opened = Dialite::OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  // A transient query table, and a lake-resident one: each system queries
  // with its own lake's T2, whose City column LSH Ensemble answers from
  // the ensemble's stored sketch instead of re-sketching it.
  Table query = paper::MakeT1();
  const DiscoveryQuery transient{&query, 1, 10};
  ExpectSameDiscoveries(fresh, transient, *opened->dialite, transient);
  ExpectSameDiscoveries(fresh, {lake.Get("T2"), 1, 10}, *opened->dialite,
                        {opened->lake->Get("T2"), 1, 10});
  std::remove(path.c_str());
}

TEST(DialiteSnapshotTest, SaveOpenSaveIsByteIdentical) {
  DataLake lake = paper::MakeDemoLake(6);
  Dialite fresh(&lake);
  ASSERT_TRUE(fresh.RegisterDefaults().ok());
  ASSERT_TRUE(fresh.BuildIndexes().ok());
  std::string path1 = TempPath("rt1.snap");
  std::string path2 = TempPath("rt2.snap");
  ASSERT_TRUE(fresh.SaveSnapshot(path1).ok());
  Result<SnapshotSystem> opened = Dialite::OpenSnapshot(path1);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened->dialite->SaveSnapshot(path2).ok());
  const std::string b1 = ReadFileBytes(path1);
  EXPECT_FALSE(b1.empty());
  EXPECT_EQ(b1, ReadFileBytes(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(DialiteSnapshotTest, OpensSnapshotWithLegacySketchSection) {
  // Snapshots written before the LSH Ensemble index became the only owner
  // of MinHash sketches carry a "sketch.minhash" section after the tables.
  // Readers skip it: such a file opens and answers like one without it,
  // and re-saving it drops the section.
  DataLake lake = paper::MakeDemoLake(6);
  Dialite fresh(&lake);
  ASSERT_TRUE(fresh.RegisterDefaults().ok());
  ASSERT_TRUE(fresh.BuildIndexes().ok());
  const std::string path = TempPath("current.snap");
  ASSERT_TRUE(fresh.SaveSnapshot(path).ok());

  // The legacy section: version, entry count, then per table its name,
  // (num_perm, seed), and one signature per column.
  BinaryWriter legacy;
  legacy.U32(1);
  legacy.U64(lake.size());
  for (const std::string& name : lake.table_names()) {
    const Table& t = *lake.Get(name);
    legacy.Str(name);
    legacy.U64(128);
    legacy.U64(7);
    legacy.U64(t.num_columns());
    for (size_t c = 0; c < t.num_columns(); ++c) {
      legacy.Array<uint64_t>(
          MinHash::FromTokens(ColumnTokens(t.column(c)), 128, 7).signature());
    }
  }
  Result<SnapshotReader> current = SnapshotReader::Open(path);
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_FALSE(current->HasSection("sketch.minhash"));
  SnapshotWriter w;
  bool legacy_added = false;
  for (const SnapshotSection& sec : current->sections()) {
    if (!legacy_added && sec.name.rfind(kSectionIndexPrefix, 0) == 0) {
      ASSERT_TRUE(w.AddSection("sketch.minhash", std::move(legacy)).ok());
      legacy_added = true;
    }
    Result<std::span<const uint8_t>> bytes = current->Section(sec.name);
    ASSERT_TRUE(bytes.ok());
    std::string payload(reinterpret_cast<const char*>(bytes->data()),
                        bytes->size());
    ASSERT_TRUE(w.AddSection(sec.name, std::move(payload)).ok());
  }
  ASSERT_TRUE(legacy_added);
  const std::string legacy_path = TempPath("legacy.snap");
  ASSERT_TRUE(w.Finish(legacy_path).ok());

  Result<SnapshotSystem> opened = Dialite::OpenSnapshot(legacy_path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Table query = paper::MakeT1();
  const DiscoveryQuery transient{&query, 1, 10};
  ExpectSameDiscoveries(fresh, transient, *opened->dialite, transient);
  ExpectSameDiscoveries(fresh, {lake.Get("T2"), 1, 10}, *opened->dialite,
                        {opened->lake->Get("T2"), 1, 10});

  const std::string resaved = TempPath("legacy_resaved.snap");
  ASSERT_TRUE(opened->dialite->SaveSnapshot(resaved).ok());
  EXPECT_EQ(ReadFileBytes(resaved), ReadFileBytes(path));
  std::remove(path.c_str());
  std::remove(legacy_path.c_str());
  std::remove(resaved.c_str());
}

TEST(DialiteSnapshotTest, OpenRejectsTinyFiles) {
  // Regression: a 0-byte file used to mmap as nullptr and fall through to
  // header parsing; any file shorter than the 64-byte header must fail
  // with a clear corruption error instead.
  for (size_t size : {size_t{0}, size_t{1}, kSnapshotHeaderSize - 1}) {
    std::string path = TempPath("tiny_" + std::to_string(size) + ".snap");
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      for (size_t i = 0; i < size; ++i) std::fputc('D', f);
      std::fclose(f);
    }
    Status s = Dialite::OpenSnapshot(path).status();
    EXPECT_EQ(s.code(), StatusCode::kParseError) << "size=" << size;
    EXPECT_NE(s.message().find("too small"), std::string::npos)
        << "size=" << size << ": " << s.message();
    std::remove(path.c_str());
  }
}

TEST(DialiteSnapshotTest, FailedSaveLeavesExistingSnapshotIntact) {
  DataLake lake = paper::MakeDemoLake(4);
  Dialite system(&lake);
  ASSERT_TRUE(system.RegisterDefaults().ok());
  ASSERT_TRUE(system.BuildIndexes().ok());

  std::string path = TempPath("atomic_save.snap");
  ASSERT_TRUE(system.SaveSnapshot(path).ok());

  // Sabotage the staging location: SaveSnapshot writes to "<path>.tmp"
  // first, so a directory squatting there makes open(O_CREAT) fail before
  // a single destination byte is touched. (chmod tricks don't work here —
  // CI containers run the suite as root.)
  const std::string tmp = path + ".tmp";
  ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0);
  EXPECT_FALSE(system.SaveSnapshot(path).ok());
  ASSERT_EQ(::rmdir(tmp.c_str()), 0);

  // The pre-existing snapshot still opens and serves queries.
  Result<SnapshotSystem> opened = Dialite::OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->lake->size(), lake.size());
  std::remove(path.c_str());
}

TEST(DialiteSnapshotTest, FailedRenameCleansUpTempFile) {
  DataLake lake = paper::MakeDemoLake(2);
  Dialite system(&lake);
  ASSERT_TRUE(system.RegisterDefaults().ok());
  ASSERT_TRUE(system.BuildIndexes().ok());

  // A directory at the DESTINATION lets every write into "<path>.tmp"
  // succeed and fails only the final rename — the cleanup path must then
  // remove the orphaned temp file.
  std::string path = TempPath("dest_is_dir.snap");
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);
  EXPECT_FALSE(system.SaveSnapshot(path).ok());
  struct stat st;
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0)
      << "failed save left " << path << ".tmp behind";
  ASSERT_EQ(::rmdir(path.c_str()), 0);
}

TEST(DialiteSnapshotTest, SnapshotMissingIndexSectionTriggersRebuild) {
  DataLake lake = paper::MakeDemoLake(6);
  // A lake-only snapshot (no idx.* sections) — every algorithm rebuilds.
  std::string path = TempPath("lake_only.snap");
  {
    SnapshotWriter w;
    ASSERT_TRUE(WriteLake(lake, &w).ok());
    ASSERT_TRUE(w.Finish(path).ok());
  }
  Result<SnapshotSystem> opened = Dialite::OpenSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Table query = paper::MakeT1();
  DiscoveryQuery q{&query, 1, 5};
  auto hits = opened->dialite->Discover(q, "josie");
  ASSERT_TRUE(hits.ok());
  EXPECT_FALSE(hits->empty());
  std::remove(path.c_str());
}

// A snapshot persists only what is costly to derive: the index sections of
// SANTOS, TUS and keyword, and a version-3 "lake.tokens" holding the
// dictionary and the column token ids, without the column embeddings an
// open re-sums from them. The other four indexes build at open.
TEST(DialiteSnapshotTest, PersistsOnlyWhatIsCostlyToDerive) {
  DataLake lake = paper::MakeDemoLake(6);
  Dialite fresh(&lake);
  ASSERT_TRUE(fresh.RegisterDefaults().ok());
  ASSERT_TRUE(fresh.BuildIndexes().ok());
  const std::string path = TempPath("persisted.snap");
  ASSERT_TRUE(fresh.SaveSnapshot(path).ok());

  Result<SnapshotReader> reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<std::string> indexes;
  for (const SnapshotSection& sec : reader->sections()) {
    if (sec.name.rfind(kSectionIndexPrefix, 0) == 0) {
      indexes.push_back(sec.name);
    }
  }
  EXPECT_EQ(indexes,
            (std::vector<std::string>{"idx.keyword", "idx.santos", "idx.tus"}));
  const LakeTokens& tokens = *lake.tokens();
  BinaryWriter expected;
  expected.U32(3);
  expected.Str(tokens.chars());
  expected.Array<uint32_t>(tokens.token_offsets());
  expected.Array<uint32_t>(tokens.column_offsets());
  expected.Array<uint32_t>(tokens.ids());
  Result<std::span<const uint8_t>> section =
      reader->Section(kSectionLakeTokens);
  ASSERT_TRUE(section.ok()) << section.status().ToString();
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(section->data()),
                        section->size()),
            expected.buffer());

  ObservabilityContext obs;
  ASSERT_TRUE(Dialite::OpenSnapshot(path, &obs).ok());
  EXPECT_EQ(obs.metrics().CounterValue("snapshot.indexes_loaded"), 3u);
  EXPECT_EQ(obs.metrics().CounterValue("snapshot.indexes_rebuilt"), 4u);
  std::remove(path.c_str());
}

/// The committed fuzz seed `name` without its selector byte: the snapshot
/// container the fuzz replay opens.
std::string SeedContainer(const std::string& name) {
  const std::string bytes =
      ReadFileBytes(std::string(DIALITE_SNAPSHOT_CORPUS_DIR) + "/" + name);
  return bytes.empty() ? bytes : bytes.substr(1);
}

// The fuzz replay accepts any Status, so a seed left in an older layout
// would quietly stop reaching the lake decode and the index loads. The
// seeds that hold real snapshots must open as committed; after a layout
// change, make_snapshot_seeds regenerates them.
TEST(SnapshotSeedTest, DemoFullSeedOpensWithEveryIndexSection) {
  const std::string container = SeedContainer("demo_full_verify");
  ASSERT_FALSE(container.empty());
  const std::string path = TempPath("demo_full_seed.snap");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(container.data(), 1, container.size(), f),
              container.size());
    std::fclose(f);
  }
  ObservabilityContext obs;
  Result<SnapshotSystem> opened = Dialite::OpenSnapshot(path, &obs);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(obs.metrics().CounterValue("snapshot.indexes_loaded"), 3u);
  std::remove(path.c_str());
}

TEST(SnapshotSeedTest, LakeOnlySeedOpensThroughReadLake) {
  Result<SnapshotReader> reader =
      SnapshotReader::OpenOwning(SeedContainer("lake_only_verify"));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  Result<std::unique_ptr<DataLake>> lake = ReadLake(*reader);
  ASSERT_TRUE(lake.ok()) << lake.status().ToString();
  EXPECT_GT((*lake)->size(), 0u);
}

// Every token search reads the lake's tokens, so a snapshot without the
// "lake.tokens" section does not open (there is no fallback that would
// re-tokenize the lake); the same file with the section is the control.
TEST(DialiteSnapshotTest, OpenRejectsSnapshotWithoutLakeTokens) {
  DataLake lake = paper::MakeDemoLake(2);
  Dialite fresh(&lake);
  ASSERT_TRUE(fresh.RegisterDefaults().ok());
  ASSERT_TRUE(fresh.BuildIndexes().ok());
  const std::string path = TempPath("with_tokens.snap");
  ASSERT_TRUE(fresh.SaveSnapshot(path).ok());
  ASSERT_TRUE(Dialite::OpenSnapshot(path).ok());

  Result<SnapshotReader> full = SnapshotReader::Open(path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_TRUE(full->HasSection(kSectionLakeTokens));
  SnapshotWriter w;
  for (const SnapshotSection& sec : full->sections()) {
    if (sec.name == kSectionLakeTokens) continue;
    Result<std::span<const uint8_t>> bytes = full->Section(sec.name);
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(w.AddSection(sec.name,
                             std::string(reinterpret_cast<const char*>(
                                             bytes->data()),
                                         bytes->size()))
                    .ok());
  }
  const std::string stripped = TempPath("without_tokens.snap");
  ASSERT_TRUE(w.Finish(stripped).ok());
  Result<SnapshotSystem> opened = Dialite::OpenSnapshot(stripped);
  EXPECT_EQ(opened.status().code(), StatusCode::kParseError)
      << opened.status().ToString();
  std::remove(path.c_str());
  std::remove(stripped.c_str());
}

}  // namespace
}  // namespace dialite
