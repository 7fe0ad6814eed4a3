// libFuzzer harness: SnapshotReader over arbitrary bytes. The container
// open path (magic, version, endianness, bounds, section table, CRCs), the
// lake decode (tables and the "lake.tokens" section) and the index loads
// behind it must reject any mutation with a clean Status — never crash,
// over-read, or hand out out-of-bounds spans.
// The sanitizer (ASan under clang) turns memory bugs into aborts; explicit
// checks below turn contract violations into aborts.
//
// On a lake that decodes, every "idx.<name>" section also goes through its
// stock algorithm's LoadPayload, and an index that loads answers one
// Search for a query cut from the decoded lake: a payload that loads must
// be safe to search. (Only keyword, SANTOS and TUS persist a section;
// JOSIE, COCOA, Starmie and LSH Ensemble build from the decoded lake
// tokens.)
//
// The demo_full_* and lake_only_* seeds come from make_snapshot_seeds
// (built with the harnesses): make_snapshot_seeds tools/fuzz/corpus/snapshot
// Regenerate them whenever a section's layout changes: snapshot_test checks
// that the committed demo_full_verify and lake_only_verify still open.
//
// Input layout: byte 0 selects SnapshotReadOptions (bit0 = skip section
// CRC verification — the deferred-verification mode must be exactly as
// memory-safe as the checked one); the rest is the container bytes. Both
// OpenOwning and OpenBorrowing run, so the anchored and anchorless
// lifetimes are each exercised.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>

#include "discovery/keyword_search.h"
#include "discovery/santos.h"
#include "discovery/tus.h"
#include "lake/data_lake.h"
#include "snapshot/bytes.h"
#include "snapshot/format.h"
#include "snapshot/lake_codec.h"
#include "snapshot/snapshot_reader.h"

namespace {

using dialite::BinaryReader;
using dialite::DataLake;
using dialite::DiscoveryAlgorithm;
using dialite::DiscoveryQuery;
using dialite::PersistentIndex;
using dialite::ReadLake;
using dialite::Result;
using dialite::SnapshotReader;
using dialite::SnapshotReadOptions;
using dialite::SnapshotSection;
using dialite::Table;

/// The stock algorithm whose index a snapshot stores as "idx.<name>", or
/// null for any other name.
std::unique_ptr<DiscoveryAlgorithm> StockAlgorithm(const std::string& name) {
  if (name == "keyword") return std::make_unique<dialite::KeywordSearch>();
  if (name == "santos") return std::make_unique<dialite::SantosSearch>();
  if (name == "tus") return std::make_unique<dialite::TusSearch>();
  return nullptr;
}

/// The first rows of the lake's first table that has columns, as a query
/// table named apart from every lake table; null for a lake without one.
std::unique_ptr<Table> CutQuery(const DataLake& lake) {
  for (const Table* t : lake.tables()) {
    if (t->num_columns() == 0) continue;
    auto query = std::make_unique<Table>("fuzz_query", t->schema());
    for (size_t r = 0; r < std::min<size_t>(t->num_rows(), 16); ++r) {
      dialite::Row row;
      for (size_t c = 0; c < t->num_columns(); ++c) row.push_back(t->at(r, c));
      if (!query->AddRow(std::move(row)).ok()) return nullptr;
    }
    return query;
  }
  return nullptr;
}

/// Loads every index section of `reader` over `lake` through its stock
/// algorithm; each index that loads answers one search (any Status is
/// fine, a crash is not).
void ExerciseIndexes(const SnapshotReader& reader, const DataLake& lake) {
  const std::string prefix = dialite::kSectionIndexPrefix;
  const std::unique_ptr<Table> query = CutQuery(lake);
  for (const SnapshotSection& s : reader.sections()) {
    if (s.name.compare(0, prefix.size(), prefix) != 0) continue;
    std::unique_ptr<DiscoveryAlgorithm> algo =
        StockAlgorithm(s.name.substr(prefix.size()));
    if (algo == nullptr) continue;
    Result<std::span<const uint8_t>> payload = reader.Section(s.name);
    if (!payload.ok()) continue;
    BinaryReader r(*payload);
    auto* index = dynamic_cast<PersistentIndex*>(algo.get());
    if (!index->LoadPayload(&r, lake).ok() || query == nullptr) continue;
    (void)algo->Search(DiscoveryQuery{query.get(), 0, 5});
  }
}

void Exercise(const SnapshotReader& reader, size_t input_size) {
  // Every advertised section must be in bounds and servable.
  for (const SnapshotSection& s : reader.sections()) {
    if (s.offset + s.length > input_size) {
      std::fprintf(stderr, "fuzz_snapshot: section '%s' out of bounds\n",
                   s.name.c_str());
      std::abort();
    }
    Result<std::span<const uint8_t>> payload = reader.Section(s.name);
    if (!payload.ok()) {
      std::fprintf(stderr, "fuzz_snapshot: listed section '%s' not served\n",
                   s.name.c_str());
      std::abort();
    }
    // Touch first/last byte: ASan flags any bad span.
    if (!payload->empty()) {
      volatile uint8_t sink = payload->front();
      sink = payload->back();
      (void)sink;
    }
  }
  // Decoding a lake from a structurally valid container must either
  // succeed or fail with a Status — payload-level garbage is reachable
  // when section CRCs were skipped or the payload was internally
  // inconsistent but checksummed as written.
  Result<std::unique_ptr<DataLake>> lake = ReadLake(reader);
  if (lake.ok()) {
    for (const std::string& name : (*lake)->table_names()) {
      (void)(*lake)->Get(name)->num_rows();
    }
    ExerciseIndexes(reader, **lake);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0 || size > (1u << 20)) return 0;
  SnapshotReadOptions options;
  options.verify_section_crcs = (data[0] & 1) == 0;
  const std::span<const uint8_t> bytes(data + 1, size - 1);

  Result<SnapshotReader> borrowing =
      SnapshotReader::OpenBorrowing(bytes, options);
  if (borrowing.ok()) Exercise(*borrowing, bytes.size());

  std::string owned(reinterpret_cast<const char*>(data) + 1, size - 1);
  Result<SnapshotReader> owning =
      SnapshotReader::OpenOwning(std::move(owned), options);
  if (owning.ok() != borrowing.ok()) {
    std::fprintf(stderr,
                 "fuzz_snapshot: OpenOwning and OpenBorrowing disagree\n");
    std::abort();
  }
  if (owning.ok()) Exercise(*owning, bytes.size());
  return 0;
}
