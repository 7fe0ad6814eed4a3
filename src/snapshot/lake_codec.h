#ifndef DIALITE_SNAPSHOT_LAKE_CODEC_H_
#define DIALITE_SNAPSHOT_LAKE_CODEC_H_

#include <memory>
#include <span>

#include "common/status.h"
#include "lake/data_lake.h"
#include "lake/lake_tokens.h"
#include "obs/observability.h"
#include "snapshot/bytes.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"

namespace dialite {

/// Adds the lake's sections to `w`: "lake.manifest" (table names in
/// insertion order), one "tbl.<name>" section per table, and
/// "lake.tokens" (the persisted arrays of the lake's LakeTokens, built
/// here if no index built them yet).
Status WriteLake(const DataLake& lake, SnapshotWriter* w,
                 ObservabilityContext* obs = nullptr);

/// Reconstructs a DataLake from `reader`'s sections. Tables come back
/// backed by borrowed spans into the mapping (pinned per-table by the
/// reader's anchor); the "lake.tokens" section is decoded into owned
/// arrays, its derived arrays (token vectors, column embeddings, postings)
/// are computed, and the result is installed as the lake's tokens. A
/// snapshot without that section, or with a version other than 3, fails
/// with kParseError. Sections this codec does not read are ignored.
Result<std::unique_ptr<DataLake>> ReadLake(const SnapshotReader& reader,
                                           ObservabilityContext* obs = nullptr);

/// The "lake.tokens" payload: a version (3), then the dictionary's bytes
/// and token offsets, then the column offsets and the column token ids.
/// Nothing derived is written: version 2 added the column embedding
/// matrix, which an open now re-sums bit for bit from the token vectors.
void WriteLakeTokens(const LakeTokens& tokens, BinaryWriter* w);

/// Decodes a WriteLakeTokens payload for `lake` (LakeTokens::FromParts
/// validates it and derives the rest) into owned arrays. Any malformed
/// payload, and any version other than 3, fails with kParseError.
Result<std::shared_ptr<const LakeTokens>> ReadLakeTokens(
    std::span<const uint8_t> payload, const DataLake& lake);

}  // namespace dialite

#endif  // DIALITE_SNAPSHOT_LAKE_CODEC_H_
