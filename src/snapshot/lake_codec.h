#ifndef DIALITE_SNAPSHOT_LAKE_CODEC_H_
#define DIALITE_SNAPSHOT_LAKE_CODEC_H_

#include <memory>

#include "common/status.h"
#include "lake/data_lake.h"
#include "obs/observability.h"
#include "snapshot/snapshot_reader.h"
#include "snapshot/snapshot_writer.h"

namespace dialite {

/// Adds the lake's sections to `w`: "lake.manifest" (table names in
/// insertion order) and one "tbl.<name>" section per table.
Status WriteLake(const DataLake& lake, SnapshotWriter* w,
                 ObservabilityContext* obs = nullptr);

/// Reconstructs a DataLake from `reader`'s sections. Tables come back
/// backed by borrowed spans into the mapping (pinned per-table by the
/// reader's anchor). Sections this codec does not read — including the
/// "sketch.minhash" section that older writers added — are ignored.
Result<std::unique_ptr<DataLake>> ReadLake(const SnapshotReader& reader,
                                           ObservabilityContext* obs = nullptr);

}  // namespace dialite

#endif  // DIALITE_SNAPSHOT_LAKE_CODEC_H_
