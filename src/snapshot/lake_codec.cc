#include "snapshot/lake_codec.h"

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "snapshot/bytes.h"
#include "snapshot/format.h"
#include "snapshot/table_codec.h"

namespace dialite {

namespace {

constexpr uint32_t kManifestVersion = 1;
constexpr uint32_t kTokensVersion = 3;

/// Copies a decoded array into an owned vector.
template <typename T>
std::vector<T> Owned(std::span<const T> v) {
  return std::vector<T>(v.begin(), v.end());
}

}  // namespace

void WriteLakeTokens(const LakeTokens& tokens, BinaryWriter* w) {
  w->U32(kTokensVersion);
  w->Str(tokens.chars());
  w->Array<uint32_t>(tokens.token_offsets());
  w->Array<uint32_t>(tokens.column_offsets());
  w->Array<uint32_t>(tokens.ids());
}

Result<std::shared_ptr<const LakeTokens>> ReadLakeTokens(
    std::span<const uint8_t> payload, const DataLake& lake) {
  BinaryReader r(payload);
  uint32_t version = 0;
  DIALITE_RETURN_IF_ERROR(r.U32(&version));
  if (version != kTokensVersion) {
    return Status::ParseError("unsupported lake tokens version " +
                              std::to_string(version));
  }
  std::string chars;
  DIALITE_RETURN_IF_ERROR(r.Str(&chars));
  std::span<const uint32_t> token_offsets, column_offsets, ids;
  DIALITE_RETURN_IF_ERROR(r.Array(&token_offsets));
  DIALITE_RETURN_IF_ERROR(r.Array(&column_offsets));
  DIALITE_RETURN_IF_ERROR(r.Array(&ids));
  if (!r.AtEnd()) {
    return Status::ParseError("trailing bytes after lake tokens");
  }
  return LakeTokens::FromParts(lake, std::move(chars), Owned(token_offsets),
                               Owned(column_offsets), Owned(ids));
}

Status WriteLake(const DataLake& lake, SnapshotWriter* w,
                 ObservabilityContext* obs) {
  ObsSpan span(obs, "snapshot.write.lake");
  BinaryWriter manifest;
  manifest.U32(kManifestVersion);
  const std::vector<std::string>& names = lake.table_names();
  manifest.U64(names.size());
  for (const std::string& n : names) manifest.Str(n);
  DIALITE_RETURN_IF_ERROR(
      w->AddSection(kSectionLakeManifest, std::move(manifest)));

  for (const std::string& n : names) {
    const Table* t = lake.Get(n);
    if (t == nullptr) {
      return Status::Internal("lake lists table '" + n + "' but lacks it");
    }
    BinaryWriter sec;
    DIALITE_RETURN_IF_ERROR(WriteTable(*t, &sec));
    DIALITE_RETURN_IF_ERROR(
        w->AddSection(kSectionTablePrefix + n, std::move(sec)));
  }
  BinaryWriter tokens;
  WriteLakeTokens(*lake.tokens(), &tokens);
  DIALITE_RETURN_IF_ERROR(w->AddSection(kSectionLakeTokens, std::move(tokens)));

  ObsAdd(obs, "snapshot.tables_written", names.size());
  return Status::OK();
}

Result<std::unique_ptr<DataLake>> ReadLake(const SnapshotReader& reader,
                                           ObservabilityContext* obs) {
  ObsSpan span(obs, "snapshot.open.lake");
  Result<std::span<const uint8_t>> manifest_bytes =
      reader.Section(kSectionLakeManifest);
  if (!manifest_bytes.ok()) return manifest_bytes.status();
  BinaryReader manifest(*manifest_bytes);
  uint32_t version = 0;
  DIALITE_RETURN_IF_ERROR(manifest.U32(&version));
  if (version != kManifestVersion) {
    return Status::ParseError("unsupported lake manifest version " +
                              std::to_string(version));
  }
  uint64_t count = 0;
  DIALITE_RETURN_IF_ERROR(manifest.U64(&count));
  if (count > manifest.remaining()) {
    return Status::ParseError("lake table count overruns the manifest");
  }

  auto lake = std::make_unique<DataLake>();
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    DIALITE_RETURN_IF_ERROR(manifest.Str(&name));
    Result<std::span<const uint8_t>> payload =
        reader.Section(kSectionTablePrefix + name);
    if (!payload.ok()) return payload.status();
    Result<Table> table = ReadTable(*payload, reader.anchor());
    if (!table.ok()) return table.status();
    if (table->name() != name) {
      return Status::ParseError("table section '" + name +
                                "' holds a table named '" + table->name() +
                                "'");
    }
    DIALITE_RETURN_IF_ERROR(lake->AddTable(std::move(*table)));
  }
  if (!manifest.AtEnd()) {
    return Status::ParseError("trailing bytes after lake manifest");
  }
  if (!reader.HasSection(kSectionLakeTokens)) {
    return Status::ParseError("snapshot lacks the lake.tokens section");
  }
  Result<std::span<const uint8_t>> tokens_bytes =
      reader.Section(kSectionLakeTokens);
  if (!tokens_bytes.ok()) return tokens_bytes.status();
  Result<std::shared_ptr<const LakeTokens>> tokens =
      ReadLakeTokens(*tokens_bytes, *lake);
  if (!tokens.ok()) return tokens.status();
  lake->InstallTokens(std::move(*tokens));

  ObsAdd(obs, "snapshot.tables_opened", count);
  return lake;
}

}  // namespace dialite
