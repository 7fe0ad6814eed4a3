/// snapshot_inspect — dump a dialite lake snapshot's header, section
/// table, and aggregate stats as JSON (the debugging front door for the
/// container format; no payload is decoded beyond the lake manifest).
///
///   snapshot_inspect LAKE.snap            validate checksums, dump JSON
///   snapshot_inspect --no-verify LAKE.snap  skip section CRC verification
///
/// Exit: 0 = valid snapshot dumped, 1 = unreadable/corrupt (the Status is
/// reported in a JSON error object on stdout), 2 = usage.

#include <cstdio>
#include <cstring>
#include <string>

#include "obs/json.h"
#include "snapshot/bytes.h"
#include "snapshot/format.h"
#include "snapshot/snapshot_reader.h"

namespace {

using namespace dialite;

bool HasPrefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Coarse kind of a section, for the per-kind byte aggregation.
const char* SectionKind(const std::string& name) {
  if (HasPrefix(name, kSectionTablePrefix)) return "table";
  if (HasPrefix(name, kSectionIndexPrefix)) return "index";
  if (name == kSectionLakeManifest) return "manifest";
  if (name == kSectionLakeTokens) return "tokens";
  return "other";
}

int Inspect(const std::string& path, bool verify) {
  SnapshotReadOptions options;
  options.verify_section_crcs = verify;
  Result<SnapshotReader> reader = SnapshotReader::Open(path, options);
  std::string out;
  if (!reader.ok()) {
    out += "{\n  \"file\": ";
    AppendJsonString(&out, path);
    out += ",\n  \"error\": ";
    AppendJsonString(&out, reader.status().ToString());
    out += "\n}\n";
    std::fputs(out.c_str(), stdout);
    return 1;
  }

  uint64_t table_sections = 0, index_sections = 0;
  uint64_t table_bytes = 0, index_bytes = 0, token_bytes = 0;
  uint64_t payload_bytes = 0;
  for (const SnapshotSection& s : reader->sections()) {
    payload_bytes += s.length;
    const char* kind = SectionKind(s.name);
    if (std::strcmp(kind, "table") == 0) {
      ++table_sections;
      table_bytes += s.length;
    } else if (std::strcmp(kind, "index") == 0) {
      ++index_sections;
      index_bytes += s.length;
    } else if (std::strcmp(kind, "tokens") == 0) {
      token_bytes += s.length;
    }
  }

  out += "{\n  \"file\": ";
  AppendJsonString(&out, path);
  out += ",\n  \"format_version\": " +
         std::to_string(reader->format_version());
  out += ",\n  \"file_size\": " + std::to_string(reader->file_size());
  out += ",\n  \"checksums_verified\": ";
  out += verify ? "true" : "false";
  out += ",\n  \"sections\": [";
  bool first = true;
  for (const SnapshotSection& s : reader->sections()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": ";
    AppendJsonString(&out, s.name);
    out += ", \"kind\": ";
    AppendJsonString(&out, SectionKind(s.name));
    out += ", \"offset\": " + std::to_string(s.offset);
    out += ", \"length\": " + std::to_string(s.length);
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", s.crc32);
    out += ", \"crc32\": \"" + std::string(crc) + "\"}";
  }
  out += first ? "]" : "\n  ]";
  out += ",\n  \"stats\": {";
  out += "\n    \"sections\": " + std::to_string(reader->sections().size());
  out += ",\n    \"tables\": " + std::to_string(table_sections);
  out += ",\n    \"indexes\": " + std::to_string(index_sections);
  out += ",\n    \"payload_bytes\": " + std::to_string(payload_bytes);
  out += ",\n    \"table_bytes\": " + std::to_string(table_bytes);
  out += ",\n    \"index_bytes\": " + std::to_string(index_bytes);
  out += ",\n    \"token_bytes\": " + std::to_string(token_bytes);
  out += ",\n    \"container_overhead_bytes\": " +
         std::to_string(reader->file_size() - payload_bytes);
  out += "\n  }\n}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool verify = true;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-verify") == 0) {
      verify = false;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    } else if (path.empty()) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: snapshot_inspect [--no-verify] FILE\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: snapshot_inspect [--no-verify] FILE\n");
    return 2;
  }
  return Inspect(path, verify);
}
