// Writes the fuzz_snapshot seeds that hold real snapshots, so the replay
// reaches the lake decode, the "lake.tokens" section and every index
// payload:
//
//   make_snapshot_seeds tools/fuzz/corpus/snapshot
//
// Each seed is one selector byte (0 = verify section CRCs, 1 = skip them;
// see fuzz_snapshot.cc) followed by the container bytes:
//   demo_full_{verify,noverify}  the paper demo lake with three distractors
//                                and every stock index
//   lake_only_{verify,noverify}  the demo lake with one distractor, lake
//                                sections only
//   lake_only_bitflip_noverify   lake_only with one bit flipped in table
//                                T2's section, read without CRC checks

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "core/dialite.h"
#include "lake/paper_fixtures.h"
#include "snapshot/lake_codec.h"
#include "snapshot/snapshot_writer.h"

namespace {

using dialite::Result;
using dialite::Status;

bool WriteSeed(const std::string& dir, const std::string& name, char selector,
               const std::string& container) {
  std::ofstream out(dir + "/" + name, std::ios::binary);
  out.put(selector);
  out.write(container.data(), static_cast<std::streamsize>(container.size()));
  return static_cast<bool>(out);
}

Result<std::string> DemoFull() {
  dialite::DataLake lake = dialite::paper::MakeDemoLake(3);
  dialite::Dialite dialite(&lake);
  DIALITE_RETURN_IF_ERROR(dialite.RegisterDefaults());
  DIALITE_RETURN_IF_ERROR(dialite.BuildIndexes());
  const std::string path = "make_snapshot_seeds.tmp";
  DIALITE_RETURN_IF_ERROR(dialite.SaveSnapshot(path));
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

Result<std::string> LakeOnly() {
  dialite::DataLake lake = dialite::paper::MakeDemoLake(1);
  dialite::SnapshotWriter w;
  DIALITE_RETURN_IF_ERROR(dialite::WriteLake(lake, &w));
  return w.FinishToString();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_snapshot_seeds OUT_DIR\n");
    return 2;
  }
  const std::string dir = argv[1];
  Result<std::string> full = DemoFull();
  Result<std::string> lake_only = LakeOnly();
  if (!full.ok() || !lake_only.ok()) {
    std::fprintf(stderr, "make_snapshot_seeds: %s\n",
                 (full.ok() ? lake_only.status() : full.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  // Byte 300 of the container lies in the first table section (T2's).
  std::string flipped = *lake_only;
  flipped[300] = static_cast<char>(flipped[300] ^ 0x40);
  const bool ok = WriteSeed(dir, "demo_full_verify", 0, *full) &&
                  WriteSeed(dir, "demo_full_noverify", 1, *full) &&
                  WriteSeed(dir, "lake_only_verify", 0, *lake_only) &&
                  WriteSeed(dir, "lake_only_noverify", 1, *lake_only) &&
                  WriteSeed(dir, "lake_only_bitflip_noverify", 1, flipped);
  if (!ok) {
    std::fprintf(stderr, "make_snapshot_seeds: cannot write to %s\n",
                 dir.c_str());
    return 1;
  }
  return 0;
}
