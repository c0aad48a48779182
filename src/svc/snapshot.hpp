// Daemon snapshot files: crash-recovery state for every shard in one
// integrity-checked container.
//
// Layout (little-endian, util/wire):
//   8 bytes   magic "RTDLSNP1"
//   u16       container version (1)
//   string    algorithm name
//   u64       node_count, f64 cms, f64 cps     (cluster params)
//   u8        has speed profile; if set, f64_array of per-node cps
//   u8        reserved: written 1, ignored on read (a former admission-mode
//             flag, so files written with 0 still restore)
//   u32       shard count (at least 1)
//   bytes     per shard: u32-length-prefixed blob (AdmissionShard format)
//   u64       FNV-1a 64 over everything above (truncation/corruption check)
//
// A restored daemon rebuilt from (meta, blobs) makes bit-identical admit
// decisions to the uninterrupted one - see sched/plan_io.hpp for why
// serializing the semantic state alone suffices.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/types.hpp"

namespace rtdls::svc {

struct SnapshotMeta {
  std::string algorithm;
  cluster::ClusterParams params;
};

struct Snapshot {
  SnapshotMeta meta;
  std::vector<std::vector<std::uint8_t>> shard_blobs;
};

/// Writes the snapshot to `path` (atomically: temp file + rename). Returns
/// the file size in bytes. Throws std::runtime_error on I/O failure, and,
/// with a message starting "snapshot:" and before any file is opened, when
/// `shard_blobs` is empty (read_snapshot refuses a container of no shard).
std::size_t write_snapshot(const std::string& path, const SnapshotMeta& meta,
                           const std::vector<std::vector<std::uint8_t>>& shard_blobs);

/// Reads and verifies a snapshot file. Throws std::runtime_error, its
/// message starting "snapshot:", when `path` is not a regular file, on I/O
/// failure, bad magic/version, checksum mismatch or a shard count of 0;
/// util::WireError on malformed content.
Snapshot read_snapshot(const std::string& path);

}  // namespace rtdls::svc
