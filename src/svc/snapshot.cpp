#include "svc/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <system_error>

#include "cluster/speed_profile.hpp"
#include "util/wire.hpp"

namespace rtdls::svc {

namespace {

constexpr char kMagic[8] = {'R', 'T', 'D', 'L', 'S', 'N', 'P', '1'};
constexpr std::uint16_t kContainerVersion = 1;

}  // namespace

std::size_t write_snapshot(const std::string& path, const SnapshotMeta& meta,
                           const std::vector<std::vector<std::uint8_t>>& shard_blobs) {
  // read_snapshot refuses a container of no shard; never write one.
  if (shard_blobs.empty()) throw std::runtime_error("snapshot: no shard to write to " + path);
  std::vector<std::uint8_t> body;
  // Element-wise on purpose: the range insert of a char[] into an empty
  // byte vector trips GCC 12's -Wstringop-overflow through the inlined
  // memmove (false positive), and this path is cold.
  body.reserve(sizeof(kMagic));
  for (const char c : kMagic) body.push_back(static_cast<std::uint8_t>(c));
  util::WireWriter out(body);
  out.u16(kContainerVersion);
  out.string(meta.algorithm);
  out.u64(meta.params.node_count);
  out.f64(meta.params.cms);
  out.f64(meta.params.cps);
  const bool has_profile = meta.params.speed_profile != nullptr;
  out.u8(has_profile ? 1 : 0);
  if (has_profile) out.f64_array(meta.params.speed_profile->values());
  out.u8(1);  // reserved
  out.u32(static_cast<std::uint32_t>(shard_blobs.size()));
  for (const auto& blob : shard_blobs) {
    if (blob.size() > UINT32_MAX) throw std::runtime_error("snapshot: shard blob too large");
    // u32 length prefix + raw bytes: the layout string()/read side expects.
    out.u32(static_cast<std::uint32_t>(blob.size()));
    out.bytes(blob.data(), blob.size());
  }
  out.u64(util::fnv1a64(body.data(), body.size()));

  // Write-then-rename so a crash mid-write never leaves a half snapshot at
  // the restore path (the checksum catches torn writes that survive rename).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) throw std::runtime_error("snapshot: cannot open " + tmp + " for writing");
    file.write(reinterpret_cast<const char*>(body.data()),
               static_cast<std::streamsize>(body.size()));
    if (!file) throw std::runtime_error("snapshot: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("snapshot: rename " + tmp + " -> " + path + " failed");
  }
  return body.size();
}

Snapshot read_snapshot(const std::string& path) {
  // A directory opens, and its tellg() reads as the largest streamsize.
  std::error_code error;
  if (!std::filesystem::is_regular_file(path, error)) {
    throw std::runtime_error("snapshot: " + path + " is not a regular file");
  }
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) throw std::runtime_error("snapshot: cannot open " + path);
  const std::streamsize size = file.tellg();
  file.seekg(0);
  std::vector<std::uint8_t> body(static_cast<std::size_t>(size));
  file.read(reinterpret_cast<char*>(body.data()), size);
  if (!file) throw std::runtime_error("snapshot: read failed for " + path);

  if (body.size() < sizeof(kMagic) + 8 ||
      !std::equal(kMagic, kMagic + sizeof(kMagic), body.begin())) {
    throw std::runtime_error("snapshot: " + path + " is not a snapshot file");
  }
  const std::size_t payload = body.size() - 8;  // trailer excluded
  util::WireReader trailer(body.data() + payload, 8);
  if (trailer.u64() != util::fnv1a64(body.data(), payload)) {
    throw std::runtime_error("snapshot: checksum mismatch in " + path +
                             " (truncated or corrupted)");
  }

  util::WireReader in(body.data() + sizeof(kMagic), payload - sizeof(kMagic));
  const std::uint16_t version = in.u16();
  if (version != kContainerVersion) {
    throw std::runtime_error("snapshot: unsupported container version " +
                             std::to_string(version));
  }
  Snapshot snapshot;
  snapshot.meta.algorithm = in.string();
  snapshot.meta.params.node_count = static_cast<std::size_t>(in.u64());
  snapshot.meta.params.cms = in.f64();
  snapshot.meta.params.cps = in.f64();
  if (in.u8() != 0) {
    snapshot.meta.params.speed_profile =
        std::make_shared<cluster::SpeedProfile>(in.f64_array());
  }
  in.u8();  // reserved
  const std::uint32_t shard_count = in.u32();
  if (shard_count == 0) {
    throw std::runtime_error("snapshot: " + path + " holds no shards");
  }
  // Each blob costs at least its 4-byte length prefix; a count implying
  // more bytes than remain is malformed, caught before reserving.
  if (static_cast<std::size_t>(shard_count) * 4 > in.remaining()) {
    throw util::WireError("snapshot: shard count exceeds payload");
  }
  snapshot.shard_blobs.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    // bytes() and string() share the u32-prefixed layout; string() already
    // validates the prefix against the remaining payload.
    const std::string blob = in.string();
    snapshot.shard_blobs.emplace_back(blob.begin(), blob.end());
  }
  in.expect_done();
  return snapshot;
}

}  // namespace rtdls::svc
