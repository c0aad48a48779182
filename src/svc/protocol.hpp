// The `rtdlsd` wire protocol: length-framed binary messages over a
// Unix-domain stream socket.
//
// Frame layout (all little-endian, see util/wire.hpp):
//
//   u32 magic        'RTDL' (0x4C445452)
//   u16 version      kProtocolVersion; a mismatched peer gets kBadFrame and
//                    the connection is closed (no cross-version guessing)
//   u16 type         MsgType
//   u64 request_id   echoed verbatim in the reply, so a client can pipeline
//   u32 payload_size <= kMaxPayload; larger is rejected BEFORE buffering
//   payload_size bytes of payload (per-type layout below)
//
// Every request type has a reply type; any failure - malformed frame,
// undecodable payload, unknown shard, deadline hit - produces an ErrorReply
// frame (type kErrorReply) carrying a machine-readable ErrorCode, never a
// silent drop, a crash, or a hang. A frame-level error (bad magic/version/
// oversized length) is unrecoverable mid-stream - after the error reply the
// server closes the connection, since resynchronization inside a corrupted
// byte stream is guesswork.
//
// Frames are encoded in place: encode_message() writes the header with a
// placeholder length into a caller-owned buffer, the payload straight after
// it, and patches the length in last, so every byte is written once and a
// buffer reused across requests stops allocating once it has grown to the
// largest message. The daemon keeps one such buffer per connection and the
// client one per Client.
//
// The FrameDecoder is incremental: feed whatever bytes arrived, pull
// complete frames out; next() refills the caller's Frame in the payload
// storage it already has. The protocol fuzz tests drive it (and the payload
// decoders) with truncated/oversized/garbage inputs, and a golden table in
// tests/svc_protocol_test.cpp pins the exact bytes of every message type at
// both revisions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/plan_io.hpp"
#include "sim/metrics.hpp"
#include "util/wire.hpp"
#include "workload/task.hpp"

namespace rtdls::svc {

inline constexpr std::uint32_t kFrameMagic = 0x4C445452;  // 'RTDL'
/// Wire revisions. 1 = v1.0 (the original protocol), 2 = v1.1 (adds the
/// metrics request and the extended status-reply section). The decoder
/// accepts both and records which one each frame carried; the server
/// encodes every reply at the requester's revision, so a v1.0 client keeps
/// receiving byte-identical v1.0 replies.
inline constexpr std::uint16_t kProtocolVersionV10 = 1;
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::size_t kFrameHeaderSize = 4 + 2 + 2 + 8 + 4;
/// Payload ceiling: far above any real message (the largest is a StatusReply
/// over every shard), far below anything that could balloon server memory.
inline constexpr std::uint32_t kMaxPayload = 1u << 24;  // 16 MiB

enum class MsgType : std::uint16_t {
  kAdmitRequest = 1,
  kCommitRequest = 2,
  kCancelRequest = 3,
  kStatusRequest = 4,
  kSnapshotRequest = 5,
  kShutdownRequest = 6,
  /// Test/operations hook: hold the target shard's lock for a given wall
  /// time, simulating a hung request. Exercises the per-request deadline
  /// path end to end (the sleeper times out; contenders on the same shard
  /// time out on the lock; other shards are unaffected).
  kDebugSleepRequest = 7,
  /// v1.1: Prometheus-style text scrape of the daemon's obs registry.
  kMetricsRequest = 8,

  kAdmitReply = 101,
  kCommitReply = 102,
  kCancelReply = 103,
  kStatusReply = 104,
  kSnapshotReply = 105,
  kShutdownReply = 106,
  kDebugSleepReply = 107,
  kMetricsReply = 108,
  kErrorReply = 255,
};

enum class ErrorCode : std::uint16_t {
  kBadFrame = 1,      ///< magic/version/length violation (connection closes)
  kBadPayload = 2,    ///< frame ok, payload undecodable or refused (a bad
                      ///< task record, an admit of an id already waiting)
  kUnknownType = 3,   ///< not a request type this daemon knows
  kUnknownShard = 4,  ///< shard index out of range
  kUnknownTask = 5,   ///< commit/cancel target not in the waiting queue
  kTimeout = 6,       ///< per-request wall-clock deadline hit
  kShuttingDown = 7,  ///< daemon is draining; retry against a new instance
  kIo = 8,            ///< server-side I/O failure (e.g. snapshot write)
  kInternal = 9,      ///< unexpected exception (bug; message has details)
};

const char* error_code_name(ErrorCode code);

/// A decoded frame: header fields plus raw payload bytes.
struct Frame {
  MsgType type = MsgType::kErrorReply;
  std::uint64_t request_id = 0;
  /// Wire revision the frame carried (the server replies at this revision).
  std::uint16_t version = kProtocolVersion;
  std::vector<std::uint8_t> payload;
};

namespace detail {
/// Replaces `out` with a frame header whose payload length is a
/// placeholder; the payload is then appended straight after it.
void begin_frame(std::vector<std::uint8_t>& out, MsgType type, std::uint64_t request_id,
                 std::uint16_t version);
/// Patches the payload length into the header begin_frame wrote. Throws
/// util::WireError when the payload exceeds kMaxPayload.
void end_frame(std::vector<std::uint8_t>& out);
}  // namespace detail

/// Incremental frame extraction from a byte stream.
class FrameDecoder {
 public:
  enum class Status {
    kFrame,     ///< one complete frame extracted
    kNeedMore,  ///< prefix is valid so far; feed more bytes
    kError,     ///< stream corrupt (error() says why); abandon the stream
  };

  /// Appends received bytes to the internal buffer.
  void feed(const std::uint8_t* data, std::size_t size);

  /// Tries to extract the next complete frame.
  Status next(Frame& out);

  const std::string& error() const { return error_; }

  /// Bytes buffered but not yet consumed (tests).
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  std::string error_;
};

// --- message payloads -------------------------------------------------------
// Each struct encodes/decodes its own payload; decode throws util::WireError
// on malformed bytes (the server turns that into a kBadPayload error reply).

/// A task offered for admission, as its client-visible record.
struct TaskRecord {
  cluster::TaskId id = 0;
  cluster::Time arrival = 0.0;
  double sigma = 0.0;
  cluster::Time rel_deadline = 0.0;
  std::uint64_t user_nodes = 0;

  workload::Task to_task() const;
  static TaskRecord from_task(const workload::Task& task);

  void encode(util::WireWriter& out) const;
  static TaskRecord decode(util::WireReader& in);
};

struct AdmitRequest {
  std::uint32_t shard = 0;
  /// Per-request deadline override in ms; 0 means the daemon default.
  std::uint32_t deadline_ms = 0;
  TaskRecord task;

  void encode(util::WireWriter& out) const;
  static AdmitRequest decode(util::WireReader& in);
};

struct AdmitReply {
  bool accepted = false;
  std::uint8_t reason = 0;  ///< dlt::Infeasibility when rejected
  cluster::TaskId blocking_task = cluster::kNoTask;
  std::uint64_t decision_seq = 0;  ///< shard-global operation sequence number
  double est_completion = 0.0;     ///< accepted only
  std::uint64_t nodes = 0;         ///< accepted only
  std::uint64_t waiting = 0;       ///< waiting-queue length after the decision

  void encode(util::WireWriter& out) const;
  static AdmitReply decode(util::WireReader& in);
};

struct CommitRequest {
  std::uint32_t shard = 0;
  cluster::TaskId task = cluster::kNoTask;

  void encode(util::WireWriter& out) const;
  static CommitRequest decode(util::WireReader& in);
};

struct CommitReply {
  bool committed = false;
  cluster::Time committed_at = 0.0;
  /// Earlier-due waiting tasks committed alongside (clock advance).
  std::uint64_t also_committed = 0;

  void encode(util::WireWriter& out) const;
  static CommitReply decode(util::WireReader& in);
};

struct CancelRequest {
  std::uint32_t shard = 0;
  cluster::TaskId task = cluster::kNoTask;

  void encode(util::WireWriter& out) const;
  static CancelRequest decode(util::WireReader& in);
};

struct CancelReply {
  bool cancelled = false;

  void encode(util::WireWriter& out) const;
  static CancelReply decode(util::WireReader& in);
};

struct StatusRequest {
  void encode(util::WireWriter& out) const;
  static StatusRequest decode(util::WireReader& in);
};

/// Per-shard slice of a StatusReply.
struct ShardStatus {
  std::uint32_t shard = 0;
  cluster::Time now = 0.0;
  std::uint64_t waiting = 0;
  std::uint64_t admits = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t committed = 0;
  std::uint64_t cancelled = 0;
  /// PR 5 session-memory accounting: what the warm sparse session holds and
  /// what the dense one-row-per-task representation would hold.
  std::uint64_t session_bytes = 0;
  std::uint64_t session_dense_bytes = 0;
  std::uint64_t peak_session_bytes = 0;

  void encode(util::WireWriter& out) const;
  static ShardStatus decode(util::WireReader& in);
};

/// v1.1 per-shard request-latency summary (microseconds), extracted from
/// the daemon's obs histogram for that shard.
struct ShardLatency {
  std::uint64_t count = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;

  void encode(util::WireWriter& out) const;
  static ShardLatency decode(util::WireReader& in);
};

struct StatusReply {
  std::string build;      ///< util::build_description(): flags attribution
  std::string algorithm;  ///< the admission algorithm every shard runs
  std::uint64_t node_count = 0;
  std::uint64_t workers = 0;
  sim::ServiceCounters counters;
  std::vector<ShardStatus> shards;

  /// v1.1 extension, appended after the shard array so a v1.0 layout is a
  /// strict prefix. `extended` selects whether encode() writes it; decode()
  /// sets it from whether the bytes were present.
  bool extended = false;
  std::uint64_t uptime_ms = 0;
  std::uint64_t queue_depth = 0;            ///< connections awaiting a worker
  std::vector<ShardLatency> shard_latency;  ///< parallel to `shards`

  void encode(util::WireWriter& out) const;
  static StatusReply decode(util::WireReader& in);
};

/// v1.1: scrape the daemon's metrics registries.
struct MetricsRequest {
  void encode(util::WireWriter& out) const;
  static MetricsRequest decode(util::WireReader& in);
};

struct MetricsReply {
  std::string text;  ///< Prometheus text exposition

  void encode(util::WireWriter& out) const;
  static MetricsReply decode(util::WireReader& in);
};

struct SnapshotRequest {
  std::string path;  ///< server-side file path to write

  void encode(util::WireWriter& out) const;
  static SnapshotRequest decode(util::WireReader& in);
};

struct SnapshotReply {
  std::uint64_t shards = 0;
  std::uint64_t bytes = 0;

  void encode(util::WireWriter& out) const;
  static SnapshotReply decode(util::WireReader& in);
};

struct ShutdownRequest {
  void encode(util::WireWriter& out) const;
  static ShutdownRequest decode(util::WireReader& in);
};

struct ShutdownReply {
  void encode(util::WireWriter& out) const;
  static ShutdownReply decode(util::WireReader& in);
};

struct DebugSleepRequest {
  std::uint32_t shard = 0;
  std::uint32_t millis = 0;

  void encode(util::WireWriter& out) const;
  static DebugSleepRequest decode(util::WireReader& in);
};

struct DebugSleepReply {
  std::uint32_t slept_ms = 0;

  void encode(util::WireWriter& out) const;
  static DebugSleepReply decode(util::WireReader& in);
};

struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  void encode(util::WireWriter& out) const;
  static ErrorReply decode(util::WireReader& in);
};

/// Encodes `message` as one complete frame at the given wire revision into
/// `out`, replacing its contents and reusing its capacity: the header goes
/// in with a placeholder length, the payload is written after it, and the
/// length is patched in last. Throws util::WireError when the payload
/// exceeds kMaxPayload.
template <typename Message>
void encode_message(std::vector<std::uint8_t>& out, MsgType type, std::uint64_t request_id,
                    const Message& message, std::uint16_t version = kProtocolVersion) {
  detail::begin_frame(out, type, request_id, version);
  util::WireWriter writer(out);
  message.encode(writer);
  detail::end_frame(out);
}

/// The same frame in a fresh buffer, sized up front so that every
/// fixed-size message (the largest, AdmitRequest, has a 48-byte payload)
/// costs one allocation.
template <typename Message>
std::vector<std::uint8_t> encode_message(MsgType type, std::uint64_t request_id,
                                         const Message& message,
                                         std::uint16_t version = kProtocolVersion) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderSize + 64);
  encode_message(out, type, request_id, message, version);
  return out;
}

}  // namespace rtdls::svc
