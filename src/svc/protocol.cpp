#include "svc/protocol.hpp"

namespace rtdls::svc {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadFrame: return "bad-frame";
    case ErrorCode::kBadPayload: return "bad-payload";
    case ErrorCode::kUnknownType: return "unknown-type";
    case ErrorCode::kUnknownShard: return "unknown-shard";
    case ErrorCode::kUnknownTask: return "unknown-task";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

namespace detail {

void begin_frame(std::vector<std::uint8_t>& out, MsgType type, std::uint64_t request_id,
                 std::uint16_t version) {
  out.clear();
  util::WireWriter header(out);
  header.u32(kFrameMagic);
  header.u16(version);
  header.u16(static_cast<std::uint16_t>(type));
  header.u64(request_id);
  header.u32(0);  // payload size, patched by end_frame
}

void end_frame(std::vector<std::uint8_t>& out) {
  const std::size_t payload_size = out.size() - kFrameHeaderSize;
  if (payload_size > kMaxPayload) throw util::WireError("frame: payload exceeds kMaxPayload");
  for (std::size_t i = 0; i < 4; ++i) {
    out[kFrameHeaderSize - 4 + i] = static_cast<std::uint8_t>(payload_size >> (8 * i));
  }
}

}  // namespace detail

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  // Drop consumed prefix before growing; keeps the buffer bounded by one
  // frame plus whatever the peer has sent ahead.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

FrameDecoder::Status FrameDecoder::next(Frame& out) {
  if (!error_.empty()) return Status::kError;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderSize) return Status::kNeedMore;
  util::WireReader header(buffer_.data() + consumed_, kFrameHeaderSize);
  const std::uint32_t magic = header.u32();
  if (magic != kFrameMagic) {
    error_ = "frame: bad magic";
    return Status::kError;
  }
  const std::uint16_t version = header.u16();
  if (version != kProtocolVersionV10 && version != kProtocolVersion) {
    error_ = "frame: unsupported protocol version " + std::to_string(version);
    return Status::kError;
  }
  const std::uint16_t raw_type = header.u16();
  const std::uint64_t request_id = header.u64();
  const std::uint32_t payload_size = header.u32();
  if (payload_size > kMaxPayload) {
    // Rejected before buffering: the declared length never drives an
    // allocation, so a hostile length prefix cannot balloon memory.
    error_ = "frame: payload size " + std::to_string(payload_size) + " exceeds cap";
    return Status::kError;
  }
  if (available < kFrameHeaderSize + payload_size) return Status::kNeedMore;
  // An unknown type is preserved raw and handled at dispatch (kUnknownType
  // error reply) - the frame itself parsed, so the stream survives.
  out.type = static_cast<MsgType>(raw_type);
  out.request_id = request_id;
  out.version = version;
  const std::uint8_t* payload = buffer_.data() + consumed_ + kFrameHeaderSize;
  out.payload.assign(payload, payload + payload_size);
  consumed_ += kFrameHeaderSize + payload_size;
  return Status::kFrame;
}

// --- TaskRecord -------------------------------------------------------------

workload::Task TaskRecord::to_task() const {
  workload::Task task;
  task.id = id;
  task.spec.arrival = arrival;
  task.spec.sigma = sigma;
  task.spec.rel_deadline = rel_deadline;
  task.user_nodes = static_cast<std::size_t>(user_nodes);
  return task;
}

TaskRecord TaskRecord::from_task(const workload::Task& task) {
  TaskRecord rec;
  rec.id = task.id;
  rec.arrival = task.arrival();
  rec.sigma = task.sigma();
  rec.rel_deadline = task.rel_deadline();
  rec.user_nodes = task.user_nodes;
  return rec;
}

void TaskRecord::encode(util::WireWriter& out) const {
  out.u64(id);
  out.f64(arrival);
  out.f64(sigma);
  out.f64(rel_deadline);
  out.u64(user_nodes);
}

TaskRecord TaskRecord::decode(util::WireReader& in) {
  TaskRecord rec;
  rec.id = in.u64();
  rec.arrival = in.f64();
  rec.sigma = in.f64();
  rec.rel_deadline = in.f64();
  rec.user_nodes = in.u64();
  return rec;
}

// --- Admit ------------------------------------------------------------------

void AdmitRequest::encode(util::WireWriter& out) const {
  out.u32(shard);
  out.u32(deadline_ms);
  task.encode(out);
}

AdmitRequest AdmitRequest::decode(util::WireReader& in) {
  AdmitRequest req;
  req.shard = in.u32();
  req.deadline_ms = in.u32();
  req.task = TaskRecord::decode(in);
  in.expect_done();
  return req;
}

void AdmitReply::encode(util::WireWriter& out) const {
  out.u8(accepted ? 1 : 0);
  out.u8(reason);
  out.u64(blocking_task);
  out.u64(decision_seq);
  out.f64(est_completion);
  out.u64(nodes);
  out.u64(waiting);
}

AdmitReply AdmitReply::decode(util::WireReader& in) {
  AdmitReply reply;
  reply.accepted = in.u8() != 0;
  reply.reason = in.u8();
  reply.blocking_task = in.u64();
  reply.decision_seq = in.u64();
  reply.est_completion = in.f64();
  reply.nodes = in.u64();
  reply.waiting = in.u64();
  in.expect_done();
  return reply;
}

// --- Commit -----------------------------------------------------------------

void CommitRequest::encode(util::WireWriter& out) const {
  out.u32(shard);
  out.u64(task);
}

CommitRequest CommitRequest::decode(util::WireReader& in) {
  CommitRequest req;
  req.shard = in.u32();
  req.task = in.u64();
  in.expect_done();
  return req;
}

void CommitReply::encode(util::WireWriter& out) const {
  out.u8(committed ? 1 : 0);
  out.f64(committed_at);
  out.u64(also_committed);
}

CommitReply CommitReply::decode(util::WireReader& in) {
  CommitReply reply;
  reply.committed = in.u8() != 0;
  reply.committed_at = in.f64();
  reply.also_committed = in.u64();
  in.expect_done();
  return reply;
}

// --- Cancel -----------------------------------------------------------------

void CancelRequest::encode(util::WireWriter& out) const {
  out.u32(shard);
  out.u64(task);
}

CancelRequest CancelRequest::decode(util::WireReader& in) {
  CancelRequest req;
  req.shard = in.u32();
  req.task = in.u64();
  in.expect_done();
  return req;
}

void CancelReply::encode(util::WireWriter& out) const { out.u8(cancelled ? 1 : 0); }

CancelReply CancelReply::decode(util::WireReader& in) {
  CancelReply reply;
  reply.cancelled = in.u8() != 0;
  in.expect_done();
  return reply;
}

// --- Status -----------------------------------------------------------------

void StatusRequest::encode(util::WireWriter&) const {}

StatusRequest StatusRequest::decode(util::WireReader& in) {
  in.expect_done();
  return StatusRequest{};
}

void ShardStatus::encode(util::WireWriter& out) const {
  out.u32(shard);
  out.f64(now);
  out.u64(waiting);
  out.u64(admits);
  out.u64(accepted);
  out.u64(rejected);
  out.u64(committed);
  out.u64(cancelled);
  out.u64(session_bytes);
  out.u64(session_dense_bytes);
  out.u64(peak_session_bytes);
}

ShardStatus ShardStatus::decode(util::WireReader& in) {
  ShardStatus s;
  s.shard = in.u32();
  s.now = in.f64();
  s.waiting = in.u64();
  s.admits = in.u64();
  s.accepted = in.u64();
  s.rejected = in.u64();
  s.committed = in.u64();
  s.cancelled = in.u64();
  s.session_bytes = in.u64();
  s.session_dense_bytes = in.u64();
  s.peak_session_bytes = in.u64();
  return s;
}

void ShardLatency::encode(util::WireWriter& out) const {
  out.u64(count);
  out.f64(p50_us);
  out.f64(p90_us);
  out.f64(p99_us);
  out.f64(max_us);
}

ShardLatency ShardLatency::decode(util::WireReader& in) {
  ShardLatency l;
  l.count = in.u64();
  l.p50_us = in.f64();
  l.p90_us = in.f64();
  l.p99_us = in.f64();
  l.max_us = in.f64();
  return l;
}

void StatusReply::encode(util::WireWriter& out) const {
  out.string(build);
  out.string(algorithm);
  out.u64(node_count);
  out.u64(workers);
  out.u64(counters.connections);
  out.u64(counters.requests);
  out.u64(counters.admits);
  out.u64(counters.commits);
  out.u64(counters.cancels);
  out.u64(counters.status_queries);
  out.u64(counters.snapshots);
  out.u64(counters.errors);
  out.u64(counters.timeouts);
  out.u64(counters.restores);
  out.u32(static_cast<std::uint32_t>(shards.size()));
  for (const ShardStatus& s : shards) s.encode(out);
  if (extended) {
    // v1.1 suffix: everything above is byte-identical to a v1.0 reply, so
    // the extension is invisible to a client that stops at the shard array.
    out.u64(uptime_ms);
    out.u64(queue_depth);
    out.u32(static_cast<std::uint32_t>(shard_latency.size()));
    for (const ShardLatency& l : shard_latency) l.encode(out);
  }
}

StatusReply StatusReply::decode(util::WireReader& in) {
  StatusReply reply;
  reply.build = in.string();
  reply.algorithm = in.string();
  reply.node_count = in.u64();
  reply.workers = in.u64();
  reply.counters.connections = in.u64();
  reply.counters.requests = in.u64();
  reply.counters.admits = in.u64();
  reply.counters.commits = in.u64();
  reply.counters.cancels = in.u64();
  reply.counters.status_queries = in.u64();
  reply.counters.snapshots = in.u64();
  reply.counters.errors = in.u64();
  reply.counters.timeouts = in.u64();
  reply.counters.restores = in.u64();
  const std::uint32_t count = in.u32();
  // Each ShardStatus occupies a fixed 84 bytes; a count that implies more
  // bytes than remain is malformed, caught before reserving.
  if (static_cast<std::size_t>(count) * 84 > in.remaining()) {
    throw util::WireError("StatusReply: shard count exceeds payload");
  }
  reply.shards.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) reply.shards.push_back(ShardStatus::decode(in));
  if (in.remaining() > 0) {
    // v1.1 extension present.
    reply.extended = true;
    reply.uptime_ms = in.u64();
    reply.queue_depth = in.u64();
    const std::uint32_t lat_count = in.u32();
    // Each ShardLatency is a fixed 40 bytes; bound-check before reserving.
    if (static_cast<std::size_t>(lat_count) * 40 > in.remaining()) {
      throw util::WireError("StatusReply: latency count exceeds payload");
    }
    reply.shard_latency.reserve(lat_count);
    for (std::uint32_t i = 0; i < lat_count; ++i) {
      reply.shard_latency.push_back(ShardLatency::decode(in));
    }
  }
  in.expect_done();
  return reply;
}

// --- Metrics ----------------------------------------------------------------

void MetricsRequest::encode(util::WireWriter&) const {}

MetricsRequest MetricsRequest::decode(util::WireReader& in) {
  in.expect_done();
  return MetricsRequest{};
}

void MetricsReply::encode(util::WireWriter& out) const { out.string(text); }

MetricsReply MetricsReply::decode(util::WireReader& in) {
  MetricsReply reply;
  reply.text = in.string();
  in.expect_done();
  return reply;
}

// --- Snapshot ---------------------------------------------------------------

void SnapshotRequest::encode(util::WireWriter& out) const { out.string(path); }

SnapshotRequest SnapshotRequest::decode(util::WireReader& in) {
  SnapshotRequest req;
  req.path = in.string();
  in.expect_done();
  return req;
}

void SnapshotReply::encode(util::WireWriter& out) const {
  out.u64(shards);
  out.u64(bytes);
}

SnapshotReply SnapshotReply::decode(util::WireReader& in) {
  SnapshotReply reply;
  reply.shards = in.u64();
  reply.bytes = in.u64();
  in.expect_done();
  return reply;
}

// --- Shutdown / DebugSleep / Error ------------------------------------------

void ShutdownRequest::encode(util::WireWriter&) const {}

ShutdownRequest ShutdownRequest::decode(util::WireReader& in) {
  in.expect_done();
  return ShutdownRequest{};
}

void ShutdownReply::encode(util::WireWriter&) const {}

ShutdownReply ShutdownReply::decode(util::WireReader& in) {
  in.expect_done();
  return ShutdownReply{};
}

void DebugSleepRequest::encode(util::WireWriter& out) const {
  out.u32(shard);
  out.u32(millis);
}

DebugSleepRequest DebugSleepRequest::decode(util::WireReader& in) {
  DebugSleepRequest req;
  req.shard = in.u32();
  req.millis = in.u32();
  in.expect_done();
  return req;
}

void DebugSleepReply::encode(util::WireWriter& out) const { out.u32(slept_ms); }

DebugSleepReply DebugSleepReply::decode(util::WireReader& in) {
  DebugSleepReply reply;
  reply.slept_ms = in.u32();
  in.expect_done();
  return reply;
}

void ErrorReply::encode(util::WireWriter& out) const {
  out.u16(static_cast<std::uint16_t>(code));
  out.string(message);
}

ErrorReply ErrorReply::decode(util::WireReader& in) {
  ErrorReply reply;
  reply.code = static_cast<ErrorCode>(in.u16());
  reply.message = in.string();
  in.expect_done();
  return reply;
}

}  // namespace rtdls::svc
