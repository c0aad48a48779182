// Wire-protocol tests: codec round trips for every message type, and fuzz
// over the frame decoder and payload decoders with truncated, oversized,
// and garbage byte strings. The invariant under fuzz is "error reported,
// never a crash, a hang, or an out-of-bounds read".
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sched/plan_io.hpp"
#include "svc/protocol.hpp"
#include "util/wire.hpp"

namespace rtdls::svc {
namespace {

/// Deterministic 64-bit PRNG (splitmix64) - fuzz inputs must reproduce.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint8_t byte() { return static_cast<std::uint8_t>(next() & 0xff); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

/// encode -> decode -> encode must reproduce the bytes exactly; double
/// fields travel as IEEE-754 bit patterns, so this is full bit-identity.
template <typename Message>
void expect_payload_round_trip(const Message& message) {
  util::WireWriter writer;
  message.encode(writer);
  const std::vector<std::uint8_t> bytes = writer.take();

  util::WireReader reader(bytes);
  const Message decoded = Message::decode(reader);
  EXPECT_TRUE(reader.done());

  util::WireWriter again;
  decoded.encode(again);
  EXPECT_EQ(bytes, again.take());
}

TaskRecord sample_task() {
  TaskRecord task;
  task.id = 42;
  task.arrival = 123.456789;
  task.sigma = 200.25;
  task.rel_deadline = 5000.125;
  task.user_nodes = 3;
  return task;
}

TEST(SvcProtocol, EveryMessageRoundTrips) {
  AdmitRequest admit;
  admit.shard = 2;
  admit.deadline_ms = 750;
  admit.task = sample_task();
  expect_payload_round_trip(admit);

  AdmitReply admit_reply;
  admit_reply.accepted = true;
  admit_reply.reason = 2;
  admit_reply.blocking_task = 7;
  admit_reply.decision_seq = 99;
  admit_reply.est_completion = 4120.875;
  admit_reply.nodes = 5;
  admit_reply.waiting = 11;
  expect_payload_round_trip(admit_reply);

  CommitRequest commit;
  commit.shard = 1;
  commit.task = 42;
  expect_payload_round_trip(commit);

  CommitReply commit_reply;
  commit_reply.committed = true;
  commit_reply.committed_at = 321.0625;
  commit_reply.also_committed = 2;
  expect_payload_round_trip(commit_reply);

  CancelRequest cancel;
  cancel.shard = 3;
  cancel.task = 17;
  expect_payload_round_trip(cancel);

  CancelReply cancel_reply;
  cancel_reply.cancelled = true;
  expect_payload_round_trip(cancel_reply);

  expect_payload_round_trip(StatusRequest{});

  StatusReply status;
  status.build = "rtdls (test build)";
  status.algorithm = "EDF-DLT";
  status.node_count = 16;
  status.workers = 4;
  status.counters.connections = 3;
  status.counters.requests = 10;
  status.counters.admits = 6;
  status.counters.errors = 1;
  ShardStatus shard;
  shard.shard = 0;
  shard.now = 1000.5;
  shard.waiting = 2;
  shard.admits = 6;
  shard.accepted = 5;
  shard.rejected = 1;
  shard.committed = 3;
  shard.cancelled = 0;
  shard.session_bytes = 320;
  shard.session_dense_bytes = 256;
  shard.peak_session_bytes = 376;
  status.shards.push_back(shard);
  shard.shard = 1;
  status.shards.push_back(shard);
  expect_payload_round_trip(status);

  SnapshotRequest snapshot;
  snapshot.path = "/tmp/snap.bin";
  expect_payload_round_trip(snapshot);

  SnapshotReply snapshot_reply;
  snapshot_reply.shards = 4;
  snapshot_reply.bytes = 1213;
  expect_payload_round_trip(snapshot_reply);

  expect_payload_round_trip(ShutdownRequest{});
  expect_payload_round_trip(ShutdownReply{});

  DebugSleepRequest sleep_request;
  sleep_request.shard = 1;
  sleep_request.millis = 250;
  expect_payload_round_trip(sleep_request);

  DebugSleepReply sleep_reply;
  sleep_reply.slept_ms = 250;
  expect_payload_round_trip(sleep_reply);

  ErrorReply error;
  error.code = ErrorCode::kTimeout;
  error.message = "per-request deadline hit";
  expect_payload_round_trip(error);
}

TEST(SvcProtocol, FrameRoundTripWholeAndByteByByte) {
  AdmitRequest admit;
  admit.shard = 1;
  admit.task = sample_task();
  const std::vector<std::uint8_t> bytes =
      encode_message(MsgType::kAdmitRequest, /*request_id=*/77, admit);

  // Whole buffer at once.
  {
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_EQ(FrameDecoder::Status::kFrame, decoder.next(frame));
    EXPECT_EQ(MsgType::kAdmitRequest, frame.type);
    EXPECT_EQ(77u, frame.request_id);
    EXPECT_EQ(0u, decoder.buffered());
    util::WireReader reader(frame.payload);
    const AdmitRequest decoded = AdmitRequest::decode(reader);
    EXPECT_EQ(admit.task.id, decoded.task.id);
    EXPECT_EQ(admit.task.arrival, decoded.task.arrival);
  }

  // One byte at a time: kNeedMore until the last byte lands.
  {
    FrameDecoder decoder;
    Frame frame;
    for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
      decoder.feed(&bytes[i], 1);
      ASSERT_EQ(FrameDecoder::Status::kNeedMore, decoder.next(frame)) << "byte " << i;
    }
    decoder.feed(&bytes.back(), 1);
    ASSERT_EQ(FrameDecoder::Status::kFrame, decoder.next(frame));
    EXPECT_EQ(77u, frame.request_id);
  }
}

TEST(SvcProtocol, BackToBackFramesInOneFeed) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    CommitRequest commit;
    commit.shard = static_cast<std::uint32_t>(id);
    commit.task = id * 10;
    const std::vector<std::uint8_t> frame_bytes =
        encode_message(MsgType::kCommitRequest, id, commit);
    stream.insert(stream.end(), frame_bytes.begin(), frame_bytes.end());
  }
  FrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  for (std::uint64_t id = 1; id <= 5; ++id) {
    Frame frame;
    ASSERT_EQ(FrameDecoder::Status::kFrame, decoder.next(frame));
    EXPECT_EQ(id, frame.request_id);
  }
  Frame frame;
  EXPECT_EQ(FrameDecoder::Status::kNeedMore, decoder.next(frame));
}

TEST(SvcProtocol, BadMagicAndBadVersionAreErrors) {
  const std::vector<std::uint8_t> good =
      encode_message(MsgType::kStatusRequest, 1, StatusRequest{});

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xff;
  FrameDecoder decoder;
  decoder.feed(bad_magic.data(), bad_magic.size());
  Frame frame;
  EXPECT_EQ(FrameDecoder::Status::kError, decoder.next(frame));
  EXPECT_FALSE(decoder.error().empty());

  std::vector<std::uint8_t> bad_version = good;
  bad_version[4] ^= 0xff;  // u16 version lives right after the u32 magic
  FrameDecoder decoder2;
  decoder2.feed(bad_version.data(), bad_version.size());
  EXPECT_EQ(FrameDecoder::Status::kError, decoder2.next(frame));
}

TEST(SvcProtocol, OversizedPayloadRejectedBeforeBuffering) {
  // Hand-build a header claiming a payload over the cap; the decoder must
  // error out from the header alone instead of waiting for 4 GiB.
  util::WireWriter writer;
  writer.u32(kFrameMagic);
  writer.u16(kProtocolVersion);
  writer.u16(static_cast<std::uint16_t>(MsgType::kAdmitRequest));
  writer.u64(1);
  writer.u32(kMaxPayload + 1);
  const std::vector<std::uint8_t> header = writer.take();

  FrameDecoder decoder;
  decoder.feed(header.data(), header.size());
  Frame frame;
  EXPECT_EQ(FrameDecoder::Status::kError, decoder.next(frame));
}

TEST(SvcProtocol, UnknownTypeStillParsesAsAFrame) {
  // Unknown message types are a dispatch-level error (the daemon replies
  // kUnknownType and keeps the connection); the framing itself survives.
  util::WireWriter writer;
  writer.u32(kFrameMagic);
  writer.u16(kProtocolVersion);
  writer.u16(0x7777);
  writer.u64(9);
  writer.u32(0);
  const std::vector<std::uint8_t> bytes = writer.take();

  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(FrameDecoder::Status::kFrame, decoder.next(frame));
  EXPECT_EQ(static_cast<std::uint16_t>(0x7777), static_cast<std::uint16_t>(frame.type));
  EXPECT_EQ(9u, frame.request_id);
}

TEST(SvcProtocol, GarbageStreamFuzzNeverCrashes) {
  Rng rng(20260809);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t size = rng.below(96);
    std::vector<std::uint8_t> bytes(size);
    for (std::uint8_t& b : bytes) b = rng.byte();

    FrameDecoder decoder;
    // Feed in random-sized chunks; drain frames as they appear. The only
    // legal outcomes are frames, "need more", or a reported error.
    std::size_t offset = 0;
    bool dead = false;
    while (offset < bytes.size() && !dead) {
      const std::size_t chunk = std::min(bytes.size() - offset, 1 + rng.below(17));
      decoder.feed(bytes.data() + offset, chunk);
      offset += chunk;
      for (;;) {
        Frame frame;
        const FrameDecoder::Status status = decoder.next(frame);
        if (status == FrameDecoder::Status::kFrame) continue;
        if (status == FrameDecoder::Status::kError) {
          EXPECT_FALSE(decoder.error().empty());
          dead = true;
        }
        break;
      }
    }
  }
}

TEST(SvcProtocol, TruncatedAndMutatedRealFramesFuzz) {
  AdmitRequest admit;
  admit.shard = 1;
  admit.deadline_ms = 100;
  admit.task = sample_task();
  const std::vector<std::uint8_t> good = encode_message(MsgType::kAdmitRequest, 5, admit);

  // Every truncation is kNeedMore (a valid prefix), never a crash.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(good.data(), cut);
    Frame frame;
    EXPECT_EQ(FrameDecoder::Status::kNeedMore, decoder.next(frame)) << "cut " << cut;
  }

  // Single-byte mutations: any outcome but a crash/hang is acceptable;
  // if a frame comes out, its payload decode must throw or parse cleanly.
  Rng rng(7);
  for (int round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> bytes = good;
    bytes[rng.below(bytes.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    const FrameDecoder::Status status = decoder.next(frame);
    if (status != FrameDecoder::Status::kFrame) continue;
    try {
      util::WireReader reader(frame.payload);
      (void)AdmitRequest::decode(reader);
    } catch (const util::WireError&) {
      // Malformed payloads must surface as WireError - the server turns
      // this into a kBadPayload error reply.
    }
  }
}

TEST(SvcProtocol, PayloadDecodersRejectTruncationAndTrailingBytes) {
  AdmitRequest admit;
  admit.shard = 0;
  admit.task = sample_task();
  util::WireWriter writer;
  admit.encode(writer);
  const std::vector<std::uint8_t> payload = writer.take();

  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    util::WireReader reader(payload.data(), cut);
    EXPECT_THROW((void)AdmitRequest::decode(reader), util::WireError) << "cut " << cut;
  }

  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  util::WireReader reader(padded);
  EXPECT_THROW((void)AdmitRequest::decode(reader), util::WireError);
}

TEST(SvcProtocol, StatusReplyExtendedSectionRoundTrips) {
  StatusReply status;
  status.build = "rtdls (test build)";
  status.algorithm = "EDF-DLT";
  status.node_count = 8;
  status.workers = 2;
  status.shards.resize(2);
  status.shards[0].shard = 0;
  status.shards[1].shard = 1;
  status.extended = true;
  status.uptime_ms = 123456;
  status.queue_depth = 3;
  ShardLatency latency;
  latency.count = 500;
  latency.p50_us = 12.5;
  latency.p90_us = 80.25;
  latency.p99_us = 410.0;
  latency.max_us = 1999.875;
  status.shard_latency.push_back(latency);
  latency.count = 730;
  status.shard_latency.push_back(latency);
  expect_payload_round_trip(status);

  // And decode() really sees the fields, not just matching bytes.
  util::WireWriter writer;
  status.encode(writer);
  const std::vector<std::uint8_t> bytes = writer.take();
  util::WireReader reader(bytes);
  const StatusReply decoded = StatusReply::decode(reader);
  EXPECT_TRUE(decoded.extended);
  EXPECT_EQ(decoded.uptime_ms, 123456u);
  EXPECT_EQ(decoded.queue_depth, 3u);
  ASSERT_EQ(decoded.shard_latency.size(), 2u);
  EXPECT_EQ(decoded.shard_latency[0].count, 500u);
  EXPECT_DOUBLE_EQ(decoded.shard_latency[0].p90_us, 80.25);
  EXPECT_EQ(decoded.shard_latency[1].count, 730u);
}

TEST(SvcProtocol, UnextendedStatusReplyIsTheV10Layout) {
  // extended=false must encode the exact v1.0 byte layout (no trailing
  // section), and decoding it must leave the v1.1 fields at their defaults -
  // this is what a v1.0 client sees and what a v1.1 client reads from a
  // v1.0 daemon.
  StatusReply status;
  status.build = "b";
  status.shards.resize(1);
  status.uptime_ms = 999;  // must NOT be encoded while extended=false
  util::WireWriter writer;
  status.encode(writer);
  const std::vector<std::uint8_t> bytes = writer.take();

  util::WireReader reader(bytes);
  const StatusReply decoded = StatusReply::decode(reader);
  EXPECT_FALSE(decoded.extended);
  EXPECT_EQ(decoded.uptime_ms, 0u);
  EXPECT_EQ(decoded.queue_depth, 0u);
  EXPECT_TRUE(decoded.shard_latency.empty());
}

TEST(SvcProtocol, MetricsMessagesRoundTrip) {
  expect_payload_round_trip(MetricsRequest{});
  MetricsReply reply;
  reply.text = "# TYPE rtdls_daemon_request_latency_us summary\n";
  expect_payload_round_trip(reply);
}

TEST(SvcProtocol, DecoderAcceptsBothProtocolRevisions) {
  // v1.0 frame: accepted, and the frame records which revision it carried
  // (the server encodes its reply at the same revision).
  {
    const std::vector<std::uint8_t> bytes = encode_message(
        MsgType::kStatusRequest, 11, StatusRequest{}, kProtocolVersionV10);
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_EQ(FrameDecoder::Status::kFrame, decoder.next(frame));
    EXPECT_EQ(kProtocolVersionV10, frame.version);
  }
  // v1.1 frame (the default).
  {
    const std::vector<std::uint8_t> bytes =
        encode_message(MsgType::kStatusRequest, 12, StatusRequest{});
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_EQ(FrameDecoder::Status::kFrame, decoder.next(frame));
    EXPECT_EQ(kProtocolVersion, frame.version);
  }
  // A future revision this build does not know: error, not a guess.
  {
    const std::vector<std::uint8_t> bytes =
        encode_message(MsgType::kStatusRequest, 13, StatusRequest{},
                       static_cast<std::uint16_t>(kProtocolVersion + 1));
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    EXPECT_EQ(FrameDecoder::Status::kError, decoder.next(frame));
  }
}

TEST(SvcProtocol, StatusReplyLatencyCountValidatedBeforeReserve) {
  // Same defense as the shard count: an extended reply whose latency count
  // implies more bytes than remain must throw from the length check.
  StatusReply status;
  status.extended = true;
  util::WireWriter writer;
  status.encode(writer);
  std::vector<std::uint8_t> payload = writer.take();
  // The trailing u32 is the (empty) shard_latency count; claim 2^30.
  payload[payload.size() - 4] = 0x00;
  payload[payload.size() - 3] = 0x00;
  payload[payload.size() - 2] = 0x00;
  payload[payload.size() - 1] = 0x40;
  util::WireReader reader(payload);
  EXPECT_THROW((void)StatusReply::decode(reader), util::WireError);
}

TEST(SvcProtocol, SnapshotPlanWithUnsortedReservationsIsRefused) {
  // The snapshot's plan codec restores only plans consistent() accepts, and
  // a waiting plan's commit instant is read off the front of its sorted
  // reserve_from column: a backwards column must not restore.
  sched::TaskPlan plan;
  plan.task = 7;
  plan.nodes = 2;
  plan.available = {0.0, 10.0};
  plan.reserve_from = {20.0, 30.0};
  plan.node_release = {50.0, 50.0};
  plan.alpha = {0.6, 0.4};
  plan.est_completion = 50.0;
  util::WireWriter sorted;
  sched::write_plan(sorted, plan);
  const std::vector<std::uint8_t> sorted_bytes = sorted.take();
  util::WireReader sorted_reader(sorted_bytes);
  EXPECT_TRUE(sched::read_plan(sorted_reader) == plan);

  plan.reserve_from = {30.0, 20.0};  // each entry still within its node's bounds
  util::WireWriter backwards;
  sched::write_plan(backwards, plan);
  const std::vector<std::uint8_t> backwards_bytes = backwards.take();
  util::WireReader backwards_reader(backwards_bytes);
  EXPECT_THROW((void)sched::read_plan(backwards_reader), std::runtime_error);
}

TEST(SvcProtocol, StatusReplyShardCountValidatedBeforeReserve) {
  // A StatusReply whose shard count implies more bytes than the payload
  // holds must throw from the length check, not allocate first.
  util::WireWriter writer;
  StatusReply status;  // empty build/algorithm strings encode fine
  status.encode(writer);
  std::vector<std::uint8_t> payload = writer.take();
  // The trailing u32 is the (empty) shard vector's count; claim 2^31.
  payload[payload.size() - 4] = 0x00;
  payload[payload.size() - 3] = 0x00;
  payload[payload.size() - 2] = 0x00;
  payload[payload.size() - 1] = 0x80;
  util::WireReader reader(payload);
  EXPECT_THROW((void)StatusReply::decode(reader), util::WireError);
}

// --- golden frames ----------------------------------------------------------
// Every other test here is a round trip, which an encoder and a decoder
// changed the same wrong way would pass. The golden table pins the bytes
// themselves: one fixed message of every type, framed at both revisions.

constexpr std::uint64_t kGoldenRequestId = 0x1122334455667788ull;

TaskRecord golden_task() {
  TaskRecord task;
  task.id = 0x0102030405060708ull;
  task.arrival = 1234.5;
  task.sigma = 200.25;
  task.rel_deadline = 5000.125;
  task.user_nodes = 3;
  return task;
}

StatusReply golden_status(bool extended) {
  StatusReply status;
  status.build = "rtdls test";
  status.algorithm = "EDF-DLT";
  status.node_count = 16;
  status.workers = 4;
  status.counters.connections = 1;
  status.counters.requests = 2;
  status.counters.admits = 3;
  status.counters.commits = 4;
  status.counters.cancels = 5;
  status.counters.status_queries = 6;
  status.counters.snapshots = 7;
  status.counters.errors = 8;
  status.counters.timeouts = 9;
  status.counters.restores = 10;
  for (std::uint32_t i = 0; i < 2; ++i) {
    ShardStatus shard;
    shard.shard = i;
    shard.now = 1000.5 + i;
    shard.waiting = 11 + i;
    shard.admits = 12 + i;
    shard.accepted = 13 + i;
    shard.rejected = 14 + i;
    shard.committed = 15 + i;
    shard.cancelled = 16 + i;
    shard.session_bytes = 320 + i;
    shard.session_dense_bytes = 256 + i;
    shard.peak_session_bytes = 376 + i;
    status.shards.push_back(shard);
  }
  status.extended = extended;
  if (extended) {
    status.uptime_ms = 123456;
    status.queue_depth = 2;
    for (std::uint32_t i = 0; i < 2; ++i) {
      ShardLatency latency;
      latency.count = 500 + i;
      latency.p50_us = 12.5 + i;
      latency.p90_us = 80.25 + i;
      latency.p99_us = 410.0 + i;
      latency.max_us = 1999.875 + i;
      status.shard_latency.push_back(latency);
    }
  }
  return status;
}

/// Calls `visit` with the fixed message of `type`; the StatusReply carries
/// its v1.1 extension exactly when `version` is v1.1.
template <typename Visit>
auto with_golden_message(MsgType type, std::uint16_t version, Visit&& visit) {
  switch (type) {
    case MsgType::kAdmitRequest: {
      AdmitRequest m;
      m.shard = 2;
      m.deadline_ms = 750;
      m.task = golden_task();
      return visit(m);
    }
    case MsgType::kAdmitReply: {
      AdmitReply m;
      m.accepted = true;
      m.reason = 2;
      m.blocking_task = 7;
      m.decision_seq = 99;
      m.est_completion = 4120.875;
      m.nodes = 5;
      m.waiting = 11;
      return visit(m);
    }
    case MsgType::kCommitRequest: {
      CommitRequest m;
      m.shard = 1;
      m.task = 42;
      return visit(m);
    }
    case MsgType::kCommitReply: {
      CommitReply m;
      m.committed = true;
      m.committed_at = 321.0625;
      m.also_committed = 2;
      return visit(m);
    }
    case MsgType::kCancelRequest: {
      CancelRequest m;
      m.shard = 3;
      m.task = 17;
      return visit(m);
    }
    case MsgType::kCancelReply: {
      CancelReply m;
      m.cancelled = true;
      return visit(m);
    }
    case MsgType::kStatusRequest: return visit(StatusRequest{});
    case MsgType::kStatusReply: return visit(golden_status(version != kProtocolVersionV10));
    case MsgType::kSnapshotRequest: {
      SnapshotRequest m;
      m.path = "snap.bin";
      return visit(m);
    }
    case MsgType::kSnapshotReply: {
      SnapshotReply m;
      m.shards = 4;
      m.bytes = 1213;
      return visit(m);
    }
    case MsgType::kShutdownRequest: return visit(ShutdownRequest{});
    case MsgType::kShutdownReply: return visit(ShutdownReply{});
    case MsgType::kDebugSleepRequest: {
      DebugSleepRequest m;
      m.shard = 1;
      m.millis = 250;
      return visit(m);
    }
    case MsgType::kDebugSleepReply: {
      DebugSleepReply m;
      m.slept_ms = 250;
      return visit(m);
    }
    case MsgType::kMetricsRequest: return visit(MetricsRequest{});
    case MsgType::kMetricsReply: {
      MetricsReply m;
      m.text = "rtdls_daemon_admits_total 3\n";
      return visit(m);
    }
    case MsgType::kErrorReply: {
      ErrorReply m;
      m.code = ErrorCode::kTimeout;
      m.message = "shard busy";
      return visit(m);
    }
  }
  throw std::logic_error("no golden message for this type");
}

struct GoldenFrame {
  MsgType type;
  std::uint16_t version;
  const char* hex;  ///< the whole frame: the 20-byte header, then the payload
};

const GoldenFrame kGoldenFrames[] = {
    {MsgType::kAdmitRequest, kProtocolVersionV10,
     "5254444c01000100887766554433221130000000"
     "02000000ee020000080706050403020100000000004a93400000000000086940"
     "000000002088b3400300000000000000"},
    {MsgType::kAdmitRequest, kProtocolVersion,
     "5254444c02000100887766554433221130000000"
     "02000000ee020000080706050403020100000000004a93400000000000086940"
     "000000002088b3400300000000000000"},
    {MsgType::kAdmitReply, kProtocolVersionV10,
     "5254444c0100650088776655443322112a000000"
     "01020700000000000000630000000000000000000000e018b040050000000000"
     "00000b00000000000000"},
    {MsgType::kAdmitReply, kProtocolVersion,
     "5254444c0200650088776655443322112a000000"
     "01020700000000000000630000000000000000000000e018b040050000000000"
     "00000b00000000000000"},
    {MsgType::kCommitRequest, kProtocolVersionV10,
     "5254444c0100020088776655443322110c000000"
     "010000002a00000000000000"},
    {MsgType::kCommitRequest, kProtocolVersion,
     "5254444c0200020088776655443322110c000000"
     "010000002a00000000000000"},
    {MsgType::kCommitReply, kProtocolVersionV10,
     "5254444c01006600887766554433221111000000"
     "0100000000001174400200000000000000"},
    {MsgType::kCommitReply, kProtocolVersion,
     "5254444c02006600887766554433221111000000"
     "0100000000001174400200000000000000"},
    {MsgType::kCancelRequest, kProtocolVersionV10,
     "5254444c0100030088776655443322110c000000"
     "030000001100000000000000"},
    {MsgType::kCancelRequest, kProtocolVersion,
     "5254444c0200030088776655443322110c000000"
     "030000001100000000000000"},
    {MsgType::kCancelReply, kProtocolVersionV10,
     "5254444c01006700887766554433221101000000"
     "01"},
    {MsgType::kCancelReply, kProtocolVersion,
     "5254444c02006700887766554433221101000000"
     "01"},
    {MsgType::kStatusRequest, kProtocolVersionV10,
     "5254444c01000400887766554433221100000000"},
    {MsgType::kStatusRequest, kProtocolVersion,
     "5254444c02000400887766554433221100000000"},
    {MsgType::kStatusReply, kProtocolVersionV10,
     "5254444c01006800887766554433221125010000"
     "0a0000007274646c732074657374070000004544462d444c5410000000000000"
     "0004000000000000000100000000000000020000000000000003000000000000"
     "0004000000000000000500000000000000060000000000000007000000000000"
     "00080000000000000009000000000000000a0000000000000002000000000000"
     "000000000000448f400b000000000000000c000000000000000d000000000000"
     "000e000000000000000f00000000000000100000000000000040010000000000"
     "00000100000000000078010000000000000100000000000000004c8f400c0000"
     "00000000000d000000000000000e000000000000000f00000000000000100000"
     "0000000000110000000000000041010000000000000101000000000000790100"
     "0000000000"},
    {MsgType::kStatusReply, kProtocolVersion,
     "5254444c02006800887766554433221189010000"
     "0a0000007274646c732074657374070000004544462d444c5410000000000000"
     "0004000000000000000100000000000000020000000000000003000000000000"
     "0004000000000000000500000000000000060000000000000007000000000000"
     "00080000000000000009000000000000000a0000000000000002000000000000"
     "000000000000448f400b000000000000000c000000000000000d000000000000"
     "000e000000000000000f00000000000000100000000000000040010000000000"
     "00000100000000000078010000000000000100000000000000004c8f400c0000"
     "00000000000d000000000000000e000000000000000f00000000000000100000"
     "0000000000110000000000000041010000000000000101000000000000790100"
     "000000000040e2010000000000020000000000000002000000f4010000000000"
     "00000000000000294000000000001054400000000000a0794000000000803f9f"
     "40f5010000000000000000000000002b4000000000005054400000000000b079"
     "400000000080439f40"},
    {MsgType::kSnapshotRequest, kProtocolVersionV10,
     "5254444c0100050088776655443322110c000000"
     "08000000736e61702e62696e"},
    {MsgType::kSnapshotRequest, kProtocolVersion,
     "5254444c0200050088776655443322110c000000"
     "08000000736e61702e62696e"},
    {MsgType::kSnapshotReply, kProtocolVersionV10,
     "5254444c01006900887766554433221110000000"
     "0400000000000000bd04000000000000"},
    {MsgType::kSnapshotReply, kProtocolVersion,
     "5254444c02006900887766554433221110000000"
     "0400000000000000bd04000000000000"},
    {MsgType::kShutdownRequest, kProtocolVersionV10,
     "5254444c01000600887766554433221100000000"},
    {MsgType::kShutdownRequest, kProtocolVersion,
     "5254444c02000600887766554433221100000000"},
    {MsgType::kShutdownReply, kProtocolVersionV10,
     "5254444c01006a00887766554433221100000000"},
    {MsgType::kShutdownReply, kProtocolVersion,
     "5254444c02006a00887766554433221100000000"},
    {MsgType::kDebugSleepRequest, kProtocolVersionV10,
     "5254444c01000700887766554433221108000000"
     "01000000fa000000"},
    {MsgType::kDebugSleepRequest, kProtocolVersion,
     "5254444c02000700887766554433221108000000"
     "01000000fa000000"},
    {MsgType::kDebugSleepReply, kProtocolVersionV10,
     "5254444c01006b00887766554433221104000000"
     "fa000000"},
    {MsgType::kDebugSleepReply, kProtocolVersion,
     "5254444c02006b00887766554433221104000000"
     "fa000000"},
    {MsgType::kMetricsRequest, kProtocolVersionV10,
     "5254444c01000800887766554433221100000000"},
    {MsgType::kMetricsRequest, kProtocolVersion,
     "5254444c02000800887766554433221100000000"},
    {MsgType::kMetricsReply, kProtocolVersionV10,
     "5254444c01006c00887766554433221120000000"
     "1c0000007274646c735f6461656d6f6e5f61646d6974735f746f74616c20330a"},
    {MsgType::kMetricsReply, kProtocolVersion,
     "5254444c02006c00887766554433221120000000"
     "1c0000007274646c735f6461656d6f6e5f61646d6974735f746f74616c20330a"},
    {MsgType::kErrorReply, kProtocolVersionV10,
     "5254444c0100ff00887766554433221110000000"
     "06000a00000073686172642062757379"},
    {MsgType::kErrorReply, kProtocolVersion,
     "5254444c0200ff00887766554433221110000000"
     "06000a00000073686172642062757379"},
};

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (std::uint8_t byte : bytes) {
    hex += kDigits[byte >> 4];
    hex += kDigits[byte & 0xf];
  }
  return hex;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

TEST(SvcProtocol, GoldenFramesPinTheWireLayout) {
  std::set<std::pair<MsgType, std::uint16_t>> covered;
  for (const GoldenFrame& golden : kGoldenFrames) {
    SCOPED_TRACE("type " + std::to_string(static_cast<int>(golden.type)) + " version " +
                 std::to_string(golden.version));
    EXPECT_TRUE(covered.emplace(golden.type, golden.version).second) << "listed twice";

    // Encode: the fixed message must frame to exactly the golden bytes.
    const std::vector<std::uint8_t> encoded =
        with_golden_message(golden.type, golden.version, [&](const auto& message) {
          return encode_message(golden.type, kGoldenRequestId, message, golden.version);
        });
    EXPECT_EQ(golden.hex, to_hex(encoded));

    // Decode: the golden bytes must parse as one frame of that type, and
    // its payload must decode to a message that encodes back to them.
    const std::vector<std::uint8_t> bytes = from_hex(golden.hex);
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    Frame frame;
    ASSERT_EQ(FrameDecoder::Status::kFrame, decoder.next(frame));
    EXPECT_EQ(0u, decoder.buffered());
    EXPECT_EQ(golden.type, frame.type);
    EXPECT_EQ(golden.version, frame.version);
    EXPECT_EQ(kGoldenRequestId, frame.request_id);
    const std::vector<std::uint8_t> reencoded =
        with_golden_message(golden.type, golden.version, [&](const auto& message) {
          using Message = std::decay_t<decltype(message)>;
          util::WireReader in(frame.payload);
          const Message decoded = Message::decode(in);
          return encode_message(frame.type, frame.request_id, decoded, frame.version);
        });
    EXPECT_EQ(golden.hex, to_hex(reencoded));
  }
  // Every request and reply type, at v1.0 and at v1.1.
  EXPECT_EQ(2u * 17u, covered.size());
}

TEST(SvcProtocol, EncodeIntoABufferReplacesItAndReusesItsCapacity) {
  // A large frame, then a small one, into the same buffer: the second must
  // be exactly the fresh encoding (no stale bytes, its own length patched
  // in), written into the storage the first one left.
  std::vector<std::uint8_t> out;
  MetricsReply metrics;
  metrics.text.assign(4096, 'x');
  encode_message(out, MsgType::kMetricsReply, 1, metrics);
  EXPECT_EQ(encode_message(MsgType::kMetricsReply, 1, metrics), out);
  const std::uint8_t* storage = out.data();

  CommitRequest commit;
  commit.shard = 1;
  commit.task = 42;
  encode_message(out, MsgType::kCommitRequest, 2, commit, kProtocolVersionV10);
  EXPECT_EQ(encode_message(MsgType::kCommitRequest, 2, commit, kProtocolVersionV10), out);
  EXPECT_EQ(storage, out.data());

  // The decoder likewise refills a reused Frame in the payload storage it
  // already has.
  FrameDecoder decoder;
  Frame frame;
  const std::vector<std::uint8_t> large = encode_message(MsgType::kMetricsReply, 1, metrics);
  decoder.feed(large.data(), large.size());
  ASSERT_EQ(FrameDecoder::Status::kFrame, decoder.next(frame));
  const std::uint8_t* payload = frame.payload.data();
  decoder.feed(out.data(), out.size());
  ASSERT_EQ(FrameDecoder::Status::kFrame, decoder.next(frame));
  EXPECT_EQ(payload, frame.payload.data());
  util::WireReader in(frame.payload);
  EXPECT_EQ(42u, CommitRequest::decode(in).task);
}

TEST(SvcProtocol, EncodeRefusesAPayloadOverTheCap) {
  MetricsReply metrics;
  metrics.text.assign(kMaxPayload, 'x');  // plus its u32 length prefix
  std::vector<std::uint8_t> out;
  EXPECT_THROW(encode_message(out, MsgType::kMetricsReply, 1, metrics), util::WireError);
  metrics.text.resize(kMaxPayload - 4);  // exactly at the cap
  encode_message(out, MsgType::kMetricsReply, 1, metrics);
  EXPECT_EQ(kFrameHeaderSize + kMaxPayload, out.size());
}

}  // namespace
}  // namespace rtdls::svc
