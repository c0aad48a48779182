// Wire-protocol tests: codec round trips for every message type, and fuzz
// over the frame decoder and payload decoders with truncated, oversized,
// and garbage byte strings. The invariant under fuzz is "error reported,
// never a crash, a hang, or an out-of-bounds read".
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
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

}  // namespace
}  // namespace rtdls::svc
