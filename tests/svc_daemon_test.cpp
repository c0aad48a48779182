// rtdlsd subsystem tests: snapshot -> kill -> restore bit-identity at shard
// and socket level, the snapshot container's refusals and its reserved byte,
// the concurrent-vs-serial op-log differential, per-request
// deadlines under a deliberately hung request, and protocol-error survival
// over a real socket.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/speed_profile.hpp"
#include "sched/plan_io.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "svc/shard.hpp"
#include "svc/snapshot.hpp"

namespace rtdls::svc {
namespace {

std::string test_socket(const std::string& tag) {
  return "/tmp/rtdls_test_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

std::string test_file(const std::string& tag) {
  return "/tmp/rtdls_test_" + std::to_string(::getpid()) + "_" + tag;
}

// --- shard-level snapshot bit-identity --------------------------------------

struct TestOp {
  OpRecord::Kind kind = OpRecord::Kind::kAdmit;
  TaskRecord record;
  cluster::TaskId task = cluster::kNoTask;
};

/// A deterministic workload that produces accepts, rejects, auto-commits,
/// explicit commits, and cancels (including not-waiting errors) - every
/// code path the snapshot must preserve.
std::vector<TestOp> scripted_ops(std::size_t count) {
  std::vector<TestOp> ops;
  ops.reserve(count);
  for (std::size_t step = 0; step < count; ++step) {
    if (step % 5 == 4) {
      TestOp op;
      op.kind = step % 10 == 9 ? OpRecord::Kind::kCancel : OpRecord::Kind::kCommit;
      op.task = static_cast<cluster::TaskId>(step);  // may or may not be waiting
      ops.push_back(op);
      continue;
    }
    TestOp op;
    op.record.id = static_cast<cluster::TaskId>(step + 1);
    op.record.arrival = static_cast<double>(step) * 2200.0;
    op.record.sigma = 120.0 + static_cast<double>(step % 7) * 25.0;
    op.record.rel_deadline = 4000.0 + static_cast<double>(step % 3) * 800.0;
    op.record.user_nodes = step % 11 == 6 ? 3 : 0;
    ops.push_back(op);
  }
  return ops;
}

/// Applies one op and returns its outcome as bytes: the encoded reply on
/// success, the error text on a ShardError. Bit-identity means two shards
/// produce the same string for the same op.
std::string apply_op(AdmissionShard& shard, const TestOp& op) {
  try {
    util::WireWriter writer;
    switch (op.kind) {
      case OpRecord::Kind::kAdmit:
        shard.admit(op.record).encode(writer);
        break;
      case OpRecord::Kind::kCommit:
        shard.commit(op.task).encode(writer);
        break;
      case OpRecord::Kind::kCancel:
        shard.cancel(op.task).encode(writer);
        break;
    }
    const std::vector<std::uint8_t> bytes = writer.take();
    return std::string(bytes.begin(), bytes.end());
  } catch (const ShardError& error) {
    return std::string("ERR:") + error.what();
  }
}

std::vector<std::uint8_t> snapshot_bytes(const AdmissionShard& shard) {
  util::WireWriter writer;
  shard.snapshot_to(writer);
  return writer.take();
}

void expect_snapshot_restore_bit_identity(const std::string& algorithm, bool heterogeneous) {
  SCOPED_TRACE(algorithm + (heterogeneous ? " het" : " hom"));
  ShardConfig config;
  config.params.node_count = 8;
  config.params.cms = 1.0;
  config.params.cps = 100.0;
  if (heterogeneous) {
    config.params.speed_profile = std::make_shared<const cluster::SpeedProfile>(
        std::vector<double>{70.0, 85.0, 95.0, 100.0, 110.0, 120.0, 140.0, 160.0});
  }

  const std::vector<TestOp> ops = scripted_ops(40);
  const std::size_t cut = 20;

  // The uninterrupted shard runs everything.
  AdmissionShard full(algorithm, config);
  for (std::size_t i = 0; i < cut; ++i) apply_op(full, ops[i]);

  // "Kill": capture the snapshot mid-run, restore onto a fresh shard.
  const std::vector<std::uint8_t> mid = snapshot_bytes(full);
  AdmissionShard restored(algorithm, config);
  {
    util::WireReader reader(mid);
    restored.restore_from(reader);
    reader.expect_done();
  }
  // The restored shard's state re-serializes identically.
  EXPECT_EQ(mid, snapshot_bytes(restored));

  // Every subsequent decision (accept/reject, est_completion bits, errors)
  // must be identical between the survivor and the restored shard.
  for (std::size_t i = cut; i < ops.size(); ++i) {
    EXPECT_EQ(apply_op(full, ops[i]), apply_op(restored, ops[i])) << "op " << i;
  }
  EXPECT_EQ(snapshot_bytes(full), snapshot_bytes(restored));
}

TEST(SvcShard, SnapshotRestoreBitIdentityAcrossAlgorithms) {
  for (const char* algorithm :
       {"EDF-DLT", "FIFO-DLT", "EDF-MR2", "FIFO-MR2", "EDF-OPR-MN-BF", "FIFO-OPR-MN-BF"}) {
    expect_snapshot_restore_bit_identity(algorithm, /*heterogeneous=*/false);
    expect_snapshot_restore_bit_identity(algorithm, /*heterogeneous=*/true);
  }
}

TEST(SvcShard, InfiniteClusterCostsFailAtConstruction) {
  // A shard over an infinite Cms or Cps used to start and then reject every
  // admit as transmission-too-long; the cluster parameters now fail with
  // the typed invalid-argument error before the shard exists.
  for (const bool channel : {true, false}) {
    ShardConfig config;
    config.params.node_count = 16;
    (channel ? config.params.cms : config.params.cps) =
        std::numeric_limits<double>::infinity();
    EXPECT_THROW(AdmissionShard("EDF-DLT", config), std::invalid_argument)
        << (channel ? "cms" : "cps");
  }
}

TEST(SvcShard, RestoreRejectsNonFiniteNodeTimeBeforeChangingState) {
  // A snapshot whose node record carries a NaN release time must fail with
  // the typed restore error, whichever node it is, and leave the shard as
  // it was: such a time cannot be placed in the sorted availability index.
  ShardConfig config;
  config.params.node_count = 16;
  AdmissionShard source("EDF-DLT", config);
  for (const TestOp& op : scripted_ops(20)) apply_op(source, op);
  const std::vector<std::uint8_t> good = snapshot_bytes(source);
  const std::vector<std::uint8_t> fresh =
      snapshot_bytes(AdmissionShard("EDF-DLT", config));

  // Clock and six counters (8 bytes each), the node count (4), then per
  // node free_at, busy, idle (f64) and commitments (u64).
  constexpr std::size_t kNodesAt = 7 * 8 + 4;
  util::WireWriter nan_writer;
  nan_writer.f64(std::numeric_limits<double>::quiet_NaN());
  const std::vector<std::uint8_t> nan = nan_writer.take();
  for (const std::size_t node : {std::size_t{0}, std::size_t{15}}) {
    SCOPED_TRACE("node " + std::to_string(node));
    std::vector<std::uint8_t> bad = good;
    std::copy(nan.begin(), nan.end(),
              bad.begin() + static_cast<std::ptrdiff_t>(kNodesAt + node * 32));
    AdmissionShard restored("EDF-DLT", config);
    util::WireReader reader(bad);
    EXPECT_THROW(restored.restore_from(reader), std::runtime_error);
    EXPECT_EQ(fresh, snapshot_bytes(restored));
  }
  // The unpatched bytes still restore.
  AdmissionShard restored("EDF-DLT", config);
  util::WireReader reader(good);
  restored.restore_from(reader);
  EXPECT_EQ(good, snapshot_bytes(restored));
}

std::vector<std::uint8_t> status_bytes(const AdmissionShard& shard) {
  ShardStatus status;
  shard.fill_status(status);
  util::WireWriter writer;
  status.encode(writer);
  return writer.take();
}

TEST(SvcShard, RestoreRejectsNanCalendarIntervalBeforeChangingState) {
  // A calendar interval with a NaN bound passes a bare `end < start` check,
  // and once booked it lets later reservations overlap. Restore must refuse
  // it with the typed restore error and leave the shard as it was.
  ShardConfig config;
  config.params.node_count = 8;
  AdmissionShard source("EDF-OPR-MN-BF", config);
  for (const TestOp& op : scripted_ops(20)) apply_op(source, op);
  const std::vector<std::uint8_t> good = snapshot_bytes(source);

  // Walk to the first booked interval: clock and six counters, the node
  // count, 32 bytes per node record, the calendar flag, then per node a
  // u32 interval count and (start, end) f64 pairs.
  util::WireReader walk(good);
  for (int i = 0; i < 7; ++i) walk.u64();
  const std::uint32_t nodes = walk.u32();
  for (std::uint32_t i = 0; i < nodes * 4; ++i) walk.u64();
  ASSERT_EQ(walk.u8(), 1u);
  std::size_t end_at = 0;
  for (std::uint32_t node = 0; node < nodes && end_at == 0; ++node) {
    const std::uint32_t count = walk.u32();
    if (count != 0) end_at = good.size() - walk.remaining() + 8;
    for (std::uint32_t i = 0; i < 2 * count; ++i) walk.f64();
  }
  ASSERT_NE(end_at, 0u) << "the script booked no calendar interval";

  util::WireWriter nan_writer;
  nan_writer.f64(std::numeric_limits<double>::quiet_NaN());
  const std::vector<std::uint8_t> nan = nan_writer.take();
  std::vector<std::uint8_t> bad = good;
  std::copy(nan.begin(), nan.end(), bad.begin() + static_cast<std::ptrdiff_t>(end_at));

  // The target has state of its own, so "unchanged" is not just "fresh".
  AdmissionShard restored("EDF-OPR-MN-BF", config);
  for (const TestOp& op : scripted_ops(6)) apply_op(restored, op);
  const std::vector<std::uint8_t> snapshot_before = snapshot_bytes(restored);
  const std::vector<std::uint8_t> status_before = status_bytes(restored);
  util::WireReader reader(bad);
  try {
    restored.restore_from(reader);
    ADD_FAILURE() << "restore accepted a NaN calendar interval";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("shard restore"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(snapshot_before, snapshot_bytes(restored));
  EXPECT_EQ(status_before, status_bytes(restored));

  // The unpatched bytes still restore.
  util::WireReader good_reader(good);
  restored.restore_from(good_reader);
  EXPECT_EQ(good, snapshot_bytes(restored));
}

TEST(SvcShard, AdmitRejectsMalformedTaskRecordsBeforeChangingState) {
  // The fields load_trace refuses in a trace row. A NaN arrival used to be
  // admitted - the shard clock ignored it and every deadline comparison
  // passed - after which the id could never be admitted again.
  ShardConfig config;
  config.params.node_count = 16;
  AdmissionShard shard("EDF-DLT", config);
  for (const TestOp& op : scripted_ops(6)) apply_op(shard, op);
  const std::vector<std::uint8_t> snapshot_before = snapshot_bytes(shard);
  const std::vector<std::uint8_t> status_before = status_bytes(shard);

  TaskRecord valid;
  valid.id = 100;
  valid.arrival = 20000.0;
  valid.sigma = 200.0;
  valid.rel_deadline = 3000.0;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto with = [&](auto edit) {
    TaskRecord record = valid;
    edit(record);
    return record;
  };
  const std::vector<std::pair<std::string, TaskRecord>> malformed{
      {"NaN arrival", with([&](TaskRecord& r) { r.arrival = nan; })},
      {"infinite sigma", with([&](TaskRecord& r) { r.sigma = inf; })},
      {"zero deadline", with([&](TaskRecord& r) { r.rel_deadline = 0.0; })},
      {"NaN deadline", with([&](TaskRecord& r) { r.rel_deadline = nan; })},
      {"kNoTask id", with([&](TaskRecord& r) { r.id = cluster::kNoTask; })},
  };
  for (const auto& [what, record] : malformed) {
    SCOPED_TRACE(what);
    try {
      shard.admit(record);
      ADD_FAILURE() << "admitted";
    } catch (const ShardError& error) {
      EXPECT_EQ(error.code(), ErrorCode::kBadPayload) << error.what();
    }
    EXPECT_EQ(snapshot_before, snapshot_bytes(shard));
    EXPECT_EQ(status_before, status_bytes(shard));
  }
  EXPECT_TRUE(shard.admit(valid).accepted);
}

TEST(SvcShard, AdmitOfAnIdAlreadyWaitingIsABadPayloadAndCountsNoAdmit) {
  // A second admit of a waiting id is a refused record, like a malformed
  // one: kBadPayload (not kUnknownTask, which names a commit/cancel target
  // that is not waiting), no admit counted and no state changed.
  ShardConfig config;
  config.params.node_count = 16;
  AdmissionShard shard("EDF-DLT", config);
  TaskRecord record;
  record.id = 7;
  record.arrival = 0.0;
  record.sigma = 200.0;
  record.rel_deadline = 3000.0;
  ASSERT_TRUE(shard.admit(record).accepted);
  ASSERT_EQ(shard.waiting(), 1u);
  const std::vector<std::uint8_t> snapshot_before = snapshot_bytes(shard);

  try {
    shard.admit(record);
    ADD_FAILURE() << "a second admit of task 7 went through";
  } catch (const ShardError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kBadPayload) << error.what();
    EXPECT_NE(std::string(error.what()).find("task 7 is already waiting"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(snapshot_before, snapshot_bytes(shard));
  ShardStatus status;
  shard.fill_status(status);
  EXPECT_EQ(status.admits, 1u);
  EXPECT_EQ(status.accepted, 1u);
  EXPECT_EQ(status.rejected, 0u);
  EXPECT_EQ(status.waiting, 1u);
}

TEST(SvcShard, RestoreRejectsAWaitingTaskWithNanArrivalBeforeChangingState) {
  // Restore applies admit's task check to every waiting task.
  ShardConfig config;
  config.params.node_count = 16;
  AdmissionShard source("EDF-DLT", config);
  for (const TestOp& op : scripted_ops(6)) apply_op(source, op);
  TaskRecord record;
  record.id = 100;
  record.arrival = 20000.0;
  record.sigma = 200.0;
  record.rel_deadline = 3000.0;
  ASSERT_TRUE(source.admit(record).accepted);
  const std::vector<std::uint8_t> good = snapshot_bytes(source);

  // Clock and six counters, the node count, 32 bytes per node record, the
  // calendar flag, the waiting count, then the first task's id and arrival.
  util::WireReader walk(good);
  for (int i = 0; i < 7; ++i) walk.u64();
  const std::uint32_t nodes = walk.u32();
  for (std::uint32_t i = 0; i < nodes * 4; ++i) walk.u64();
  ASSERT_EQ(walk.u8(), 0u);
  ASSERT_GT(walk.u32(), 0u);
  walk.u64();
  const std::size_t arrival_at = good.size() - walk.remaining();
  util::WireWriter nan_writer;
  nan_writer.f64(std::numeric_limits<double>::quiet_NaN());
  const std::vector<std::uint8_t> nan = nan_writer.take();
  std::vector<std::uint8_t> bad = good;
  std::copy(nan.begin(), nan.end(), bad.begin() + static_cast<std::ptrdiff_t>(arrival_at));

  AdmissionShard restored("EDF-DLT", config);
  for (const TestOp& op : scripted_ops(4)) apply_op(restored, op);
  const std::vector<std::uint8_t> snapshot_before = snapshot_bytes(restored);
  const std::vector<std::uint8_t> status_before = status_bytes(restored);
  util::WireReader reader(bad);
  try {
    restored.restore_from(reader);
    ADD_FAILURE() << "restore accepted a NaN arrival";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("shard restore"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(snapshot_before, snapshot_bytes(restored));
  EXPECT_EQ(status_before, status_bytes(restored));

  util::WireReader good_reader(good);
  restored.restore_from(good_reader);
  EXPECT_EQ(good, snapshot_bytes(restored));
}

TEST(SvcShard, RestoreRejectsAnImpossibleCommitInstantBeforeChangingState) {
  // A waiting plan commits at its commit_at. A NaN never compares due, so
  // the plan would block every later temp list; +inf commits never and
  // drags the clock to infinity; an instant before the plan's first
  // reservation books the nodes before the plan may start; a clock past it
  // would book them in the shard's past (a live shard commits every plan
  // due by its clock). Restore refuses all four.
  ShardConfig config;
  config.params.node_count = 16;
  AdmissionShard source("EDF-DLT", config);
  TaskRecord record;
  record.id = 100;
  record.arrival = 20000.0;
  record.sigma = 200.0;
  record.rel_deadline = 3000.0;
  ASSERT_TRUE(source.admit(record).accepted);
  const std::vector<std::uint8_t> good = snapshot_bytes(source);

  // Clock and six counters, the node count, 32 bytes per node record, the
  // calendar flag, the waiting count, then the only task, its plan and its
  // commit instant.
  util::WireReader walk(good);
  for (int i = 0; i < 7; ++i) walk.u64();
  const std::uint32_t nodes = walk.u32();
  for (std::uint32_t i = 0; i < nodes * 4; ++i) walk.u64();
  ASSERT_EQ(walk.u8(), 0u);
  ASSERT_EQ(walk.u32(), 1u);
  sched::read_task(walk);
  const sched::TaskPlan plan = sched::read_plan(walk);
  const std::size_t commit_at = good.size() - walk.remaining();
  const double instant = walk.f64();
  ASSERT_GE(instant, plan.commit_time());

  // (offset, value): the commit instant, or the clock at offset 0.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::size_t, double>> patches{
      {commit_at, std::numeric_limits<double>::quiet_NaN()},
      {commit_at, inf},
      {commit_at, std::nextafter(plan.commit_time(), -inf)},
      {0, std::nextafter(instant, inf)},
  };
  for (const auto& [offset, value] : patches) {
    SCOPED_TRACE("offset " + std::to_string(offset) + " value " + std::to_string(value));
    util::WireWriter patch;
    patch.f64(value);
    const std::vector<std::uint8_t> bytes = patch.take();
    std::vector<std::uint8_t> bad = good;
    std::copy(bytes.begin(), bytes.end(), bad.begin() + static_cast<std::ptrdiff_t>(offset));

    AdmissionShard restored("EDF-DLT", config);
    for (const TestOp& op : scripted_ops(4)) apply_op(restored, op);
    const std::vector<std::uint8_t> snapshot_before = snapshot_bytes(restored);
    const std::vector<std::uint8_t> status_before = status_bytes(restored);
    util::WireReader reader(bad);
    try {
      restored.restore_from(reader);
      ADD_FAILURE() << "restore accepted an impossible commit instant";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("shard restore"), std::string::npos)
          << error.what();
    }
    EXPECT_EQ(snapshot_before, snapshot_bytes(restored));
    EXPECT_EQ(status_before, status_bytes(restored));
  }

  AdmissionShard restored("EDF-DLT", config);
  util::WireReader reader(good);
  restored.restore_from(reader);
  EXPECT_EQ(good, snapshot_bytes(restored));
}

// --- the snapshot container --------------------------------------------------

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Recomputes the FNV-1a trailer over an edited container.
void reseal(std::vector<std::uint8_t>& bytes) {
  const std::size_t payload = bytes.size() - 8;
  const std::uint64_t sum = util::fnv1a64(bytes.data(), payload);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[payload + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

/// The shard config of the one-shard containers below.
ShardConfig container_config() {
  ShardConfig config;
  config.params.node_count = 8;
  return config;
}

/// Writes a one-shard EDF-DLT container, taken after the first half of
/// scripted_ops(40), to `path` and returns its bytes.
std::vector<std::uint8_t> write_container(const std::string& path) {
  AdmissionShard shard("EDF-DLT", container_config());
  const std::vector<TestOp> ops = scripted_ops(40);
  for (std::size_t i = 0; i < 20; ++i) apply_op(shard, ops[i]);
  write_snapshot(path, SnapshotMeta{"EDF-DLT", container_config().params},
                 {snapshot_bytes(shard)});
  return read_file(path);
}

TEST(SvcSnapshot, ReadRefusesMalformedContainers) {
  const std::vector<std::uint8_t> good = write_container(test_file("good.snap"));
  ASSERT_NO_THROW((void)read_snapshot(test_file("good.snap")));
  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] = 'X';
  std::vector<std::uint8_t> flipped = good;
  flipped[flipped.size() / 2] ^= 0x01;
  std::vector<std::uint8_t> version2 = good;
  version2[8] = 2;  // the u16 after the magic
  version2[9] = 0;
  reseal(version2);
  write_file(test_file("magic.snap"), bad_magic);
  write_file(test_file("flipped.snap"), flipped);
  write_file(test_file("truncated.snap"), {good.begin(), good.end() - 9});
  write_file(test_file("version2.snap"), version2);
  std::filesystem::create_directory(test_file("snapshot_dir"));
  // The good container with its shard count set to 0 and its one blob
  // dropped: magic, version, the algorithm string, three 8-byte params,
  // has-profile and the reserved byte precede the u32 count.
  const std::size_t count = 8 + 2 + 4 + std::string("EDF-DLT").size() + 24 + 1 + 1;
  std::vector<std::uint8_t> zero(good.begin(), good.begin() + count);
  zero.resize(count + 4 + 8, 0);  // the count, then the trailer
  reseal(zero);
  write_file(test_file("zero.snap"), zero);

  // Each row names the refusal it must hit, so a malformed row fails for
  // its own fault and not an earlier one.
  const std::tuple<const char*, std::string, const char*> rows[] = {
      {"bad magic", test_file("magic.snap"), "is not a snapshot file"},
      {"one flipped body byte", test_file("flipped.snap"), "checksum mismatch"},
      {"truncated", test_file("truncated.snap"), "checksum mismatch"},
      {"container version 2", test_file("version2.snap"), "unsupported container version"},
      {"zero shards", test_file("zero.snap"), "holds no shards"},
      {"a directory", test_file("snapshot_dir"), "is not a regular file"},
  };
  for (const auto& [name, path, refusal] : rows) {
    SCOPED_TRACE(name);
    try {
      (void)read_snapshot(path);
      ADD_FAILURE() << "read_snapshot accepted it";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_EQ(what.rfind("snapshot:", 0), 0u) << what;
      EXPECT_NE(what.find(refusal), std::string::npos) << what;
    }
    std::filesystem::remove(path);
  }
  std::filesystem::remove(test_file("good.snap"));
}

TEST(SvcSnapshot, WriteRefusesAnEmptyShardList) {
  // read_snapshot refuses a container of no shard, so write_snapshot never
  // writes one: it throws before it opens the temp file.
  const std::string path = test_file("empty.snap");
  try {
    write_snapshot(path, SnapshotMeta{"EDF-DLT", container_config().params}, {});
    ADD_FAILURE() << "write_snapshot wrote a container of no shard";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()).rfind("snapshot:", 0), 0u) << error.what();
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(SvcSnapshot, AReservedByteOfZeroRestoresLikeOne) {
  // The byte after the cluster params was the admission-mode flag; a
  // daemon run with the stateless mode wrote 0 there. Such a file restores,
  // and the restored daemon answers byte-identically to the same file with 1.
  const std::string one = test_file("reserved1.snap");
  const std::string zero = test_file("reserved0.snap");
  std::vector<std::uint8_t> bytes = write_container(one);
  // magic, version, the algorithm string, three 8-byte params, has-profile.
  const std::size_t reserved = 8 + 2 + 4 + std::string("EDF-DLT").size() + 24 + 1;
  ASSERT_EQ(bytes[reserved], 1u);
  bytes[reserved] = 0;
  reseal(bytes);
  write_file(zero, bytes);

  const std::vector<TestOp> ops = scripted_ops(40);
  std::vector<std::vector<std::string>> answers;
  for (const std::string& file : {one, zero}) {
    DaemonConfig config;
    config.socket_path = test_socket("reserved");  // never bound: not started
    config.restore_path = file;
    Daemon daemon(std::move(config));
    ASSERT_EQ(daemon.shard_count(), 1u);
    std::lock_guard<std::timed_mutex> lock(daemon.shard_mutex(0));
    std::vector<std::string>& replies = answers.emplace_back();
    for (std::size_t i = 20; i < ops.size(); ++i) {
      replies.push_back(apply_op(daemon.shard(0), ops[i]));
    }
    const std::vector<std::uint8_t> state = snapshot_bytes(daemon.shard(0));
    replies.emplace_back(state.begin(), state.end());
  }
  EXPECT_EQ(answers[0], answers[1]);
  ::unlink(one.c_str());
  ::unlink(zero.c_str());
}

// --- daemon-level restore over the socket -----------------------------------

TEST(SvcDaemon, SnapshotKillRestoreOverSocket) {
  const std::string socket_a = test_socket("restore_a");
  const std::string socket_b = test_socket("restore_b");
  const std::string snapshot = test_file("restore.snap");

  auto admit_script = [](Client& client, std::size_t from, std::size_t count,
                         std::vector<std::string>& out) {
    for (std::size_t i = from; i < from + count; ++i) {
      AdmitRequest request;
      request.shard = static_cast<std::uint32_t>(i % 2);
      request.task.id = static_cast<cluster::TaskId>(i + 1);
      request.task.arrival = static_cast<double>(i) * 1700.0;
      request.task.sigma = 140.0 + static_cast<double>(i % 5) * 30.0;
      request.task.rel_deadline = 4500.0;
      const AdmitReply reply = client.admit(request);
      util::WireWriter writer;
      reply.encode(writer);
      const std::vector<std::uint8_t> bytes = writer.take();
      out.emplace_back(bytes.begin(), bytes.end());
    }
  };

  std::vector<std::string> uninterrupted;
  {
    DaemonConfig config;
    config.socket_path = socket_a;
    config.shards = 2;
    Daemon daemon(std::move(config));
    daemon.start();
    Client client(socket_a);
    std::vector<std::string> warmup;
    admit_script(client, 0, 10, warmup);
    const SnapshotReply written = client.snapshot(snapshot);
    EXPECT_EQ(2u, written.shards);
    EXPECT_GT(written.bytes, 0u);
    // The daemon "continues" past the snapshot point...
    admit_script(client, 10, 10, uninterrupted);
    daemon.stop();
  }
  ::unlink(socket_a.c_str());

  // ...and the restored daemon, fed the same requests, answers with the
  // same bytes (est_completion doubles included - exact, not approximate).
  std::vector<std::string> restored;
  {
    DaemonConfig config;
    config.socket_path = socket_b;
    config.restore_path = snapshot;
    Daemon daemon(std::move(config));
    daemon.start();
    EXPECT_EQ(2u, daemon.shard_count());
    EXPECT_EQ(2u, daemon.counters().restores);
    Client client(socket_b);
    admit_script(client, 10, 10, restored);
    daemon.stop();
  }
  EXPECT_EQ(uninterrupted, restored);
  ::unlink(socket_b.c_str());
  ::unlink(snapshot.c_str());
}

// --- concurrent clients vs serial replay ------------------------------------

TEST(SvcDaemon, ConcurrentClientsMatchSerialReplay) {
  const std::string socket_path = test_socket("storm");
  DaemonConfig config;
  config.socket_path = socket_path;
  config.shards = 1;
  config.workers = 4;
  config.record_ops = true;
  const ShardConfig replay_config{config.params, false};
  Daemon daemon(std::move(config));
  daemon.start();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 30;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&socket_path, t]() {
      Client client(socket_path);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        AdmitRequest request;
        request.shard = 0;
        request.task.id = static_cast<cluster::TaskId>(t * 1000 + i + 1);
        request.task.arrival = static_cast<double>(i) * 2600.0;
        request.task.sigma = 110.0 + static_cast<double>((t + i) % 6) * 20.0;
        request.task.rel_deadline = 4200.0;
        client.admit(request);
        if (i % 7 == 3) {
          // Racing commits/cancels: most will hit kUnknownTask (the plan
          // auto-committed already) - that is part of the interleaving.
          try {
            if (i % 14 == 3) {
              client.commit(0, request.task.id);
            } else {
              client.cancel(0, request.task.id);
            }
          } catch (const ServiceError&) {
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  daemon.stop();

  // The daemon's shard processed SOME serial interleaving of the four
  // request streams (one mutex = total order). Replaying that logged order
  // on a fresh in-process shard must reproduce every reply byte.
  const std::vector<OpRecord>& ops = daemon.shard(0).ops();
  ASSERT_GE(ops.size(), kThreads * kPerThread);
  AdmissionShard replay("EDF-DLT", replay_config);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    util::WireWriter writer;
    switch (ops[i].kind) {
      case OpRecord::Kind::kAdmit:
        replay.admit(ops[i].record).encode(writer);
        break;
      case OpRecord::Kind::kCommit:
        replay.commit(ops[i].task).encode(writer);
        break;
      case OpRecord::Kind::kCancel:
        replay.cancel(ops[i].task).encode(writer);
        break;
    }
    EXPECT_EQ(ops[i].reply, writer.take()) << "op " << i;
  }
  ::unlink(socket_path.c_str());
}

// --- per-request deadlines under a hung request -----------------------------

TEST(SvcDaemon, HungRequestTimesOutWithoutStallingOtherShards) {
  const std::string socket_path = test_socket("deadline");
  DaemonConfig config;
  config.socket_path = socket_path;
  config.shards = 2;
  config.workers = 4;
  config.default_deadline_ms = 500;
  Daemon daemon(std::move(config));
  daemon.start();

  // The hung request: asks to hold shard 0 for 30s, gets cut off by the
  // 500ms request deadline with kTimeout instead of wedging its worker.
  std::thread sleeper([&socket_path]() {
    Client client(socket_path, /*timeout_ms=*/10000);
    const auto start = std::chrono::steady_clock::now();
    try {
      client.debug_sleep(0, 30000);
      FAIL() << "debug_sleep should have hit the per-request deadline";
    } catch (const ServiceError& error) {
      EXPECT_EQ(ErrorCode::kTimeout, error.code());
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_LT(wall, 5.0);  // deadline-bounded, nowhere near the 30s ask
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Other clients on the OTHER shard are unaffected while shard 0 hangs.
  {
    Client client(socket_path);
    AdmitRequest request;
    request.shard = 1;
    request.task.id = 1;
    request.task.sigma = 150.0;
    request.task.rel_deadline = 5000.0;
    const auto start = std::chrono::steady_clock::now();
    const AdmitReply reply = client.admit(request);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_TRUE(reply.accepted);
    EXPECT_LT(wall, 0.4);
  }

  // A contender on the hung shard fails fast on the lock with kTimeout.
  {
    Client client(socket_path);
    AdmitRequest request;
    request.shard = 0;
    request.deadline_ms = 150;
    request.task.id = 2;
    request.task.sigma = 150.0;
    request.task.rel_deadline = 5000.0;
    try {
      client.admit(request);
      FAIL() << "contender should have timed out on the shard lock";
    } catch (const ServiceError& error) {
      EXPECT_EQ(ErrorCode::kTimeout, error.code());
    }
  }

  sleeper.join();
  EXPECT_GE(daemon.counters().timeouts, 2u);
  daemon.stop();
  ::unlink(socket_path.c_str());
}

// --- protocol errors over a real socket -------------------------------------

/// Minimal raw connection for speaking malformed bytes at the daemon.
class RawConn {
 public:
  explicit RawConn(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(static_cast<ssize_t>(bytes.size()),
              ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL));
  }

  /// Reads until one frame decodes (or 5s passes). Returns false on EOF
  /// before a frame.
  bool read_frame(Frame& out) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::uint8_t buffer[4096];
    for (;;) {
      if (decoder_.next(out) == FrameDecoder::Status::kFrame) return true;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      pollfd entry{fd_, POLLIN, 0};
      if (::poll(&entry, 1, 200) <= 0) continue;
      const ssize_t received = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (received <= 0) return false;
      decoder_.feed(buffer, static_cast<std::size_t>(received));
    }
  }

  /// True once the peer closes (EOF within 5s).
  bool reaches_eof() {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::uint8_t buffer[256];
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd entry{fd_, POLLIN, 0};
      if (::poll(&entry, 1, 200) <= 0) continue;
      if (::recv(fd_, buffer, sizeof(buffer), 0) <= 0) return true;
    }
    return false;
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

ErrorReply decode_error(const Frame& frame) {
  EXPECT_EQ(MsgType::kErrorReply, frame.type);
  util::WireReader reader(frame.payload);
  return ErrorReply::decode(reader);
}

TEST(SvcDaemon, GarbageBytesGetErrorReplyAndCloseDaemonSurvives) {
  const std::string socket_path = test_socket("garbage");
  DaemonConfig config;
  config.socket_path = socket_path;
  config.shards = 1;
  Daemon daemon(std::move(config));
  daemon.start();

  {
    RawConn conn(socket_path);
    ASSERT_TRUE(conn.ok());
    conn.send_bytes(std::vector<std::uint8_t>(64, 0xAB));
    Frame frame;
    ASSERT_TRUE(conn.read_frame(frame));
    EXPECT_EQ(ErrorCode::kBadFrame, decode_error(frame).code);
    EXPECT_TRUE(conn.reaches_eof());  // frame-level corruption closes the stream
  }

  // Unknown types are per-frame errors: the connection keeps serving.
  {
    RawConn conn(socket_path);
    ASSERT_TRUE(conn.ok());
    util::WireWriter writer;
    writer.u32(kFrameMagic);
    writer.u16(kProtocolVersion);
    writer.u16(0x6666);
    writer.u64(41);
    writer.u32(0);
    conn.send_bytes(writer.take());
    Frame frame;
    ASSERT_TRUE(conn.read_frame(frame));
    EXPECT_EQ(41u, frame.request_id);
    EXPECT_EQ(ErrorCode::kUnknownType, decode_error(frame).code);

    conn.send_bytes(encode_message(MsgType::kStatusRequest, 42, StatusRequest{}));
    ASSERT_TRUE(conn.read_frame(frame));
    EXPECT_EQ(MsgType::kStatusReply, frame.type);
    EXPECT_EQ(42u, frame.request_id);
  }

  // Undecodable payload for a known type: kBadPayload, connection survives.
  {
    RawConn conn(socket_path);
    ASSERT_TRUE(conn.ok());
    conn.send_bytes(encode_message(MsgType::kAdmitRequest, 7, CommitRequest{}));
    Frame frame;
    ASSERT_TRUE(conn.read_frame(frame));
    EXPECT_EQ(ErrorCode::kBadPayload, decode_error(frame).code);
    conn.send_bytes(encode_message(MsgType::kStatusRequest, 8, StatusRequest{}));
    ASSERT_TRUE(conn.read_frame(frame));
    EXPECT_EQ(MsgType::kStatusReply, frame.type);
  }

  // And a well-formed client still gets full service afterwards.
  Client client(socket_path);
  const StatusReply status = client.status();
  EXPECT_EQ(1u, status.shards.size());
  EXPECT_GE(daemon.counters().errors, 3u);
  daemon.stop();
  ::unlink(socket_path.c_str());
}

TEST(SvcDaemon, ExtendedStatusCarriesUptimeQueueAndLatency) {
  const std::string socket_path = test_socket("obs_status");
  DaemonConfig config;
  config.socket_path = socket_path;
  config.shards = 2;
  Daemon daemon(std::move(config));
  daemon.start();
  Client client(socket_path);

  for (std::size_t i = 0; i < 6; ++i) {
    AdmitRequest request;
    request.shard = static_cast<std::uint32_t>(i % 2);
    request.task.id = static_cast<cluster::TaskId>(i + 1);
    request.task.arrival = static_cast<double>(i) * 1700.0;
    request.task.sigma = 150.0;
    request.task.rel_deadline = 5000.0;
    client.admit(request);
  }

  const StatusReply status = client.status();
  EXPECT_TRUE(status.extended);  // the client speaks v1.1
  ASSERT_EQ(status.shards.size(), 2u);
  ASSERT_EQ(status.shard_latency.size(), 2u);
  // Per-shard latency: 3 admits landed on each shard; quantiles are
  // ordered and bounded by the max.
  for (const ShardLatency& latency : status.shard_latency) {
    EXPECT_EQ(latency.count, 3u);
    EXPECT_GT(latency.p50_us, 0.0);
    EXPECT_LE(latency.p50_us, latency.p90_us);
    EXPECT_LE(latency.p90_us, latency.p99_us);
    EXPECT_LE(latency.p99_us, latency.max_us * 1.000001);
  }
  // With every request answered, nothing is queued.
  EXPECT_EQ(status.queue_depth, 0u);

  // Uptime advances between two status calls.
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  const StatusReply later = client.status();
  EXPECT_GT(later.uptime_ms, status.uptime_ms);

  daemon.stop();
  ::unlink(socket_path.c_str());
}

TEST(SvcDaemon, LegacyV10ClientGetsV10Replies) {
  const std::string socket_path = test_socket("obs_legacy");
  DaemonConfig config;
  config.socket_path = socket_path;
  config.shards = 1;
  Daemon daemon(std::move(config));
  daemon.start();

  RawConn conn(socket_path);
  ASSERT_TRUE(conn.ok());
  // A v1.0 status request must get a v1.0 frame back whose payload is the
  // v1.0 StatusReply layout (no extended suffix a v1.0 decoder would choke
  // on as trailing bytes).
  conn.send_bytes(
      encode_message(MsgType::kStatusRequest, 21, StatusRequest{}, kProtocolVersionV10));
  Frame frame;
  ASSERT_TRUE(conn.read_frame(frame));
  EXPECT_EQ(MsgType::kStatusReply, frame.type);
  EXPECT_EQ(kProtocolVersionV10, frame.version);
  util::WireReader reader(frame.payload);
  const StatusReply status = StatusReply::decode(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_FALSE(status.extended);
  EXPECT_EQ(status.shards.size(), 1u);

  // Typed errors also come back at the requester's revision.
  CommitRequest commit;
  commit.shard = 0;
  commit.task = 4242;  // never admitted
  conn.send_bytes(
      encode_message(MsgType::kCommitRequest, 22, commit, kProtocolVersionV10));
  ASSERT_TRUE(conn.read_frame(frame));
  EXPECT_EQ(MsgType::kErrorReply, frame.type);
  EXPECT_EQ(kProtocolVersionV10, frame.version);
  EXPECT_EQ(ErrorCode::kUnknownTask, decode_error(frame).code);

  daemon.stop();
  ::unlink(socket_path.c_str());
}

TEST(SvcDaemon, MetricsOpReturnsPrometheusText) {
  const std::string socket_path = test_socket("obs_metrics");
  DaemonConfig config;
  config.socket_path = socket_path;
  config.shards = 1;
  Daemon daemon(std::move(config));
  daemon.start();
  Client client(socket_path);

  AdmitRequest request;
  request.shard = 0;
  request.task.id = 1;
  request.task.sigma = 150.0;
  request.task.rel_deadline = 5000.0;
  client.admit(request);

  const MetricsReply metrics = client.metrics();
  EXPECT_NE(metrics.text.find("rtdls_daemon_request_latency_us_count"), std::string::npos)
      << metrics.text;
  EXPECT_NE(metrics.text.find("rtdls_daemon_admits_total 1"), std::string::npos)
      << metrics.text;
  EXPECT_NE(metrics.text.find("rtdls_daemon_queue_depth"), std::string::npos);
  EXPECT_NE(metrics.text.find("rtdls_shard0_request_latency_us"), std::string::npos);
  EXPECT_NE(metrics.text.find("quantile=\"0.9\""), std::string::npos);

  // Two daemons must not blend request metrics: a second daemon's scrape
  // starts from zero even while the first is still running.
  const std::string socket_b = test_socket("obs_metrics_b");
  DaemonConfig config_b;
  config_b.socket_path = socket_b;
  config_b.shards = 1;
  Daemon daemon_b(std::move(config_b));
  daemon_b.start();
  Client client_b(socket_b);
  const MetricsReply fresh = client_b.metrics();
  EXPECT_NE(fresh.text.find("rtdls_daemon_request_latency_us_count 0"), std::string::npos)
      << fresh.text;
  daemon_b.stop();
  ::unlink(socket_b.c_str());

  daemon.stop();
  ::unlink(socket_path.c_str());
}

TEST(SvcDaemon, StatusLatencyCountsMatchEachShardsAdmits) {
  // Shard i gets i + 1 admits, so a summary read from the wrong histogram
  // (or from a stale snapshot) shows up as a wrong count.
  const std::string socket_path = test_socket("status16");
  DaemonConfig config;
  config.socket_path = socket_path;
  config.shards = 16;
  config.workers = 1;
  Daemon daemon(std::move(config));
  daemon.start();
  Client client(socket_path);

  cluster::TaskId next_id = 1;
  for (std::uint32_t shard = 0; shard < 16; ++shard) {
    for (std::uint32_t i = 0; i <= shard; ++i) {
      AdmitRequest request;
      request.shard = shard;
      request.task.id = next_id++;
      request.task.arrival = static_cast<double>(i) * 1500.0;
      request.task.sigma = 150.0;
      request.task.rel_deadline = 5000.0;
      client.admit(request);
    }
  }

  const StatusReply status = client.status();
  ASSERT_EQ(16u, status.shards.size());
  ASSERT_EQ(16u, status.shard_latency.size());
  for (std::uint32_t shard = 0; shard < 16; ++shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    EXPECT_EQ(shard + 1u, status.shards[shard].admits);
    EXPECT_EQ(shard + 1u, status.shard_latency[shard].count);
  }
  EXPECT_EQ(136u, status.counters.admits);

  daemon.stop();
  ::unlink(socket_path.c_str());
}

TEST(SvcDaemon, PipelinedFramesGetInOrderReplies) {
  // Several frames in one send - admits, a status read, a metrics scrape
  // (the largest reply), more admits - then one admit split over two
  // sends. The worker reuses one frame and one reply buffer for all of
  // them; every reply must come back in order and decode exactly, and the
  // admit replies must be the bytes a serial in-process shard produces.
  const std::string socket_path = test_socket("pipeline");
  DaemonConfig config;
  config.socket_path = socket_path;
  config.shards = 1;
  config.workers = 1;
  AdmissionShard serial(config.algorithm, ShardConfig{config.params});
  Daemon daemon(std::move(config));
  daemon.start();

  const auto admit_request = [](std::uint64_t i) {
    AdmitRequest request;
    request.task.id = static_cast<cluster::TaskId>(i + 1);
    request.task.arrival = static_cast<double>(i) * 400.0;
    request.task.sigma = 150.0 + static_cast<double>(i % 3) * 90.0;
    request.task.rel_deadline = 2500.0;
    return request;
  };
  struct Expected {
    std::uint64_t id;
    MsgType type;
    std::vector<std::uint8_t> admit_payload;  ///< admits only
  };
  std::vector<Expected> expected;
  std::vector<std::uint8_t> stream;
  const auto append = [&](const std::vector<std::uint8_t>& frame) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  };
  const auto queue_admit = [&](std::uint64_t i) {
    const AdmitRequest request = admit_request(i);
    append(encode_message(MsgType::kAdmitRequest, 100 + i, request));
    util::WireWriter payload;
    serial.admit(request.task).encode(payload);
    expected.push_back({100 + i, MsgType::kAdmitReply, payload.take()});
  };
  for (std::uint64_t i = 0; i < 4; ++i) queue_admit(i);
  append(encode_message(MsgType::kStatusRequest, 200, StatusRequest{}));
  expected.push_back({200, MsgType::kStatusReply, {}});
  append(encode_message(MsgType::kMetricsRequest, 201, MetricsRequest{}));
  expected.push_back({201, MsgType::kMetricsReply, {}});
  for (std::uint64_t i = 4; i < 8; ++i) queue_admit(i);

  RawConn conn(socket_path);
  ASSERT_TRUE(conn.ok());
  conn.send_bytes(stream);
  stream.clear();
  queue_admit(8);
  const std::vector<std::uint8_t> split = stream;
  const auto half = static_cast<std::ptrdiff_t>(split.size() / 2);
  conn.send_bytes(std::vector<std::uint8_t>(split.begin(), split.begin() + half));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  conn.send_bytes(std::vector<std::uint8_t>(split.begin() + half, split.end()));

  for (const Expected& want : expected) {
    SCOPED_TRACE("request " + std::to_string(want.id));
    Frame frame;
    ASSERT_TRUE(conn.read_frame(frame));
    EXPECT_EQ(want.id, frame.request_id);
    ASSERT_EQ(want.type, frame.type);
    util::WireReader in(frame.payload);  // each decode requires every byte consumed
    switch (want.type) {
      case MsgType::kAdmitReply:
        (void)AdmitReply::decode(in);
        EXPECT_EQ(want.admit_payload, frame.payload);
        break;
      case MsgType::kStatusReply: {
        const StatusReply status = StatusReply::decode(in);
        ASSERT_EQ(1u, status.shards.size());
        EXPECT_EQ(4u, status.shards[0].admits);
        EXPECT_EQ(4u, status.counters.admits);
        break;
      }
      default: {
        const MetricsReply metrics = MetricsReply::decode(in);
        EXPECT_NE(metrics.text.find("\nrtdls_daemon_admits_total 4\n"), std::string::npos);
        EXPECT_GT(frame.payload.size(), 1024u);  // far larger than what follows it
        break;
      }
    }
  }

  daemon.stop();
  ::unlink(socket_path.c_str());
}

TEST(SvcDaemon, UnknownShardAndUnknownTaskAreTypedErrors) {
  const std::string socket_path = test_socket("errors");
  DaemonConfig config;
  config.socket_path = socket_path;
  config.shards = 1;
  Daemon daemon(std::move(config));
  daemon.start();
  Client client(socket_path);

  AdmitRequest request;
  request.shard = 9;  // out of range
  request.task.id = 1;
  request.task.sigma = 100.0;
  request.task.rel_deadline = 5000.0;
  try {
    client.admit(request);
    FAIL() << "expected kUnknownShard";
  } catch (const ServiceError& error) {
    EXPECT_EQ(ErrorCode::kUnknownShard, error.code());
  }

  try {
    client.commit(0, 12345);
    FAIL() << "expected kUnknownTask";
  } catch (const ServiceError& error) {
    EXPECT_EQ(ErrorCode::kUnknownTask, error.code());
  }

  daemon.stop();
  ::unlink(socket_path.c_str());
}

}  // namespace
}  // namespace rtdls::svc
