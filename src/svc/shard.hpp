// One admission shard: a warm, single-threaded admission-control session
// over its own cluster.
//
// The daemon partitions work by cluster - each shard owns an independent
// Cluster, a warm AdmissionController session, and a waiting queue, and is
// serialized by one mutex in the server layer (the shard itself is
// deliberately single-threaded: the controller and partition rules carry
// per-instance scratch). Shards never touch each other, so k shards give k-way
// request concurrency without any cross-shard coordination.
//
// Time model: the shard's clock `now()` only moves forward, driven by the
// requests themselves - an admit at effective arrival max(record.arrival,
// now) first advances the clock there, auto-committing every waiting plan
// whose commit instant has passed (in commit-time order, ties by queue
// position), exactly as the simulator's event loop would. That makes a
// shard's behavior a pure function of its request sequence, which is what
// the op log records and the concurrent-vs-serial differential test and the
// snapshot bit-identity test both replay.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/calendar.hpp"
#include "cluster/cluster.hpp"
#include "sched/admission.hpp"
#include "sched/registry.hpp"
#include "svc/protocol.hpp"

namespace rtdls::svc {

/// A shard-level request failure the server maps onto an ErrorReply.
class ShardError : public std::runtime_error {
 public:
  ShardError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

struct ShardConfig {
  cluster::ClusterParams params;
  /// Warm-session admission for non-calendar rules (bit-identical to the
  /// stateless test by contract); calendar rules always use test().
  bool incremental = true;
  /// Record every operation and its encoded reply (the differential tests'
  /// evidence). Off by default: a long-lived daemon must not grow without
  /// bound.
  bool record_ops = false;
};

/// One logged operation: what came in, what went out (encoded reply
/// payload). Replaying the ops of a shard in logged order on a fresh shard
/// reproduces the reply bytes exactly.
struct OpRecord {
  enum class Kind : std::uint8_t { kAdmit, kCommit, kCancel };
  Kind kind = Kind::kAdmit;
  TaskRecord record;                     ///< admit: the task as received
  cluster::TaskId task = cluster::kNoTask;  ///< commit/cancel target
  std::vector<std::uint8_t> reply;       ///< encoded typed reply payload
};

class AdmissionShard {
 public:
  AdmissionShard(const std::string& algorithm_name, const ShardConfig& config);

  const std::string& algorithm_name() const { return algorithm_.name; }
  cluster::Time now() const { return now_; }
  std::size_t waiting() const { return waiting_.size(); }

  /// Runs the Figure-2 admission test for `record` at effective arrival
  /// max(record.arrival, now()), advancing the clock (and auto-committing
  /// due plans) first. Throws ShardError{kUnknownTask} on a duplicate id.
  AdmitReply admit(const TaskRecord& record);

  /// Explicitly commits waiting task `id` at max(now, its commit instant);
  /// any other plan whose commit instant is not later gets committed on the
  /// way (in commit-time order), counted in `also_committed`. Throws
  /// ShardError{kUnknownTask} when `id` is not waiting.
  CommitReply commit(cluster::TaskId id);

  /// Removes waiting task `id` without committing resources (its admitted
  /// siblings keep their plans - the Figure-2 invariant is that existing
  /// plans stay feasible when load only shrinks). Throws
  /// ShardError{kUnknownTask} when `id` is not waiting.
  CancelReply cancel(cluster::TaskId id);

  void fill_status(ShardStatus& out) const;

  /// Serializes the shard's semantic state (clock, counters, waiting tasks
  /// + plans, per-node cluster accounting, calendar reservations). See
  /// sched/plan_io.hpp for why this is sufficient for bit-identical restore.
  void snapshot_to(util::WireWriter& out) const;

  /// Inverse of snapshot_to, onto a freshly constructed shard with the same
  /// algorithm and params. Throws util::WireError / std::runtime_error on
  /// malformed or inconsistent input.
  void restore_from(util::WireReader& in);

  /// The op log (empty unless ShardConfig::record_ops).
  const std::vector<OpRecord>& ops() const { return ops_; }

 private:
  struct WaitingEntry {
    const workload::Task* task = nullptr;  ///< owned by tasks_
    sched::TaskPlan plan;
    cluster::Time commit_at = 0.0;  ///< max(plan.commit_time(), adoption now)
  };

  /// Commits every waiting plan due at or before `t` (commit-time order,
  /// ties by queue position), then floors the clock at `t`. Returns how many
  /// entries were committed.
  std::size_t advance_to(cluster::Time t);
  void commit_entry(std::size_t index);
  void adopt_schedule(std::size_t reused_prefix,
                      std::vector<sched::ScheduledTask>& schedule);

  ShardConfig config_;
  sched::Algorithm algorithm_;
  sched::AdmissionController controller_;
  cluster::Cluster cluster_;
  std::unique_ptr<cluster::NodeCalendar> calendar_;  ///< calendar rules only

  cluster::Time now_ = 0.0;
  std::uint64_t seq_ = 0;  ///< operation sequence, stamped into AdmitReply
  std::unordered_map<cluster::TaskId, std::unique_ptr<workload::Task>> tasks_;
  std::vector<WaitingEntry> waiting_;

  std::uint64_t admits_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t committed_ = 0;
  std::uint64_t cancelled_ = 0;

  std::vector<OpRecord> ops_;

  // Scratch reused across requests.
  std::vector<const workload::Task*> waiting_view_;
  std::vector<cluster::NodeId> ids_scratch_;
};

}  // namespace rtdls::svc
