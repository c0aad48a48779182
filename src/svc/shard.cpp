#include "svc/shard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/plan_io.hpp"

namespace rtdls::svc {

namespace {

template <typename Reply>
std::vector<std::uint8_t> encode_reply(const Reply& reply) {
  util::WireWriter writer;
  reply.encode(writer);
  return writer.take();
}

/// Why `task` cannot be planned, or empty when it can: the rules load_trace
/// applies to a trace row (a finite arrival >= 0, a finite sigma > 0, a
/// finite relative deadline > 0) and an id other than the kNoTask
/// sentinel. A NaN arrival would otherwise be admitted: the shard clock
/// ignores it, and every deadline comparison with NaN passes.
std::string task_problem(const workload::Task& task) {
  const std::string name = "task " + std::to_string(task.id);
  if (task.id == cluster::kNoTask) return name + ": the id is reserved";
  if (!std::isfinite(task.arrival()) || task.arrival() < 0.0) {
    return name + ": arrival must be finite and >= 0";
  }
  if (!std::isfinite(task.sigma()) || task.sigma() <= 0.0) {
    return name + ": sigma must be finite and > 0";
  }
  if (!std::isfinite(task.rel_deadline()) || task.rel_deadline() <= 0.0) {
    return name + ": relative deadline must be finite and > 0";
  }
  return {};
}

}  // namespace

AdmissionShard::AdmissionShard(const std::string& algorithm_name, const ShardConfig& config)
    : config_(config),
      algorithm_(sched::make_algorithm(algorithm_name)),
      controller_(algorithm_.policy, algorithm_.rule.get()),
      cluster_(config.params) {
  if (algorithm_.rule->uses_calendar()) {
    calendar_ = std::make_unique<cluster::NodeCalendar>(config.params.node_count);
  }
}

std::size_t AdmissionShard::advance_to(cluster::Time t) {
  std::size_t committed = 0;
  for (;;) {
    // Earliest due commit, ties broken by queue position - the order the
    // simulator's event heap would pop them in.
    std::size_t best = waiting_.size();
    cluster::Time best_at = std::numeric_limits<cluster::Time>::infinity();
    for (std::size_t i = 0; i < waiting_.size(); ++i) {
      if (waiting_[i].commit_at <= t && waiting_[i].commit_at < best_at) {
        best = i;
        best_at = waiting_[i].commit_at;
      }
    }
    if (best == waiting_.size()) break;
    commit_entry(best);
    ++committed;
  }
  if (t > now_) now_ = t;
  return committed;
}

void AdmissionShard::commit_entry(std::size_t index) {
  WaitingEntry entry = std::move(waiting_[index]);
  waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(index));
  const cluster::Time at = entry.commit_at;
  if (at > now_) now_ = at;

  sched::commit_plan(*entry.plan, at, cluster_, calendar_.get(), ids_scratch_);

  if (!calendar_) {
    // Estimate-release commit: the committed reservations equal the plan's
    // releases, so the warm session can advance instead of rebuilding.
    controller_.on_commit(entry.task, entry.plan, cluster_.version());
  } else {
    controller_.invalidate();
  }
  ++committed_;
  // The session never dereferences consumed-prefix task pointers, so the
  // committed task's storage can go now.
  tasks_.erase(entry.task->id);
}

void AdmissionShard::adopt_schedule(std::size_t reused_prefix,
                                    std::vector<sched::ScheduledTask>& schedule) {
  waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(reused_prefix),
                 waiting_.end());
  waiting_.reserve(reused_prefix + schedule.size());
  for (sched::ScheduledTask& scheduled : schedule) {
    WaitingEntry entry;
    entry.task = scheduled.task;
    entry.plan = std::move(scheduled.plan);
    entry.commit_at = std::max(entry.plan->commit_time(), now_);
    waiting_.push_back(std::move(entry));
  }
}

AdmitReply AdmissionShard::admit(const TaskRecord& record) {
  // Checked before anything changes: a refused record leaves no trace.
  const workload::Task candidate = record.to_task();
  if (const std::string problem = task_problem(candidate); !problem.empty()) {
    throw ShardError(ErrorCode::kBadPayload, problem);
  }
  if (tasks_.count(record.id) != 0) {
    throw ShardError(ErrorCode::kBadPayload,
                     "task " + std::to_string(record.id) + " is already waiting");
  }
  ++admits_;
  advance_to(std::max(record.arrival, now_));

  auto owned = std::make_unique<workload::Task>(candidate);
  const workload::Task& task = *owned;
  tasks_.emplace(record.id, std::move(owned));

  waiting_view_.clear();
  for (const WaitingEntry& entry : waiting_) waiting_view_.push_back(entry.task);

  sched::AdmissionOutcome outcome =
      controller_.admit(task, waiting_view_, config_.params, cluster_, calendar_.get(), now_,
                        config_.incremental);

  AdmitReply reply;
  reply.accepted = outcome.accepted;
  reply.decision_seq = seq_++;
  if (outcome.accepted) {
    ++accepted_;
    adopt_schedule(outcome.reused_prefix, outcome.schedule);
    for (const WaitingEntry& entry : waiting_) {
      if (entry.task->id == record.id) {
        reply.est_completion = entry.plan->est_completion;
        reply.nodes = entry.plan->nodes;
        break;
      }
    }
  } else {
    ++rejected_;
    reply.reason = static_cast<std::uint8_t>(outcome.reason);
    reply.blocking_task = outcome.blocking_task;
    tasks_.erase(record.id);
  }
  reply.waiting = waiting_.size();

  if (config_.record_ops) {
    OpRecord op;
    op.kind = OpRecord::Kind::kAdmit;
    op.record = record;
    op.reply = encode_reply(reply);
    ops_.push_back(std::move(op));
  }
  return reply;
}

CommitReply AdmissionShard::commit(cluster::TaskId id) {
  const auto it = std::find_if(waiting_.begin(), waiting_.end(),
                               [&](const WaitingEntry& w) { return w.task->id == id; });
  if (it == waiting_.end()) {
    throw ShardError(ErrorCode::kUnknownTask,
                     "task " + std::to_string(id) + " is not waiting");
  }
  const cluster::Time target = std::max(now_, it->commit_at);
  CommitReply reply;
  reply.committed = true;
  reply.committed_at = it->commit_at;
  // Committing this plan first commits everything due no later (commit-time
  // order) - a plan cannot start while an earlier-committing one is still
  // pending, or the availability it was planned against would be wrong.
  const std::size_t total = advance_to(target);
  reply.also_committed = total - 1;

  if (config_.record_ops) {
    OpRecord op;
    op.kind = OpRecord::Kind::kCommit;
    op.task = id;
    op.reply = encode_reply(reply);
    ops_.push_back(std::move(op));
  }
  return reply;
}

CancelReply AdmissionShard::cancel(cluster::TaskId id) {
  const auto it = std::find_if(waiting_.begin(), waiting_.end(),
                               [&](const WaitingEntry& w) { return w.task->id == id; });
  if (it == waiting_.end()) {
    throw ShardError(ErrorCode::kUnknownTask,
                     "task " + std::to_string(id) + " is not waiting");
  }
  // Load only shrinks, so every remaining plan stays feasible (the Figure-2
  // invariant); but the waiting set changed outside the session contract, so
  // the warm cache drops.
  waiting_.erase(it);
  controller_.invalidate();
  tasks_.erase(id);
  ++cancelled_;

  CancelReply reply;
  reply.cancelled = true;
  if (config_.record_ops) {
    OpRecord op;
    op.kind = OpRecord::Kind::kCancel;
    op.task = id;
    op.reply = encode_reply(reply);
    ops_.push_back(std::move(op));
  }
  return reply;
}

void AdmissionShard::fill_status(ShardStatus& out) const {
  out.now = now_;
  out.waiting = waiting_.size();
  out.admits = admits_;
  out.accepted = accepted_;
  out.rejected = rejected_;
  out.committed = committed_;
  out.cancelled = cancelled_;
  const auto memory = controller_.session_memory();
  out.session_bytes = memory.bytes;
  out.session_dense_bytes = memory.dense_equivalent_bytes;
  out.peak_session_bytes = controller_.peak_session_memory().bytes;
}

void AdmissionShard::snapshot_to(util::WireWriter& out) const {
  out.f64(now_);
  out.u64(seq_);
  out.u64(admits_);
  out.u64(accepted_);
  out.u64(rejected_);
  out.u64(committed_);
  out.u64(cancelled_);

  out.u32(static_cast<std::uint32_t>(cluster_.size()));
  for (cluster::NodeId id = 0; id < cluster_.size(); ++id) {
    const cluster::Node& node = cluster_.node(id);
    out.f64(node.free_at());
    out.f64(node.busy_time());
    out.f64(node.idle_gap_time());
    out.u64(node.commitments());
  }

  out.u8(calendar_ ? 1 : 0);
  if (calendar_) {
    for (cluster::NodeId id = 0; id < calendar_->size(); ++id) {
      const auto& busy = calendar_->busy(id);
      out.u32(static_cast<std::uint32_t>(busy.size()));
      for (const cluster::Interval& interval : busy) {
        out.f64(interval.start);
        out.f64(interval.end);
      }
    }
  }

  out.u32(static_cast<std::uint32_t>(waiting_.size()));
  for (const WaitingEntry& entry : waiting_) {
    sched::write_task(out, *entry.task);
    sched::write_plan(out, *entry.plan);
    out.f64(entry.commit_at);
  }
}

void AdmissionShard::restore_from(util::WireReader& in) {
  // Every section is read and checked into locals before any is applied, so
  // a snapshot that fails part-way leaves the shard as it was.
  const cluster::Time now = in.f64();
  if (!std::isfinite(now)) throw std::runtime_error("shard restore: clock is not finite");
  const std::uint64_t seq = in.u64();
  const std::uint64_t admits = in.u64();
  const std::uint64_t accepted = in.u64();
  const std::uint64_t rejected = in.u64();
  const std::uint64_t committed = in.u64();
  const std::uint64_t cancelled = in.u64();

  const std::uint32_t nodes = in.u32();
  if (nodes != cluster_.size()) {
    throw std::runtime_error("shard restore: snapshot has " + std::to_string(nodes) +
                             " nodes, shard has " + std::to_string(cluster_.size()));
  }
  // A NaN release time has no place in the sorted index: it would desync
  // the index part-way through the restore, or after it.
  struct NodeRecord {
    cluster::Time free_at = 0.0;
    cluster::Time busy_time = 0.0;
    cluster::Time idle_gap = 0.0;
    std::uint64_t commitments = 0;
  };
  std::vector<NodeRecord> records(nodes);
  const auto valid = [](cluster::Time t) { return std::isfinite(t) && t >= 0.0; };
  for (cluster::NodeId id = 0; id < nodes; ++id) {
    NodeRecord& record = records[id];
    record.free_at = in.f64();
    record.busy_time = in.f64();
    record.idle_gap = in.f64();
    record.commitments = in.u64();
    if (!valid(record.free_at) || !valid(record.busy_time) || !valid(record.idle_gap)) {
      throw std::runtime_error("shard restore: node " + std::to_string(id) +
                               " has a negative or non-finite time");
    }
  }

  const bool has_calendar = in.u8() != 0;
  if (has_calendar != static_cast<bool>(calendar_)) {
    throw std::runtime_error("shard restore: calendar presence mismatch");
  }
  std::unique_ptr<cluster::NodeCalendar> calendar;
  if (calendar_) {
    calendar = std::make_unique<cluster::NodeCalendar>(calendar_->size());
    for (cluster::NodeId id = 0; id < calendar->size(); ++id) {
      const std::uint32_t count = in.u32();
      for (std::uint32_t i = 0; i < count; ++i) {
        const cluster::Time start = in.f64();
        const cluster::Time end = in.f64();
        try {
          calendar->reserve(id, start, end);
        } catch (const std::logic_error& error) {  // non-finite, reversed or overlapping
          throw std::runtime_error("shard restore: node " + std::to_string(id) +
                                   " calendar: " + error.what());
        }
      }
    }
  }

  std::unordered_map<cluster::TaskId, std::unique_ptr<workload::Task>> tasks;
  std::vector<WaitingEntry> waiting;
  const std::uint32_t count = in.u32();
  waiting.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto task = std::make_unique<workload::Task>(sched::read_task(in));
    if (const std::string problem = task_problem(*task); !problem.empty()) {
      throw std::runtime_error("shard restore: waiting " + problem);
    }
    WaitingEntry entry;
    entry.plan = std::make_shared<const sched::TaskPlan>(sched::read_plan(in));
    entry.commit_at = in.f64();
    if (entry.plan->task != task->id) {
      throw std::runtime_error("shard restore: plan/task id mismatch");
    }
    entry.task = task.get();
    if (!tasks.emplace(task->id, std::move(task)).second) {
      throw std::runtime_error("shard restore: duplicate waiting task id");
    }
    waiting.push_back(std::move(entry));
  }

  now_ = now;
  seq_ = seq;
  admits_ = admits;
  accepted_ = accepted;
  rejected_ = rejected;
  committed_ = committed;
  cancelled_ = cancelled;
  for (cluster::NodeId id = 0; id < nodes; ++id) {
    const NodeRecord& record = records[id];
    cluster_.restore_node(id, record.free_at, record.busy_time, record.idle_gap,
                          static_cast<std::size_t>(record.commitments));
  }
  if (calendar_) *calendar_ = std::move(*calendar);
  tasks_ = std::move(tasks);
  waiting_ = std::move(waiting);
  // The warm session rebuilds on the first admit - bit-identical outcomes by
  // the admission contract (the cache only ever derives from these inputs).
  controller_.invalidate();
  controller_.reset_session_stats();
}

}  // namespace rtdls::svc
