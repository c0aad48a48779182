#include "svc/shard.hpp"

#include <algorithm>
#include <cmath>

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
      driver_(config.params, algorithm_.policy, algorithm_.rule.get()) {}

std::size_t AdmissionShard::commit_due(cluster::Time t) {
  const std::size_t committed = driver_.commit_due(
      t, [this](const workload::Task& task, const sched::TaskPlan&,
                const std::vector<cluster::NodeId>&) {
        // The session never dereferences consumed-prefix task pointers, so
        // the committed task's storage can go now.
        const cluster::TaskId id = task.id;
        tasks_.erase(id);
      });
  committed_ += committed;
  now_ = std::max(now_, t);
  return committed;
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
  commit_due(std::max(record.arrival, now_));

  auto owned = std::make_unique<workload::Task>(candidate);
  const workload::Task& task = *owned;
  tasks_.emplace(record.id, std::move(owned));

  const sched::AdmissionOutcome outcome = driver_.admit(task, now_);

  AdmitReply reply;
  reply.accepted = outcome.accepted;
  reply.decision_seq = seq_++;
  if (outcome.accepted) {
    ++accepted_;
    const sched::TaskPlan& plan = *driver_.queue().plans[driver_.find(record.id)];
    reply.est_completion = plan.est_completion;
    reply.nodes = plan.nodes;
  } else {
    ++rejected_;
    reply.reason = static_cast<std::uint8_t>(outcome.reason);
    reply.blocking_task = outcome.blocking_task;
    tasks_.erase(record.id);
  }
  reply.waiting = driver_.waiting();

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
  const std::size_t position = driver_.find(id);
  if (position == driver_.waiting()) {
    throw ShardError(ErrorCode::kUnknownTask,
                     "task " + std::to_string(id) + " is not waiting");
  }
  const cluster::Time commit_at = driver_.queue().commit_at[position];
  CommitReply reply;
  reply.committed = true;
  reply.committed_at = commit_at;
  // Committing this plan first commits everything due no later (commit-time
  // order) - a plan cannot start while an earlier-committing one is still
  // pending, or the availability it was planned against would be wrong.
  reply.also_committed = commit_due(std::max(now_, commit_at)) - 1;

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
  if (!driver_.cancel(id)) {
    throw ShardError(ErrorCode::kUnknownTask,
                     "task " + std::to_string(id) + " is not waiting");
  }
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
  out.waiting = driver_.waiting();
  out.admits = admits_;
  out.accepted = accepted_;
  out.rejected = rejected_;
  out.committed = committed_;
  out.cancelled = cancelled_;
  const sched::AdmissionController& controller = driver_.controller();
  const auto memory = controller.session_memory();
  out.session_bytes = memory.bytes;
  out.session_dense_bytes = memory.dense_equivalent_bytes;
  out.peak_session_bytes = controller.peak_session_memory().bytes;
}

void AdmissionShard::snapshot_to(util::WireWriter& out) const {
  out.f64(now_);
  out.u64(seq_);
  out.u64(admits_);
  out.u64(accepted_);
  out.u64(rejected_);
  out.u64(committed_);
  out.u64(cancelled_);

  const cluster::Cluster& cluster = driver_.cluster();
  out.u32(static_cast<std::uint32_t>(cluster.size()));
  for (cluster::NodeId id = 0; id < cluster.size(); ++id) {
    const cluster::Node& node = cluster.node(id);
    out.f64(node.free_at());
    out.f64(node.busy_time());
    out.f64(node.idle_gap_time());
    out.u64(node.commitments());
  }

  const cluster::NodeCalendar* calendar = driver_.calendar();
  out.u8(calendar != nullptr ? 1 : 0);
  if (calendar != nullptr) {
    for (cluster::NodeId id = 0; id < calendar->size(); ++id) {
      const auto& busy = calendar->busy(id);
      out.u32(static_cast<std::uint32_t>(busy.size()));
      for (const cluster::Interval& interval : busy) {
        out.f64(interval.start);
        out.f64(interval.end);
      }
    }
  }

  const sched::AdmissionDriver::Queue& queue = driver_.queue();
  out.u32(static_cast<std::uint32_t>(queue.tasks.size()));
  for (std::size_t i = 0; i < queue.tasks.size(); ++i) {
    sched::write_task(out, *queue.tasks[i]);
    sched::write_plan(out, *queue.plans[i]);
    out.f64(queue.commit_at[i]);
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

  cluster::Cluster& cluster = driver_.cluster();
  const std::uint32_t nodes = in.u32();
  if (nodes != cluster.size()) {
    throw std::runtime_error("shard restore: snapshot has " + std::to_string(nodes) +
                             " nodes, shard has " + std::to_string(cluster.size()));
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

  cluster::NodeCalendar* const live_calendar = driver_.calendar();
  const bool has_calendar = in.u8() != 0;
  if (has_calendar != (live_calendar != nullptr)) {
    throw std::runtime_error("shard restore: calendar presence mismatch");
  }
  std::unique_ptr<cluster::NodeCalendar> calendar;
  if (live_calendar != nullptr) {
    calendar = std::make_unique<cluster::NodeCalendar>(live_calendar->size());
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
  sched::AdmissionDriver::Queue queue;
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    auto task = std::make_unique<workload::Task>(sched::read_task(in));
    if (const std::string problem = task_problem(*task); !problem.empty()) {
      throw std::runtime_error("shard restore: waiting " + problem);
    }
    auto plan = std::make_shared<const sched::TaskPlan>(sched::read_plan(in));
    const cluster::Time commit_at = in.f64();
    if (plan->task != task->id) {
      throw std::runtime_error("shard restore: plan/task id mismatch");
    }
    // A NaN instant is never due, so the plan would block every later temp
    // list; an infinite one drags the clock there; one before the plan's
    // first reservation books nodes before the plan may start, and one
    // before the clock (a shard commits every plan due by its clock) books
    // them in the shard's past.
    if (!std::isfinite(commit_at) || commit_at < plan->commit_time() || commit_at < now) {
      throw std::runtime_error("shard restore: task " + std::to_string(task->id) +
                               " has an impossible commit instant");
    }
    queue.tasks.push_back(task.get());
    queue.plans.push_back(std::move(plan));
    queue.commit_at.push_back(commit_at);
    if (!tasks.emplace(task->id, std::move(task)).second) {
      throw std::runtime_error("shard restore: duplicate waiting task id");
    }
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
    cluster.restore_node(id, record.free_at, record.busy_time, record.idle_gap,
                         static_cast<std::size_t>(record.commitments));
  }
  if (live_calendar != nullptr) *live_calendar = std::move(*calendar);
  tasks_ = std::move(tasks);
  // The warm session rebuilds on the first admit - bit-identical outcomes by
  // the admission contract (the cache only ever derives from these inputs).
  driver_.restore_queue(std::move(queue));
  driver_.controller().reset_session_stats();
}

}  // namespace rtdls::svc
