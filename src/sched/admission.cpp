#include "sched/admission.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace rtdls::sched {

namespace {

/// Process-registry counters for the incremental session's internals. Bumped
/// at per-arrival granularity (never inside the planner kernels), so the
/// thread-local relaxed increments are noise next to one plan() call.
struct AdmissionObs {
  obs::Counter session_rebuilds =
      obs::Registry::global().counter("rtdls_admission_session_rebuilds_total");
  obs::Counter delta_replays =
      obs::Registry::global().counter("rtdls_admission_delta_replays_total");
  obs::Counter checkpoints =
      obs::Registry::global().counter("rtdls_admission_checkpoints_total");
  obs::Counter opportunistic_checkpoints = obs::Registry::global().counter(
      "rtdls_admission_opportunistic_checkpoints_total");
  /// Re-planned suffix length (temp-list entries from the insertion point)
  /// per accepted incremental admission.
  obs::Histogram replan_suffix = obs::Registry::global().histogram(
      "rtdls_admission_replan_suffix", obs::HistogramOptions{1.0, 4, 64});
};

AdmissionObs& admission_obs() {
  static AdmissionObs handles;
  return handles;
}

}  // namespace

AdmissionController::AdmissionController(Policy policy, const PartitionRule* rule)
    : policy_(policy), rule_(rule) {
  if (rule_ == nullptr) throw std::invalid_argument("AdmissionController: null rule");
}

AdmissionOutcome AdmissionController::test(
    const workload::Task* new_task,
    const std::vector<const workload::Task*>& waiting,
    const cluster::ClusterParams& params,
    std::vector<Time> free_times, Time now,
    const cluster::NodeCalendar* calendar,
    std::vector<cluster::NodeId> node_ids) const {
  if (free_times.size() != params.node_count) {
    throw std::invalid_argument("AdmissionController::test: free_times size mismatch");
  }
  if (rule_->uses_calendar() && calendar == nullptr) {
    throw std::invalid_argument("AdmissionController::test: rule requires a calendar");
  }
  // Private working copy accumulating the temp schedule's reservations.
  std::optional<cluster::NodeCalendar> temp_calendar;
  if (rule_->uses_calendar()) temp_calendar = *calendar;

  // TempTaskList <- NewTask + TaskWaitingQueue, ordered by the policy.
  std::vector<const workload::Task*> temp_list = waiting;
  if (new_task != nullptr) temp_list.push_back(new_task);
  order_tasks(policy_, temp_list);

  const bool het = params.heterogeneous();
  if (het) {
    // Co-floor and co-sort the (time, id) columns into strict (time, id)
    // order; an empty id column means free_times is indexed by node id.
    if (node_ids.empty()) {
      node_ids.resize(free_times.size());
      for (std::size_t i = 0; i < node_ids.size(); ++i) {
        node_ids[i] = static_cast<cluster::NodeId>(i);
      }
    } else if (node_ids.size() != free_times.size()) {
      throw std::invalid_argument("AdmissionController::test: node_ids size mismatch");
    }
    het_merge_scratch_.resize(free_times.size());
    for (std::size_t i = 0; i < free_times.size(); ++i) {
      het_merge_scratch_[i] = {std::max(free_times[i], now), node_ids[i]};
    }
    std::sort(het_merge_scratch_.begin(), het_merge_scratch_.end());
    for (std::size_t i = 0; i < free_times.size(); ++i) {
      free_times[i] = het_merge_scratch_[i].first;
      node_ids[i] = het_merge_scratch_[i].second;
    }
  } else {
    for (Time& t : free_times) t = std::max(t, now);
    std::sort(free_times.begin(), free_times.end());
  }

  AdmissionOutcome outcome;
  outcome.schedule.reserve(temp_list.size());

  for (const workload::Task* task : temp_list) {
    PlanRequest request;
    request.task = task;
    request.params = params;
    request.free_times = &free_times;
    request.node_ids = het ? &node_ids : nullptr;
    request.now = now;
    request.calendar = temp_calendar ? &*temp_calendar : nullptr;

    PlanResult result = rule_->plan(request);
    if (!result.feasible()) {
      outcome.accepted = false;
      outcome.reason = result.reason;
      outcome.blocking_task = task->id;
      outcome.schedule.clear();
      return outcome;  // deadline miss somewhere in the temp list
    }

    // Propagate the plan's reservations to the later temp-schedule tasks.
    const TaskPlan& plan = result.plan;
    if (temp_calendar) {
      // Calendar-based rule: reserve the concrete intervals it chose.
      for (std::size_t i = 0; i < plan.nodes; ++i) {
        temp_calendar->reserve(plan.node_ids[i], plan.reserve_from[i],
                               plan.node_release[i]);
      }
    } else if (het) {
      cluster::apply_releases_het(free_times, node_ids, plan.node_release, plan.node_ids,
                                  het_merge_scratch_);
    } else {
      cluster::apply_releases(free_times, plan.node_release, merge_scratch_);
    }

    outcome.schedule.push_back(ScheduledTask{task, std::move(result.plan)});
  }

  outcome.accepted = true;
  return outcome;
}

AdmissionOutcome AdmissionController::admit(
    const workload::Task& new_task, const std::vector<const workload::Task*>& waiting,
    const cluster::ClusterParams& params, const cluster::Cluster& cluster,
    const cluster::NodeCalendar* calendar, Time now, bool incremental) {
  if (rule_->uses_calendar()) {
    if (calendar == nullptr) {
      throw std::invalid_argument("AdmissionController::admit: rule requires a calendar");
    }
    // "Release time" = end of the node's last committed reservation (the
    // calendar rule itself plans against the gaps).
    live_times_.clear();
    for (cluster::NodeId id = 0; id < calendar->size(); ++id) {
      const auto& busy = calendar->busy(id);
      live_times_.push_back(std::max(now, busy.empty() ? now : busy.back().end));
    }
    return test(&new_task, waiting, params, live_times_, now, calendar);
  }
  if (incremental) return test_incremental(new_task, waiting, params, cluster, now);
  if (params.heterogeneous()) {
    cluster.availability_with_ids_into(now, live_times_, live_ids_);
    return test(&new_task, waiting, params, live_times_, now, nullptr, live_ids_);
  }
  cluster.availability_into(now, live_times_);
  return test(&new_task, waiting, params, live_times_, now);
}

void commit_plan(const TaskPlan& plan, Time now, cluster::Cluster& cluster,
                 cluster::NodeCalendar* calendar, std::vector<cluster::NodeId>& ids) {
  if (calendar != nullptr) {
    // Calendar plan: reserve the exact intervals it chose (possibly
    // backfilled into gaps in front of existing reservations).
    ids = plan.node_ids;
    for (std::size_t i = 0; i < plan.nodes; ++i) {
      calendar->reserve(ids[i], plan.reserve_from[i], plan.node_release[i]);
    }
    return;
  }
  if (!plan.node_ids.empty()) {
    // Heterogeneous plan: the partition was computed for exactly these
    // nodes' speeds (nodes of different speeds are not interchangeable).
    ids = plan.node_ids;
  } else {
    // Map the plan's sorted slots onto the n earliest-free concrete nodes.
    cluster.earliest_free_nodes_into(now, plan.nodes, ids);
  }
  for (std::size_t i = 0; i < plan.nodes; ++i) {
    cluster.commit(ids[i], plan.task, plan.available[i], plan.reserve_from[i],
                   plan.node_release[i]);
  }
}

void AdmissionController::invalidate() {
  cache_valid_ = false;
  head_ = 0;
  planned_ = 0;
  synced_prefix_ = 0;
  order_.clear();
  plans_.clear();
  delta_end_.clear();
  delta_times_.clear();
  delta_ids_.clear();
  fronts_.clear();
  for (Checkpoint& cp : checkpoints_) retire_checkpoint(std::move(cp));
  checkpoints_.clear();
  cursor_valid_ = false;
  top_times_.clear();
  het_session_ = false;
  top_ids_.clear();
  // peak_ deliberately survives: a burst's high-water mark must outlive the
  // session rebuilds inside it (reset_session_stats() is the explicit reset).
}

AdmissionController::SessionMemory AdmissionController::session_memory() const {
  SessionMemory mem;
  if (!cache_valid_) return mem;
  std::size_t bytes = delta_times_.size() * sizeof(Time) +
                      delta_ids_.size() * sizeof(cluster::NodeId) +
                      delta_end_.size() * sizeof(std::size_t);
  for (const Checkpoint& cp : checkpoints_) {
    bytes += cp.times.size() * sizeof(Time) + cp.ids.size() * sizeof(cluster::NodeId);
  }
  bytes += top_times_.size() * sizeof(Time) + top_ids_.size() * sizeof(cluster::NodeId);
  if (cursor_valid_) {
    bytes += cursor_times_.size() * sizeof(Time) +
             cursor_ids_.size() * sizeof(cluster::NodeId);
  }
  bytes += fronts_.size() * sizeof(Time);
  mem.bytes = bytes;
  // The historical representation held one dense row per planned position
  // (rows head_..head_+planned_ pre-compaction, each N wide; het rows also
  // mirrored an id column).
  const std::size_t entry =
      sizeof(Time) + (het_session_ ? sizeof(cluster::NodeId) : 0);
  mem.dense_equivalent_bytes = (head_ + planned_ + 1) * node_count_ * entry;
  return mem;
}

void AdmissionController::note_session_peak() {
  const SessionMemory mem = session_memory();
  peak_.bytes = std::max(peak_.bytes, mem.bytes);
  peak_.dense_equivalent_bytes =
      std::max(peak_.dense_equivalent_bytes, mem.dense_equivalent_bytes);
}

AdmissionController::Checkpoint AdmissionController::take_checkpoint(std::size_t pos) {
  Checkpoint cp;
  if (!checkpoint_pool_.empty()) {
    cp = std::move(checkpoint_pool_.back());
    checkpoint_pool_.pop_back();
  }
  cp.pos = pos;
  admission_obs().checkpoints.inc();
  return cp;
}

void AdmissionController::retire_checkpoint(Checkpoint&& checkpoint) {
  // Cleared (not shrunk): the next take_checkpoint reuses the row capacity,
  // so the checkpoint churn of adoption truncations allocates nothing in
  // steady state.
  checkpoint.times.clear();
  checkpoint.ids.clear();
  checkpoint_pool_.push_back(std::move(checkpoint));
}

void AdmissionController::compact_head() {
  if (head_ == 0) return;
  // The cut must land on a dense row (everything below it is erased, so the
  // delta chain can no longer reach positions before the first checkpoint):
  // use the last checkpoint at or before head_. One always exists at
  // position 0 (the rebuild seeds it and every compaction keeps the cut).
  std::size_t cut = 0;
  for (const Checkpoint& cp : checkpoints_) {
    if (cp.pos > head_) break;
    cut = cp.pos;
  }
  if (cut == 0) return;  // nothing erasable yet; try again after more commits
  const auto offset = static_cast<std::ptrdiff_t>(cut);
  const std::size_t flat_cut = delta_start(cut);
  order_.erase(order_.begin(), order_.begin() + offset);
  plans_.erase(plans_.begin(), plans_.begin() + offset);
  delta_end_.erase(delta_end_.begin(), delta_end_.begin() + offset);
  for (std::size_t& end : delta_end_) end -= flat_cut;
  delta_times_.erase(delta_times_.begin(),
                     delta_times_.begin() + static_cast<std::ptrdiff_t>(flat_cut));
  if (het_session_) {
    delta_ids_.erase(delta_ids_.begin(),
                     delta_ids_.begin() + static_cast<std::ptrdiff_t>(flat_cut));
  }
  fronts_.erase(fronts_.begin(), fronts_.begin() + offset);
  const auto keep = std::find_if(checkpoints_.begin(), checkpoints_.end(),
                                 [cut](const Checkpoint& cp) { return cp.pos >= cut; });
  for (auto it = checkpoints_.begin(); it != keep; ++it) {
    retire_checkpoint(std::move(*it));
  }
  checkpoints_.erase(checkpoints_.begin(), keep);
  for (Checkpoint& cp : checkpoints_) cp.pos -= cut;
  if (cursor_valid_) {
    if (cursor_pos_ < cut) {
      cursor_valid_ = false;
    } else {
      cursor_pos_ -= cut;
    }
  }
  head_ -= cut;
}

void AdmissionController::materialize_row(std::size_t pos) {
  if (pos == head_ + planned_) {
    // The frontier row is kept dense: append-at-the-end planning (FIFO
    // always, EDF whenever the new deadline sorts last) replays nothing.
    work_state_ = top_times_;
    if (het_session_) work_ids_ = top_ids_;
    return;
  }
  const auto after = std::upper_bound(
      checkpoints_.begin(), checkpoints_.end(), pos,
      [](std::size_t p, const Checkpoint& cp) { return p < cp.pos; });
  const Checkpoint& base = *(after - 1);  // exists: position 0 is always kept
  // Start from whichever dense row is closest below `pos`: the nearest
  // checkpoint, or the cursor (the row the previous arrival rebuilt).
  std::size_t from = base.pos;
  if (cursor_valid_ && cursor_pos_ <= pos && cursor_pos_ > from) {
    from = cursor_pos_;
    work_state_ = cursor_times_;
    if (het_session_) work_ids_ = cursor_ids_;
  } else {
    work_state_ = base.times;
    if (het_session_) work_ids_ = base.ids;
  }
  const std::size_t chain = pos - base.pos;
  admission_obs().delta_replays.add(pos - from);
  for (std::size_t r = from; r < pos; ++r) {
    const std::size_t begin = delta_start(r);
    const std::size_t k = delta_end_[r] - begin;
    if (het_session_) {
      cluster::apply_delta_het(work_state_, work_ids_, delta_times_.data() + begin,
                               delta_ids_.data() + begin, k);
    } else {
      cluster::apply_delta(work_state_, delta_times_.data() + begin, k);
    }
  }
  // A long replay marks a hot insertion point (policies tend to insert
  // arrivals into the same deadline neighborhood); checkpoint the rebuilt
  // row so the next arrival landing here replays nothing. The budget keeps
  // the dense-row count at the sqrt(N)-cadence O(rows / sqrt(N)) bound even
  // when insertion points wander (otherwise opportunistic rows would erode
  // the memory win the sparse session exists for).
  const std::size_t budget = (head_ + planned_) / checkpoint_every_ + 3;
  if (chain > checkpoint_every_ / 2 && checkpoints_.size() < budget) {
    admission_obs().opportunistic_checkpoints.inc();
    Checkpoint cp = take_checkpoint(pos);
    cp.times = work_state_;
    if (het_session_) cp.ids = work_ids_;
    checkpoints_.insert(after, std::move(cp));
  }
  if (pos != from) {
    // Remember the rebuilt row; the next nearby insertion replays only the
    // gap between the two positions.
    cursor_valid_ = true;
    cursor_pos_ = pos;
    cursor_times_ = work_state_;
    if (het_session_) cursor_ids_ = work_ids_;
  }
}

void AdmissionController::on_commit(const workload::Task* task, const TaskPlan& plan,
                                    std::uint64_t cluster_version) {
  if (!cache_valid_) return;
  if (order_.size() == head_ || order_[head_] != task || planned_ == 0 ||
      !(plans_[head_] == plan)) {
    // Out-of-policy-order commit, an unplanned front, or a committed plan
    // differing from the cached one (possible when the caller still holds
    // plans from before a rejected rebuild): the remaining waiting plans
    // were threaded through different inputs, so the next arrival must
    // rebuild.
    invalidate();
    return;
  }
  // Policy-order-front commit: its reservations are exactly the front
  // plan's releases, so the post-commit availability snapshot equals the
  // next row and the whole session just shifts by one - O(1) via the head
  // offset (the frontier row and every checkpoint keep their positions),
  // compacted back to the nearest checkpoint once the consumed prefix
  // outweighs the live part (amortized O(1) per advance).
  ++head_;
  --planned_;
  if (synced_prefix_ > 0) --synced_prefix_;
  cache_version_ = cluster_version;
  if (head_ > 64 && head_ > order_.size() - head_) compact_head();
}

AdmissionOutcome AdmissionController::test_incremental(
    const workload::Task& new_task, const std::vector<const workload::Task*>& waiting,
    const cluster::ClusterParams& params, const cluster::Cluster& cluster, Time now) {
  if (rule_->uses_calendar()) {
    throw std::logic_error("test_incremental: calendar rules require the full test()");
  }
  if (cluster.size() != params.node_count) {
    throw std::invalid_argument("test_incremental: cluster/params node count mismatch");
  }
  const std::size_t n = params.node_count;
  const std::size_t q = waiting.size();
  const bool het = params.heterogeneous();

  // The session is reusable when nothing that feeds the plans has changed:
  // same availability version, no entry floored below `now` (rows are
  // sorted, so the cached front of row head_ suffices), the same waiting
  // order, and the same homogeneous/heterogeneous mode.
  bool reuse = cache_valid_ && cache_version_ == cluster.version() &&
               node_count_ == n && het_session_ == het && order_.size() - head_ == q &&
               fronts_.size() > head_ && fronts_[head_] >= now;
  if (reuse) reuse = std::equal(waiting.begin(), waiting.end(), order_.begin() + head_);

  if (!reuse) {
    admission_obs().session_rebuilds.inc();
    invalidate();
    node_count_ = n;
    het_session_ = het;
    // ~sqrt(N), floored at 16: below that the dense rows are so small that
    // checkpoint churn costs more than the replays it saves (the sparse
    // representation is a large-N play; tiny clusters just replay).
    checkpoint_every_ = std::max<std::size_t>(
        16, static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(n)))));
    order_.assign(waiting.begin(), waiting.end());
    // The caller keeps `waiting` in policy order; re-sorting an already
    // sorted list is cheap and keeps a misordered caller correct (it merely
    // costs the incremental reuse).
    order_tasks(policy_, order_);
    if (het) {
      cluster.availability_with_ids_into(now, top_times_, top_ids_);
    } else {
      cluster.availability_into(now, top_times_);
    }
    Checkpoint base = take_checkpoint(0);
    base.times = top_times_;
    if (het) base.ids = top_ids_;
    checkpoints_.push_back(std::move(base));
    fronts_.push_back(top_times_.front());
    cache_valid_ = true;
    cache_version_ = cluster.version();
  }

  // Policy insertion point of the new task in the ordered waiting queue.
  // policy_less is a strict total order (ties break by arrival then id), so
  // inserting here reproduces order_tasks() on the merged list exactly.
  const std::size_t p = static_cast<std::size_t>(
      std::upper_bound(order_.begin() + static_cast<std::ptrdiff_t>(head_), order_.end(),
                       &new_task,
                       [this](const workload::Task* a, const workload::Task* b) {
                         return policy_less(policy_, *a, *b);
                       }) -
      (order_.begin() + static_cast<std::ptrdiff_t>(head_)));

  AdmissionOutcome outcome;
  const std::size_t start = std::min(p, planned_);
  outcome.reused_prefix = std::min(synced_prefix_, start);

  // Working availability state := row of live position `start`: the dense
  // frontier when planning appends at the end, otherwise the nearest
  // checkpoint plus a bounded delta-chain replay.
  materialize_row(head_ + start);

  // Batched hard-rejection screen: gather every task this call may plan
  // (temp-list order, i.e. screen index i - start for temp position i) into
  // flat (sigma*Cms, deadline) columns once. Each planning step below then
  // rejects a doomed task straight off the columns - the exact (reason,
  // blocker) the rule's own scan would return, per the
  // hard_rejects_at_front() contract - without paying for the plan() call.
  const bool screened = rule_->hard_rejects_at_front();
  if (screened) {
    screen_tasks_.clear();
    for (std::size_t i = start; i < p; ++i) screen_tasks_.push_back(order_[head_ + i]);
    screen_tasks_.push_back(&new_task);
    for (std::size_t i = p + 1; i <= q; ++i) screen_tasks_.push_back(order_[head_ + i - 1]);
    screen_.build(params.cms, screen_tasks_.data(), screen_tasks_.size());
  }

  PlanRequest request;
  request.params = params;
  request.free_times = &work_state_;
  request.node_ids = het ? &work_ids_ : nullptr;
  request.now = now;

  auto reject = [&](dlt::Infeasibility reason, const workload::Task* blocker) {
    outcome.accepted = false;
    outcome.reason = reason;
    outcome.blocking_task = blocker->id;
    outcome.reused_prefix = 0;
    outcome.schedule.clear();
    note_session_peak();
    if (cross_check_) verify_against_full(new_task, waiting, params, cluster, now, outcome);
    return outcome;
  };

  // Applies the freshly planned releases to the working row and appends the
  // resulting O(k) delta (the merge scratch holds exactly the sorted
  // entries the merge consumed) to the given flat delta columns.
  auto apply_and_record = [&](const TaskPlan& plan, std::vector<std::size_t>& ends,
                              std::vector<Time>& times,
                              std::vector<cluster::NodeId>& ids) {
    if (het) {
      cluster::apply_releases_het(work_state_, work_ids_, plan.node_release,
                                  plan.node_ids, het_merge_scratch_);
      for (std::size_t i = 0; i < plan.node_release.size(); ++i) {
        times.push_back(het_merge_scratch_[i].first);
        ids.push_back(het_merge_scratch_[i].second);
      }
    } else {
      cluster::apply_releases(work_state_, plan.node_release, merge_scratch_);
      times.insert(times.end(), merge_scratch_.begin(), merge_scratch_.end());
    }
    ends.push_back(times.size());
  };

  // Extend the waiting-only prefix up to the insertion point (runs only
  // after a rejected rebuild left the session partially planned). These
  // plans do not involve the new task, so they survive a rejection; the
  // frontier row is synced per step so a mid-loop rejection leaves the
  // session consistent.
  for (std::size_t i = planned_; i < p; ++i) {
    if (screened) {
      const dlt::Infeasibility doomed = screen_.screen(i - start, work_state_.front());
      if (doomed != dlt::Infeasibility::kNone) return reject(doomed, order_[head_ + i]);
    }
    request.task = order_[head_ + i];
    PlanResult result = rule_->plan(request);
    if (!result.feasible()) return reject(result.reason, order_[head_ + i]);
    apply_and_record(result.plan, delta_end_, delta_times_, delta_ids_);
    plans_.push_back(std::move(result.plan));
    fronts_.push_back(work_state_.front());
    ++planned_;
    top_times_ = work_state_;
    if (het) top_ids_ = work_ids_;
    if (head_ + planned_ >= checkpoints_.back().pos + checkpoint_every_) {
      Checkpoint cp = take_checkpoint(head_ + planned_);
      cp.times = work_state_;
      if (het) cp.ids = work_ids_;
      checkpoints_.push_back(std::move(cp));
    }
  }

  // From the insertion point on the temp list diverges from the waiting
  // queue; plan into scratch and adopt only if the whole suffix fits.
  scratch_plans_.clear();
  scratch_delta_end_.clear();
  scratch_delta_times_.clear();
  scratch_delta_ids_.clear();
  scratch_fronts_.clear();
  for (Checkpoint& cp : scratch_checkpoints_) retire_checkpoint(std::move(cp));
  scratch_checkpoints_.clear();
  // Checkpoints above the insertion point describe rows of the suffix being
  // replaced and are dropped at adoption; the cadence for the re-planned
  // rows measures from the last one that will survive.
  std::size_t last_checkpoint = 0;
  for (const Checkpoint& cp : checkpoints_) {
    if (cp.pos > head_ + p) break;
    last_checkpoint = cp.pos;
  }
  for (std::size_t i = p; i <= q; ++i) {
    const workload::Task* task = (i == p) ? &new_task : order_[head_ + i - 1];
    if (screened) {
      const dlt::Infeasibility doomed = screen_.screen(i - start, work_state_.front());
      if (doomed != dlt::Infeasibility::kNone) return reject(doomed, task);
    }
    request.task = task;
    PlanResult result = rule_->plan(request);
    if (!result.feasible()) return reject(result.reason, task);
    apply_and_record(result.plan, scratch_delta_end_, scratch_delta_times_,
                     scratch_delta_ids_);
    scratch_plans_.push_back(std::move(result.plan));
    scratch_fronts_.push_back(work_state_.front());
    const std::size_t row = head_ + i + 1;  // row after planning temp entry i
    if (i < q && row >= last_checkpoint + checkpoint_every_) {
      // The final row needs no checkpoint: it becomes the dense frontier.
      Checkpoint cp = take_checkpoint(row);
      cp.times = work_state_;
      if (het) cp.ids = work_ids_;
      scratch_checkpoints_.push_back(std::move(cp));
      last_checkpoint = row;
    }
  }

  // Accepted: adopt the scratch suffix into the session. The replaced
  // suffix rolls back by truncation (its deltas, fronts, and checkpoints
  // simply fall off the stack).
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(head_ + p), &new_task);
  plans_.resize(head_ + p);
  for (TaskPlan& plan : scratch_plans_) plans_.push_back(std::move(plan));
  const std::size_t flat_base = delta_start(head_ + p);
  delta_end_.resize(head_ + p);
  delta_times_.resize(flat_base);
  if (het) delta_ids_.resize(flat_base);
  for (std::size_t end : scratch_delta_end_) delta_end_.push_back(flat_base + end);
  delta_times_.insert(delta_times_.end(), scratch_delta_times_.begin(),
                      scratch_delta_times_.end());
  if (het) {
    delta_ids_.insert(delta_ids_.end(), scratch_delta_ids_.begin(),
                      scratch_delta_ids_.end());
  }
  fronts_.resize(head_ + p + 1);
  fronts_.insert(fronts_.end(), scratch_fronts_.begin(), scratch_fronts_.end());
  while (checkpoints_.back().pos > head_ + p) {
    retire_checkpoint(std::move(checkpoints_.back()));
    checkpoints_.pop_back();
  }
  // The cursor row at the insertion point survives (row head_ + p depends
  // only on the plans before it); anything above described replaced rows.
  if (cursor_valid_ && cursor_pos_ > head_ + p) cursor_valid_ = false;
  for (Checkpoint& cp : scratch_checkpoints_) checkpoints_.push_back(std::move(cp));
  scratch_checkpoints_.clear();  // moved-from shells
  std::swap(top_times_, work_state_);
  if (het) std::swap(top_ids_, work_ids_);
  planned_ = q + 1;
  synced_prefix_ = q + 1;
  note_session_peak();
  admission_obs().replan_suffix.record(static_cast<double>(q + 1 - p));

  outcome.accepted = true;
  outcome.schedule.reserve(q + 1 - outcome.reused_prefix);
  for (std::size_t i = outcome.reused_prefix; i <= q; ++i) {
    outcome.schedule.push_back(ScheduledTask{order_[head_ + i], plans_[head_ + i]});
  }
  if (cross_check_) verify_against_full(new_task, waiting, params, cluster, now, outcome);
  return outcome;
}

void AdmissionController::verify_against_full(
    const workload::Task& new_task, const std::vector<const workload::Task*>& waiting,
    const cluster::ClusterParams& params, const cluster::Cluster& cluster, Time now,
    const AdmissionOutcome& outcome) const {
  cluster::AvailabilityView view = cluster.availability(now);
  const AdmissionOutcome reference = test(&new_task, waiting, params,
                                          std::move(view.times), now, nullptr,
                                          std::move(view.ids));
  auto fail = [](const std::string& what) {
    throw std::logic_error(
        "AdmissionController cross-check: incremental vs full Figure-2 mismatch: " + what);
  };
  if (reference.accepted != outcome.accepted) fail("acceptance");
  if (!outcome.accepted) {
    if (reference.reason != outcome.reason) fail("infeasibility reason");
    if (reference.blocking_task != outcome.blocking_task) fail("blocking task");
    return;
  }
  // On acceptance the session holds the full adopted schedule.
  const std::size_t live = order_.size() - head_;
  if (reference.schedule.size() != live) fail("schedule size");
  for (std::size_t i = 0; i < live; ++i) {
    if (reference.schedule[i].task != order_[head_ + i]) fail("task order");
    if (!(reference.schedule[i].plan == plans_[head_ + i])) fail("plan equality");
  }
}

}  // namespace rtdls::sched
