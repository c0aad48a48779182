#include "sched/admission.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

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

  // The row carries ids only when nodes are not interchangeable; there an
  // empty id column means free_times is indexed by node id.
  cluster::AvailabilityRow row{std::move(free_times), {}};
  if (params.heterogeneous()) {
    row.ids = std::move(node_ids);
    if (row.ids.empty()) {
      row.ids.resize(row.times.size());
      std::iota(row.ids.begin(), row.ids.end(), cluster::NodeId{0});
    }
  }
  cluster::floor_and_sort(row, now, merge_scratch_);
  cluster::AvailabilityView view(std::move(row));

  AdmissionOutcome outcome;
  outcome.schedule.reserve(temp_list.size());

  for (const workload::Task* task : temp_list) {
    PlanRequest request;
    request.task = task;
    request.params = params;
    request.row = &view;
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
    } else {
      cluster::apply_releases(view.dense(), plan.node_release, plan.node_ids, merge_scratch_);
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
    live_.times.clear();
    for (cluster::NodeId id = 0; id < calendar->size(); ++id) {
      const auto& busy = calendar->busy(id);
      live_.times.push_back(std::max(now, busy.empty() ? now : busy.back().end));
    }
    return test(&new_task, waiting, params, live_.times, now, calendar);
  }
  if (incremental) return test_incremental(new_task, waiting, params, cluster, now);
  cluster.availability_into(now, live_);
  return test(&new_task, waiting, params, live_.times, now, nullptr, live_.ids);
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
  cluster.commit_batch(ids, plan.task, plan.available, plan.reserve_from,
                       plan.node_release);
}

void AdmissionController::invalidate() {
  cache_valid_ = false;
  head_ = 0;
  planned_ = 0;
  synced_prefix_ = 0;
  order_.clear();
  plans_.clear();
  deltas_.truncate(0);
  for (Checkpoint& cp : checkpoints_) retire_checkpoint(std::move(cp));
  checkpoints_.clear();
  top_pos_ = kNpos;
  work_pos_ = kNpos;
  // peak_ deliberately survives: a burst's high-water mark must outlive the
  // session rebuilds inside it (reset_session_stats() is the explicit reset).
}

AdmissionController::SessionMemory AdmissionController::session_memory() const {
  SessionMemory mem;
  if (!cache_valid_) return mem;
  const auto row_bytes = [](const cluster::AvailabilityRow& row) {
    return row.times.size() * sizeof(Time) + row.ids.size() * sizeof(cluster::NodeId);
  };
  std::size_t bytes = deltas_.times.size() * sizeof(Time) +
                      deltas_.ids.size() * sizeof(cluster::NodeId) +
                      deltas_.end.size() * sizeof(std::size_t);
  for (const Checkpoint& cp : checkpoints_) bytes += row_bytes(cp.row);
  if (top_pos_ != kNpos) bytes += row_bytes(top_);
  mem.bytes = bytes;
  // The historical representation held one dense row per planned position
  // (rows head_..head_+planned_ pre-compaction, each N wide; rows with ids
  // also mirrored the id column).
  const std::size_t entry = sizeof(Time) + (with_ids_ ? sizeof(cluster::NodeId) : 0);
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
  checkpoint.row.times.clear();
  checkpoint.row.ids.clear();
  checkpoint_pool_.push_back(std::move(checkpoint));
}

void AdmissionController::compact_head() {
  // Row head_ is always at hand (the live view), so everything below it can
  // go: the consumed entries, their deltas, and the dense rows they hold.
  const std::size_t cut = head_;
  if (cut == 0) return;
  const auto offset = static_cast<std::ptrdiff_t>(cut);
  order_.erase(order_.begin(), order_.begin() + offset);
  plans_.erase(plans_.begin(), plans_.begin() + offset);
  deltas_.drop_front(cut);
  const auto keep = std::find_if(checkpoints_.begin(), checkpoints_.end(),
                                 [cut](const Checkpoint& cp) { return cp.pos >= cut; });
  for (auto it = checkpoints_.begin(); it != keep; ++it) {
    retire_checkpoint(std::move(*it));
  }
  checkpoints_.erase(checkpoints_.begin(), keep);
  for (Checkpoint& cp : checkpoints_) cp.pos -= cut;
  if (top_pos_ != kNpos) top_pos_ = top_pos_ < cut ? kNpos : top_pos_ - cut;
  head_ = 0;
}

void AdmissionController::materialize_row(std::size_t pos, bool take_top,
                                          const cluster::Cluster& cluster, Time now) {
  if (work_pos_ == pos) return;  // the live view a rebuild just opened
  // The closest dense row at or below `pos` (rows below head_ are stale);
  // on a tie top_ wins, as it may be swapped in instead of copied.
  std::size_t from = kNpos;
  const cluster::AvailabilityRow* source = nullptr;
  const auto offer = [&](std::size_t at, const cluster::AvailabilityRow* row) {
    if (at >= head_ && at <= pos && (from == kNpos || at > from)) {
      from = at;
      source = row;
    }
  };
  if (top_pos_ != kNpos) offer(top_pos_, &top_);
  const auto after = std::upper_bound(
      checkpoints_.begin(), checkpoints_.end(), pos,
      [](std::size_t p, const Checkpoint& cp) { return p < cp.pos; });
  if (after != checkpoints_.begin()) offer((after - 1)->pos, &(after - 1)->row);
  const bool swap_top = take_top && source == &top_;

  if (from == kNpos || (pos == head_ && !swap_top)) {
    // Row head_ is the live view: left unfilled when planning starts there
    // (the plan reads only what it inspects), filled in full to replay on.
    cluster.open_view(now, work_);
    from = head_;
  } else if (swap_top) {
    work_.swap(top_);
    top_pos_ = kNpos;
  } else {
    work_.assign(*source);
  }
  work_pos_ = from;
  admission_obs().delta_replays.add(pos - from);
  catch_up(pos, head_ + planned_);
}

void AdmissionController::catch_up(std::size_t pos, std::size_t suffix) {
  for (; work_pos_ < pos; ++work_pos_) {
    if (work_pos_ < suffix) {
      deltas_.replay(work_pos_, work_.dense());
    } else {
      scratch_deltas_.replay(work_pos_ - suffix, work_.dense());
      scratch_merged_ = true;
    }
  }
}

void AdmissionController::settle_work(bool accepted, std::size_t suffix) {
  // A partly filled view never outlives the call: the next commit, or a
  // view at another `now`, would change what its unread positions say.
  if (work_pos_ != kNpos && !work_.settle()) work_pos_ = kNpos;
  if (work_pos_ != kNpos && (accepted || !scratch_merged_)) {
    work_.swap(top_);
    top_pos_ = work_pos_;
  } else if (accepted && top_pos_ != kNpos && top_pos_ > suffix) {
    top_pos_ = kNpos;  // a row the adopted suffix replaced
  }
  work_pos_ = kNpos;
  scratch_merged_ = false;
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
  // plan's releases, so the post-commit availability view equals the next
  // row and the whole session just shifts by one - O(1) via the head
  // offset (the dense rows keep their positions), compacted once the
  // consumed prefix outweighs the live part (amortized O(1) per advance).
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
  work_pos_ = kNpos;  // work_ holds no row between calls
  scratch_merged_ = false;

  // The session is reusable when nothing that feeds the plans has changed:
  // same availability version, the same waiting order, rows that carry ids
  // exactly when the params need them, and a row head_ that is still the
  // live view. Row head_ stands for the live view at floor_; the view at
  // `now` is the same row when `now` is floor_, or when no node frees
  // before either instant, so that neither floors an entry (the index's
  // earliest release answers that in O(1)).
  bool reuse = cache_valid_ && cache_version_ == cluster.version() && node_count_ == n &&
               with_ids_ == params.heterogeneous() && order_.size() - head_ == q &&
               (now == floor_ || cluster.earliest_release() >= std::max(now, floor_));
  if (reuse) reuse = std::equal(waiting.begin(), waiting.end(), order_.begin() + head_);

  if (!reuse) {
    admission_obs().session_rebuilds.inc();
    invalidate();
    node_count_ = n;
    with_ids_ = params.heterogeneous();
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
    // Row 0 is the live view.
    cluster.open_view(now, work_);
    work_pos_ = 0;
    cache_valid_ = true;
    cache_version_ = cluster.version();
  }
  floor_ = now;

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
  const std::size_t suffix = head_ + p;  // first row the new task's plan feeds

  // Working availability state := row of live position `start`. A call that
  // plans only the new task (p == q) may take top_ itself: nothing it
  // merges can leave work_ off the session's rows.
  materialize_row(head_ + start, p == q, cluster, now);

  PlanRequest request;
  request.params = params;
  request.row = &work_;
  request.now = now;

  auto reject = [&](dlt::Infeasibility reason, const workload::Task* blocker) {
    outcome.accepted = false;
    outcome.reason = reason;
    outcome.blocking_task = blocker->id;
    outcome.reused_prefix = 0;
    outcome.schedule.clear();
    settle_work(false, suffix);
    note_session_peak();
    if (cross_check_) verify_against_full(new_task, waiting, params, cluster, now, outcome);
    return outcome;
  };

  // Plans task `task` against row `pos`: merges the previous plan's
  // releases into work_ first (deferred until a plan reads them), then
  // records this plan's sorted releases as an O(k) delta in `deltas`. The
  // merge of the call's last plan stays deferred: a later call that plans
  // from the frontier does it.
  auto plan_at = [&](std::size_t pos, const workload::Task* task,
                     cluster::DeltaColumns& deltas) {
    catch_up(pos, suffix);
    request.task = task;
    PlanResult result = rule_->plan(request);
    if (!result.feasible()) return result;
    cluster::sort_releases(result.plan.node_release, result.plan.node_ids, with_ids_,
                           merge_scratch_);
    if (merge_scratch_.times.size() > n) {
      throw std::invalid_argument("test_incremental: plan releases more nodes than the row");
    }
    deltas.push(merge_scratch_);
    return result;
  };

  // Extend the waiting-only prefix up to the insertion point: after every
  // rebuild whose insertion point is past 0 (the rebuild planned nothing),
  // and after a rejection that stopped short of it. These plans do not
  // involve the new task, so they survive a rejection, and the session is
  // consistent after every step.
  for (std::size_t i = planned_; i < p; ++i) {
    PlanResult result = plan_at(head_ + i, order_[head_ + i], deltas_);
    if (!result.feasible()) return reject(result.reason, order_[head_ + i]);
    plans_.push_back(std::move(result.plan));
    ++planned_;
    const std::size_t row = head_ + planned_;
    const std::size_t last =
        checkpoints_.empty() ? head_ : std::max(head_, checkpoints_.back().pos);
    if (row >= last + checkpoint_every_) {
      catch_up(row, suffix);
      Checkpoint cp = take_checkpoint(row);
      cp.row = work_.dense();
      checkpoints_.push_back(std::move(cp));
    }
  }

  // From the insertion point on the temp list diverges from the waiting
  // queue; plan into scratch and adopt only if the whole suffix fits.
  scratch_plans_.clear();
  scratch_deltas_.truncate(0);
  for (Checkpoint& cp : scratch_checkpoints_) retire_checkpoint(std::move(cp));
  scratch_checkpoints_.clear();
  // Checkpoints above the insertion point describe rows of the suffix being
  // replaced and are dropped at adoption; the cadence for the re-planned
  // rows measures from the last one that will survive (or the base).
  std::size_t last_checkpoint = head_;
  for (const Checkpoint& cp : checkpoints_) {
    if (cp.pos > suffix) break;
    last_checkpoint = std::max(last_checkpoint, cp.pos);
  }
  for (std::size_t i = p; i <= q; ++i) {
    const workload::Task* task = (i == p) ? &new_task : order_[head_ + i - 1];
    PlanResult result = plan_at(head_ + i, task, scratch_deltas_);
    if (!result.feasible()) return reject(result.reason, task);
    scratch_plans_.push_back(std::move(result.plan));
    const std::size_t row = head_ + i + 1;  // row after planning temp entry i
    if (i < q && row >= last_checkpoint + checkpoint_every_) {
      // The final row needs no checkpoint: it is the frontier.
      catch_up(row, suffix);
      Checkpoint cp = take_checkpoint(row);
      cp.row = work_.dense();
      scratch_checkpoints_.push_back(std::move(cp));
      last_checkpoint = row;
    }
  }

  // Accepted: adopt the scratch suffix into the session. The replaced
  // suffix rolls back by truncation (its deltas and checkpoints simply fall
  // off the stack).
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(suffix), &new_task);
  plans_.resize(suffix);
  for (TaskPlan& plan : scratch_plans_) plans_.push_back(std::move(plan));
  deltas_.truncate(suffix);
  deltas_.append(scratch_deltas_);
  while (!checkpoints_.empty() && checkpoints_.back().pos > suffix) {
    retire_checkpoint(std::move(checkpoints_.back()));
    checkpoints_.pop_back();
  }
  for (Checkpoint& cp : scratch_checkpoints_) checkpoints_.push_back(std::move(cp));
  scratch_checkpoints_.clear();  // moved-from shells
  planned_ = q + 1;
  synced_prefix_ = q + 1;
  settle_work(true, suffix);
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
  cluster::AvailabilityRow row;
  cluster.availability_into(now, row);
  const AdmissionOutcome reference = test(&new_task, waiting, params, std::move(row.times),
                                          now, nullptr, std::move(row.ids));
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
