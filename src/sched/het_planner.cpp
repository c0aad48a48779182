#include "sched/het_planner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cluster/calendar.hpp"
#include "util/fp.hpp"
#include "cluster/speed_profile.hpp"
#include "sched/rule_detail.hpp"

namespace rtdls::sched::het {

namespace {

/// Copies the chosen prefix's identity columns into the plan.
void pin_prefix(const PlanRequest& request, const PlannerScratch& scratch, std::size_t n,
                TaskPlan& plan) {
  const std::vector<cluster::NodeId>& ids = request.row->ids();
  plan.node_ids.assign(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(n));
  plan.node_cps.assign(scratch.cps.begin(),
                       scratch.cps.begin() + static_cast<std::ptrdiff_t>(n));
}

/// Extends scratch.cps with the actual speeds of positions
/// [scratch.cps.size(), upto), read by id straight off the profile's column
/// in one pass (the row must be filled that far). The planners gather a
/// filled block at a time, so a plan touching k positions never reads ids
/// more than one read-ahead block past them.
void gather_cps(const PlanRequest& request, PlannerScratch& scratch, std::size_t upto) {
  const std::size_t from = scratch.cps.size();
  if (upto <= from) return;
  scratch.cps.resize(upto);
  const double* speeds = request.params.speed_profile->values().data();
  const cluster::NodeId* ids = request.row->ids().data();
  double* cps = scratch.cps.data();
  for (std::size_t i = from; i < upto; ++i) cps[i] = speeds[ids[i]];
}

/// The position-by-position walk hard-checks every prefix end and returns
/// the reason found at the FIRST failing position; the jump scan only
/// checks its landings. Hard rejection fires iff deadline - r_n <= sigma*cms
/// (slack <= 0 implies it), which is monotone in r_n, so the first firing
/// position in (clear, landing] is recovered by binary search.
/// `known_reason` was already evaluated at `landing`, so the common case
/// (the range is a single position) costs no extra check.
dlt::Infeasibility first_hard_reason(double sigma, double cms, Time deadline,
                                     const std::vector<Time>& free_times,
                                     std::size_t clear, std::size_t landing,
                                     dlt::Infeasibility known_reason) {
  std::size_t lo = clear + 1;
  std::size_t hi = landing;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (hard_reject(sigma, cms, deadline, free_times[mid - 1]) ==
        dlt::Infeasibility::kNone) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == landing) return known_reason;
  return hard_reject(sigma, cms, deadline, free_times[lo - 1]);
}

/// Positions the first-feasible walk fills past the one it inspects: one
/// index bucket's worth, so a walk of w positions pays w / 64 view reads.
constexpr std::size_t kWalkReadAhead = 63;

/// A walk's accepted prefix and its estimate, or (0, reason).
struct WalkOutcome {
  std::size_t nodes = 0;
  dlt::Infeasibility reason = dlt::Infeasibility::kNone;
  Time estimate = 0.0;
  /// The estimate is the reference one (the cursor holds the accepted
  /// alpha), not an untied DLT-IIT prefix's equivalent model.
  bool reference = false;
};

/// First-feasible availability-prefix scan shared by the DLT-IIT and OPR-MN
/// het planners, outcome-identical to the linear n = 1..N walk those rules
/// historically ran (same accept position, same reject reason), with the
/// work-conservation capacity prune turned into a provable lower-bound
/// jump:
///
///  * Work conservation makes capacity(n) = sum_{i<=n} (deadline-r_i)/cps_i
///    >= sigma necessary for any prefix to carry the load, so no partition
///    is built before the first capacity crossing.
///  * One more node contributes at most (deadline - r_n)/cps_floor (release
///    times only grow along the prefix, cps_floor is the profile's fastest
///    unit cost), so from a position short of the crossing the scan jumps
///    straight to landing = n + ceil((sigma - capacity)/that bound) - the
///    galloped starting index. Skipped positions still accumulate their
///    exact capacity terms in scan order (an add and a compare each - the
///    crossing position stays bit-identical to the linear walk's), but are
///    not hard-checked and never build partitions.
///  * Hard rejection is monotone in r_n, so a clean landing proves every
///    skipped position clean, and a rejecting landing recovers the linear
///    scan's exact first-failure reason via first_hard_reason.
///  * From the crossing on (capacity terms stay positive wherever the hard
///    checks pass, so the prune can never re-arm) the scan is the plain
///    linear walk - hard-check, estimate, accept the first prefix whose
///    estimate meets the deadline - run one read-ahead block at a time.
///    Where the estimate is the reference one (every OPR-MN prefix; for
///    DLT-IIT, `tied_only`, the tied prefixes r_n == r_1) the fused
///    PlannerBatch::reference_walk walks the block; an untied DLT-IIT
///    prefix builds its equivalent model (dlt_walk_estimate).
///
/// The row is filled, and scratch.cps gathered, a block at a time: within
/// one read-ahead block of the last position the scan inspects. Positions
/// are evaluated in strictly increasing order, which is what lets the
/// estimates ride scratch.batch's shared alpha cursor (begun here) instead
/// of re-running the Eq. (4)-(5) chain from scratch per candidate.
WalkOutcome first_feasible_prefix(const PlanRequest& request, PlannerScratch& scratch,
                                  double sigma, Time deadline, bool tied_only) {
  const cluster::AvailabilityView& row = *request.row;
  const std::vector<Time>& free_times = row.times();
  const double cms = request.params.cms;
  const std::size_t cluster_size = row.size();
  PlannerBatch& batch = scratch.batch;
  ++scratch.counters.resolver_walks;
  scratch.cps.clear();
  batch.begin_walk(cms, sigma);
  // Fastest unit cost of the profile: the denominator of the jump bound
  // (cached inside SpeedProfile, so this is O(1)).
  const double cps_floor = request.params.speed_profile->min_cps();

  std::size_t clear = 0;    // positions 1..clear passed the hard checks
  std::size_t summed = 0;   // capacity covers positions 1..summed
  double capacity = 0.0;
  std::size_t crossing = 0;  // first position with capacity >= sigma
  std::size_t target = 1;    // next jump landing to hard-check

  // Phase 1: gallop to the capacity crossing. A landing is a lower bound on
  // the crossing, so the row fills exactly the positions the sum reads.
  while (crossing == 0) {
    bool crossed = false;
    row.fill(target);
    gather_cps(request, scratch, target);
    while (summed < target) {
      capacity += (deadline - free_times[summed]) / scratch.cps[summed];
      ++summed;
      if (capacity >= sigma) {
        crossed = true;
        break;
      }
    }
    const std::size_t landing = crossed ? summed : target;
    const dlt::Infeasibility hard =
        hard_reject(sigma, cms, deadline, free_times[landing - 1]);
    if (hard != dlt::Infeasibility::kNone) {
      return {0, first_hard_reason(sigma, cms, deadline, free_times, clear, landing, hard)};
    }
    clear = landing;
    if (crossed) {
      crossing = landing;
      break;
    }
    if (landing == cluster_size) {
      // The whole cluster cannot carry the load; the linear walk falls off
      // the end with the same reason (its hard checks all passed: monotone).
      return {0, dlt::Infeasibility::kNeedsMoreNodes};
    }
    const double per_node = (deadline - free_times[landing - 1]) / cps_floor;
    const double short_by = (sigma - capacity) / per_node;
    if (short_by >= static_cast<double>(cluster_size - landing)) {
      target = cluster_size;
    } else {
      target = landing + std::max<std::size_t>(
                             1, static_cast<std::size_t>(std::ceil(short_by)));
    }
  }

  // Phase 2: the linear walk from the crossing, a block of up to
  // kWalkReadAhead + 1 positions at a time.
  std::size_t n = crossing;
  while (n <= cluster_size) {
    if (n > free_times.size()) row.fill(std::min(cluster_size, n + kWalkReadAhead));
    const std::size_t block_end = std::min(free_times.size(), n + kWalkReadAhead);
    gather_cps(request, scratch, block_end);
    // The block's last prefix whose estimate is the reference one. Rows
    // are sorted, so the tied prefixes lead the row.
    std::size_t last = block_end;
    if (tied_only) {
      const Time* times = free_times.data();
      last = static_cast<std::size_t>(
          std::upper_bound(times + (n - 1), times + block_end, times[0]) - times);
    }
    if (last >= n) {
      const PlannerBatch::WalkStop stop =
          batch.reference_walk(free_times.data(), scratch.cps.data(), n, last, clear, deadline);
      scratch.counters.resolver_positions += stop.estimated;
      scratch.counters.batch_passes += stop.estimated;
      if (stop.reason != dlt::Infeasibility::kNone) return {0, stop.reason};
      if (stop.accepted) {
        return {n + stop.estimated - 1, dlt::Infeasibility::kNone, stop.estimate, true};
      }
      clear = last;
      n = last + 1;
    }
    // Untied DLT-IIT prefixes: one equivalent model each.
    for (; n <= block_end; ++n) {
      if (n > clear) {
        const dlt::Infeasibility hard =
            hard_reject(sigma, cms, deadline, free_times[n - 1]);
        if (hard != dlt::Infeasibility::kNone) return {0, hard};
        clear = n;
      }
      ++scratch.counters.resolver_positions;
      ++scratch.counters.batch_passes;
      const Time est = batch.dlt_walk_estimate(free_times, scratch.cps, n);
      if (fp::at_or_before(est, deadline)) return {n, dlt::Infeasibility::kNone, est, false};
    }
  }
  return {0, dlt::Infeasibility::kNeedsMoreNodes};
}

}  // namespace

PlanResult plan_dlt_iit(const PlanRequest& request, PlannerScratch& scratch) {
  const workload::Task& task = *request.task;
  const std::vector<Time>& free_times = request.row->times();
  const double sigma = task.sigma();
  const Time deadline = task.abs_deadline();

  // Walk estimates come from the batched kernels (the fused reference walk
  // on the tied stretch, flat SoA columns for the equivalent model past
  // it) - bit-identical to the historical build_het_partition_into rebuild
  // at every prefix, without the partition struct or its allocations.
  const WalkOutcome walk =
      first_feasible_prefix(request, scratch, sigma, deadline, /*tied_only=*/true);
  if (walk.reason != dlt::Infeasibility::kNone) return PlanResult::infeasible(walk.reason);

  PlanResult result;
  TaskPlan& plan = result.plan;
  const std::size_t n = walk.nodes;
  const Time est = walk.estimate;
  plan.task = task.id;
  plan.nodes = n;
  plan.available.assign(free_times.begin(),
                        free_times.begin() + static_cast<std::ptrdiff_t>(n));
  plan.reserve_from = plan.available;  // IITs utilized
  plan.node_release.assign(n, est);
  // A tied prefix's partition is the cursor's own.
  if (walk.reference) {
    scratch.batch.materialize_walk_alpha(plan.alpha);
  } else {
    scratch.batch.materialize_dlt_alpha(plan.alpha);
  }
  plan.est_completion = est;
  pin_prefix(request, scratch, n, plan);
  return result;
}

PlanResult plan_opr_mn(const PlanRequest& request, PlannerScratch& scratch) {
  const workload::Task& task = *request.task;
  const std::vector<Time>& free_times = request.row->times();
  const double sigma = task.sigma();
  const Time deadline = task.abs_deadline();

  // The shared prune stays a valid necessary condition for OPR too:
  // (deadline - r_i)/cps_i over-estimates what the simultaneous start at
  // r_n >= r_i allows. Every prefix's estimate is the reference one, so
  // the whole walk runs in the fused kernel, O(1) per inspected prefix.
  const WalkOutcome walk =
      first_feasible_prefix(request, scratch, sigma, deadline, /*tied_only=*/false);
  if (walk.reason != dlt::Infeasibility::kNone) return PlanResult::infeasible(walk.reason);

  const std::size_t n = walk.nodes;
  const Time rn = free_times[n - 1];
  const Time est = walk.estimate;
  PlanResult result;
  TaskPlan& plan = result.plan;
  plan.task = task.id;
  plan.nodes = n;
  plan.available.assign(free_times.begin(),
                        free_times.begin() + static_cast<std::ptrdiff_t>(n));
  plan.reserve_from.assign(n, rn);  // simultaneous allocation: IITs wasted
  plan.node_release.assign(n, est);
  // Only the accepted prefix materializes its normalized alpha.
  scratch.batch.materialize_walk_alpha(plan.alpha);
  plan.est_completion = est;
  pin_prefix(request, scratch, n, plan);
  return result;
}

PlanResult plan_opr_an(const PlanRequest& request, PlannerScratch& scratch) {
  const workload::Task& task = *request.task;
  const cluster::AvailabilityView& row = *request.row;
  const double sigma = task.sigma();
  const Time deadline = task.abs_deadline();
  const std::size_t n = row.size();
  row.fill(n);  // the whole row
  const std::vector<Time>& free_times = row.times();
  const Time rn = free_times.back();
  if (deadline <= rn) return PlanResult::infeasible(dlt::Infeasibility::kDeadlinePassed);
  scratch.cps.clear();
  gather_cps(request, scratch, n);

  dlt::general_het_alpha_into(request.params.cms, scratch.cps, n, scratch.alpha);
  const double exec =
      sigma * request.params.cms + scratch.alpha.back() * sigma * scratch.cps[n - 1];
  const Time est = rn + exec;
  if (fp::after(est, deadline)) {
    return PlanResult::infeasible(dlt::Infeasibility::kNeedsMoreNodes);
  }

  PlanResult result;
  TaskPlan& plan = result.plan;
  plan.task = task.id;
  plan.nodes = n;
  plan.available = free_times;
  plan.reserve_from.assign(n, rn);
  plan.node_release.assign(n, est);
  plan.alpha = scratch.alpha;
  plan.est_completion = est;
  pin_prefix(request, scratch, n, plan);
  return result;
}

PlanResult plan_user_split(const PlanRequest& request, PlannerScratch& scratch) {
  const workload::Task& task = *request.task;
  const cluster::AvailabilityView& row = *request.row;
  const double sigma = task.sigma();
  const Time deadline = task.abs_deadline();
  std::size_t n = task.user_nodes == 0 ? row.size() : task.user_nodes;
  n = std::min(n, row.size());
  row.fill(n);
  const std::vector<Time>& free_times = row.times();
  scratch.cps.clear();
  gather_cps(request, scratch, n);

  // Exact equal-split rollout: node i receives chunk i over the sequential
  // channel once it is free, then computes at its own speed.
  const double chunk = sigma / static_cast<double>(n);
  const double tx = chunk * request.params.cms;
  PlanResult result;
  TaskPlan& plan = result.plan;
  plan.node_release.resize(n);
  Time est = 0.0;
  Time channel_free = free_times[0];
  for (std::size_t i = 0; i < n; ++i) {
    const Time start = std::max(free_times[i], channel_free);
    channel_free = start + tx;
    plan.node_release[i] = channel_free + chunk * scratch.cps[i];
    est = std::max(est, plan.node_release[i]);
  }
  if (fp::after(est, deadline)) {
    return PlanResult::infeasible(dlt::Infeasibility::kNeedsMoreNodes);
  }

  plan.task = task.id;
  plan.nodes = n;
  plan.available.assign(free_times.begin(),
                        free_times.begin() + static_cast<std::ptrdiff_t>(n));
  plan.reserve_from = plan.available;  // node held from its r_i
  plan.alpha.assign(n, 1.0 / static_cast<double>(n));
  plan.est_completion = est;
  pin_prefix(request, scratch, n, plan);
  return result;
}

Time HetMultiRoundRollout::task_completion() const {
  Time latest = 0.0;
  for (Time t : completion) latest = std::max(latest, t);
  return latest;
}

void roll_multiround(const cluster::ClusterParams& params, double sigma,
                     const std::vector<Time>& available, const std::vector<double>& cps,
                     std::size_t rounds, Time channel_available, PlannerScratch& scratch,
                     HetMultiRoundRollout& out, std::vector<double>* slot_alpha) {
  const std::size_t n = available.size();
  if (n == 0 || cps.size() < n) throw std::invalid_argument("roll_multiround: bad slots");
  if (rounds == 0) throw std::invalid_argument("roll_multiround: rounds must be >= 1");
  const double installment = sigma / static_cast<double>(rounds);

  scratch.round_free.assign(available.begin(), available.begin() + static_cast<std::ptrdiff_t>(n));
  if (slot_alpha != nullptr) slot_alpha->assign(n, 0.0);
  Time channel_free = channel_available;

  for (std::size_t r = 0; r < rounds; ++r) {
    // Installments re-rank slots by their evolving availability (slot index
    // breaks ties deterministically); speeds ride along with their slot.
    scratch.order.resize(n);
    for (std::size_t i = 0; i < n; ++i) scratch.order[i] = i;
    std::sort(scratch.order.begin(), scratch.order.end(),
              [&](std::size_t a, std::size_t b) {
                if (scratch.round_free[a] != scratch.round_free[b]) {
                  return scratch.round_free[a] < scratch.round_free[b];
                }
                return a < b;
              });
    scratch.sorted_free.resize(n);
    scratch.sorted_cps.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      scratch.sorted_free[k] = scratch.round_free[scratch.order[k]];
      scratch.sorted_cps[k] = cps[scratch.order[k]];
    }
    dlt::build_het_partition_into(params, installment, scratch.sorted_free,
                                  scratch.sorted_cps, n, scratch.partition);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t slot = scratch.order[k];
      const double alpha = scratch.partition.alpha[k];
      const Time start = std::max(scratch.sorted_free[k], channel_free);
      channel_free = start + alpha * installment * params.cms;
      scratch.round_free[slot] = channel_free + alpha * installment * cps[slot];
      if (slot_alpha != nullptr) {
        (*slot_alpha)[slot] += alpha / static_cast<double>(rounds);
      }
    }
  }
  out.completion = scratch.round_free;
  out.channel_busy_until = channel_free;
}

PlanResult plan_multiround(const PlanRequest& request, std::size_t rounds,
                           PlannerScratch& scratch) {
  // Resolve the node count through the single-round het scan: its accepted
  // plan doubles as the guaranteed-feasible fallback.
  PlanResult single = plan_dlt_iit(request, scratch);
  if (!single.feasible()) return single;
  const workload::Task& task = *request.task;
  const std::size_t n = single.plan.nodes;

  HetMultiRoundRollout rollout;
  roll_multiround(request.params, task.sigma(), single.plan.available,
                  single.plan.node_cps, rounds, 0.0, scratch, rollout,
                  &scratch.slot_alpha);
  const Time est = rollout.task_completion();
  if (fp::after(est, task.abs_deadline())) {
    // R installments happened to be slower here; keep the single-round plan.
    return single;
  }

  PlanResult result;
  TaskPlan& plan = result.plan;
  plan.task = task.id;
  plan.nodes = n;
  plan.available = single.plan.available;
  plan.reserve_from = single.plan.available;
  // Exact per-slot finish of each node's last installment. Unlike the
  // homogeneous MR rule these are NOT sorted: slot identity must survive so
  // each node's release carries its own speed (the het availability merge
  // re-sorts (release, id) pairs itself).
  plan.node_release = rollout.completion;
  plan.alpha = scratch.slot_alpha;
  plan.est_completion = est;
  plan.rounds = rounds;
  plan.node_ids = single.plan.node_ids;
  plan.node_cps = single.plan.node_cps;
  return result;
}

PlanResult plan_opr_mn_backfill(const PlanRequest& request, PlannerScratch& scratch) {
  if (request.calendar == nullptr) {
    throw std::invalid_argument("plan_opr_mn_backfill: PlanRequest::calendar required");
  }
  const workload::Task& task = *request.task;
  const cluster::NodeCalendar& calendar = *request.calendar;
  const double sigma = task.sigma();
  const Time deadline = task.abs_deadline();
  const std::size_t cluster_size = calendar.size();

  for (Time t : calendar.candidate_times(request.now)) {
    const dlt::Infeasibility hard = hard_reject(sigma, request.params.cms, deadline, t);
    if (hard != dlt::Infeasibility::kNone) return PlanResult::infeasible(hard);

    // Every fixed point starts from a zero-length window, whose selection is
    // simply the m lowest ids free at the instant t - and the (m+1)-node
    // seed is the m-node seed plus the next free id. The pool and its scan
    // cursor therefore persist across the whole candidate time (grown
    // incrementally, each id probed at most once per t) instead of
    // re-scanning 0..N for every (candidate, m) pair. Because consecutive
    // seeds are prefixes of this one pool, their window durations ride one
    // shared alpha cursor: seeding m costs O(1) amortized instead of O(m).
    scratch.instant_free.clear();
    scratch.instant_cps.clear();
    cluster::NodeId instant_cursor = 0;
    scratch.batch.begin_walk(request.params.cms, sigma);

    for (std::size_t m = 1; m <= cluster_size; ++m) {
      // The window length depends on which nodes fill it and vice versa;
      // iterate the (selection, duration) fixed point a few steps. The het
      // no-IIT execution time shrinks as m grows (an extra recipient can
      // always take ~0 load), so larger m remains worth trying after a
      // tight window.
      double duration = 0.0;
      double next = 0.0;
      double previous = 0.0;
      bool selected = false;
      bool instant_shortfall = false;
      bool window_shortfall = false;
      for (int iteration = 0; iteration < 4; ++iteration) {
        ++scratch.counters.backfill_fixed_point_iterations;
        if (fp::exact_eq(duration, 0.0)) {
          // Seed: the m-prefix of the instant-free pool on the shared cursor.
          while (scratch.instant_free.size() < m && instant_cursor < cluster_size) {
            if (calendar.is_free(instant_cursor, t, t)) {
              scratch.instant_free.push_back(instant_cursor);
              scratch.instant_cps.push_back(request.params.node_cps(instant_cursor));
            }
            ++instant_cursor;
          }
          if (scratch.instant_free.size() < m) {
            instant_shortfall = true;
            break;
          }
          scratch.window_nodes.assign(
              scratch.instant_free.begin(),
              scratch.instant_free.begin() + static_cast<std::ptrdiff_t>(m));
          scratch.window_cps.assign(
              scratch.instant_cps.begin(),
              scratch.instant_cps.begin() + static_cast<std::ptrdiff_t>(m));
          ++scratch.counters.batch_passes;
          next = scratch.batch.window_duration_prefix(scratch.instant_cps, m);
        } else {
          // Re-selection over a positive window is an arbitrary id set (not
          // a pool prefix): timed in one streamed pass, allocation-free.
          scratch.window_nodes.clear();
          scratch.window_cps.clear();
          for (cluster::NodeId id = 0;
               id < cluster_size && scratch.window_nodes.size() < m; ++id) {
            if (calendar.is_free(id, t, t + duration)) {
              scratch.window_nodes.push_back(id);
              scratch.window_cps.push_back(request.params.node_cps(id));
            }
          }
          if (scratch.window_nodes.size() < m) {
            // Free-over-window implies free-at-instant, so only a positive
            // window can fall short here; it may still resolve with more
            // nodes (shorter window).
            window_shortfall = true;
            break;
          }
          ++scratch.counters.batch_passes;
          next = dlt::general_het_execution_time(request.params.cms, scratch.window_cps, sigma);
        }
        if (next == duration) {
          selected = true;
          break;
        }
        previous = duration;
        duration = next;
      }
      if (instant_shortfall) break;     // next candidate time
      if (window_shortfall) continue;   // try more nodes
      if (!selected) {
        // The (selection, duration) fixed point did not settle within the
        // iteration budget (the selection can 2-cycle when reservations make
        // node sets flip between two window lengths). Fall back to the
        // conservative window W = max of the last two iterates: re-select
        // over W, then verify that selection's own duration fits inside W,
        // so every accepted member is genuinely free across its reservation.
        ++scratch.counters.backfill_fixed_point_fallbacks;
        const double window = std::max(previous, duration);
        scratch.window_nodes.clear();
        scratch.window_cps.clear();
        for (cluster::NodeId id = 0;
             id < cluster_size && scratch.window_nodes.size() < m; ++id) {
          if (calendar.is_free(id, t, t + window)) {
            scratch.window_nodes.push_back(id);
            scratch.window_cps.push_back(request.params.node_cps(id));
          }
        }
        if (scratch.window_nodes.size() < m) continue;  // try more nodes
        ++scratch.counters.batch_passes;
        const double exec =
            dlt::general_het_execution_time(request.params.cms, scratch.window_cps, sigma);
        if (exec > window) continue;  // conservative window still too tight
        duration = exec;
        selected = true;
      }
      if (fp::after(t + duration, deadline)) continue;  // more nodes shrink it

      // Only the accepted selection materializes its normalized alpha.
      dlt::general_het_alpha_into(request.params.cms, scratch.window_cps, m,
                                  scratch.alpha);
      PlanResult result;
      TaskPlan& plan = result.plan;
      plan.task = task.id;
      plan.nodes = m;
      plan.available.assign(m, t);
      plan.reserve_from.assign(m, t);
      plan.node_release.assign(m, t + duration);
      plan.alpha = scratch.alpha;
      plan.est_completion = t + duration;
      plan.node_ids = scratch.window_nodes;
      plan.node_cps = scratch.window_cps;
      return result;
    }
  }
  return PlanResult::infeasible(dlt::Infeasibility::kNeedsMoreNodes);
}

}  // namespace rtdls::sched::het
