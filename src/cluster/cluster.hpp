// The cluster model: N processing nodes behind one head node, with the
// paper's common Cps or, under a speed profile, a Cps per node.
//
// The scheduler plans against the *sorted vector of node release times*
// (nodes are interchangeable in the paper's model, and that row carries no
// ids); under a heterogeneous profile the row also names the node at each
// position. The cluster serves that row from its free-time index, as a view
// that fills positions on demand (open_view) or as a whole copy
// (availability_into), maps an accepted plan onto concrete node ids and
// keeps per-node accounting.
#pragma once

#include <span>
#include <vector>

#include "cluster/availability_delta.hpp"
#include "cluster/availability_index.hpp"
#include "cluster/availability_view.hpp"
#include "cluster/node.hpp"
#include "cluster/types.hpp"

namespace rtdls::cluster {

/// Mutable cluster state.
class Cluster {
 public:
  explicit Cluster(ClusterParams params);

  const ClusterParams& params() const { return params_; }
  std::size_t size() const { return nodes_.size(); }

  const Node& node(NodeId id) const { return nodes_.at(id); }

  /// Monotonic availability version: bumped once by every mutation of node
  /// release times (a single-node commit or restore, a commit or
  /// early-release batch, a reset). An unchanged version guarantees an
  /// unchanged availability row for any `now` at or before the
  /// earliest node release, which lets the incremental admission path skip
  /// rebuilding and re-planning entirely.
  std::uint64_t version() const { return version_; }

  /// Returns every node to the initial idle state, keeping allocations
  /// (back-to-back sweep cells reuse one cluster instead of reconstructing).
  void reset();

  /// Opens `view` on the availability row at `now`: positions fill as the
  /// planner reads them, O(N/64 + positions read) (see AvailabilityView).
  /// The row carries ids, in strict (time, id) order, exactly when
  /// params().heterogeneous(). Any mutation of the cluster invalidates the
  /// view; so does a view or read at another `now`.
  void open_view(Time now, AvailabilityView& view) const {
    view.open(index_, now, params_.heterogeneous());
  }

  /// The whole availability row at `now` into `row` (capacity reused): the
  /// open_view row with every position filled, O(N), no per-call sort.
  void availability_into(Time now, AvailabilityRow& row) const;

  /// The earliest release time over all nodes, not floored at any `now`:
  /// O(1) off the index.
  Time earliest_release() const { return index_.earliest_release(); }

  /// Ids of the `n` earliest-available nodes at `now` (ties broken by id so
  /// commitments are deterministic), written into `out` (capacity reused;
  /// hot path): the first n ids of the view at `now`. `n` must not exceed
  /// size().
  void earliest_free_nodes_into(Time now, std::size_t n, std::vector<NodeId>& out) const;

  /// Commits node `id` to `task` over [start, end): a commit_batch of one.
  /// See Node::commit for the `usable_from` IIT-accounting parameter.
  void commit(NodeId id, TaskId task, Time usable_from, Time start, Time end);

  /// Commits a plan's nodes as one batch: node ids[i] to `task` over
  /// [start[i], end[i]) with usable_from[i], as commit() would, in one
  /// index batch (AvailabilityIndex::update_batch). Every node's
  /// preconditions are checked first, and the ids must be distinct: a throw
  /// leaves every node and the index as they were.
  void commit_batch(std::span<const NodeId> ids, TaskId task,
                    std::span<const Time> usable_from, std::span<const Time> start,
                    std::span<const Time> end);

  /// Releases node ids[i] early at at[i] (actual completion before
  /// estimate) for every i, as one batch with commit_batch's all-or-nothing
  /// checks; one node is a batch of one.
  void release_early_batch(std::span<const NodeId> ids, std::span<const Time> at);

  /// Restores node `id` to an exact snapshot state (service-layer crash
  /// recovery): release time and accounting are taken verbatim, the sorted
  /// index is repositioned, and the availability version is bumped so any
  /// admission session standing on the old state invalidates.
  void restore_node(NodeId id, Time free_at, Time busy_time, Time idle_gap_time,
                    std::size_t commitments);

  /// Totals across nodes, for utilization / IIT reports.
  Time total_busy_time() const;
  Time total_idle_gap_time() const;

  /// The sorted free-time index backing the availability reads; exposed for
  /// the index-consistency tests.
  const AvailabilityIndex& index() const { return index_; }

  /// Debug/tests: true iff the index invariants hold against every node's
  /// authoritative free_at().
  bool index_consistent() const;

 private:
  /// Reindexes nodes ids[i] from batch_from_[i] to to[i] in one batch and
  /// records its depth sample; the batch mutators' common step.
  void reindex_batch(std::span<const NodeId> ids, std::span<const Time> to);

  ClusterParams params_;
  std::vector<Node> nodes_;
  AvailabilityIndex index_;
  std::uint64_t version_ = 0;
  /// The batch mutators' column of current release times (capacity reused).
  std::vector<Time> batch_from_;
};

}  // namespace rtdls::cluster
