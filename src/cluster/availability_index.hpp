// Sorted free-time index over a cluster's nodes: a bucketed timeline.
//
// The Figure-2 admission test consumes the cluster's availability as the
// sorted vector of node release times on every arrival; rebuilding that
// vector with a full sort is O(N log N) per plan and is the large-N
// bottleneck named in ROADMAP. This index keeps the (free_at, node) pairs
// permanently sorted and repositions exactly one entry per node mutation
// (commit / early release), so snapshot reads degrade to an O(N) copy and
// rank queries to an O(log N) binary search.
//
// The sorted sequence is cut into fixed-fanout buckets (a two-level B-tree,
// effectively), each a small sorted vector, with a directory of per-bucket
// minima for O(log #buckets) bucket location. update() is a bucket-local
// memmove when the entry stays inside its bucket, and otherwise two
// bucket-local memmoves of at most ~128 entries plus an O(#buckets)
// directory shift when a bucket splits, merges or empties - O(log N +
// fanout) per commit, where one contiguous sorted vector would memmove O(N)
// entries (at N=10^5, ~1.6 MB from the front to the back). Rank /
// order-statistic queries (available_by, kth_free_time) go through a lazily
// rebuilt per-bucket prefix-sum (invalidated by update, rebuilt
// O(#buckets) on the next query), so query trains between commits pay the
// rebuild once. A cluster of at most 64 nodes is a single bucket, and every
// move in it takes the in-bucket path: the same shifts a single sorted
// vector would make.
//
// The entries deliberately stay (free_at, node) without a cps column:
// per-node speeds are constant, so the heterogeneous snapshot derives them
// from the id column instead of fattening the entries every update shifts.
//
// Invariants (checked by consistent_with / the index tests):
//  * iteration order is strictly (free_at, node) - the node id breaks
//    ties, so it is deterministic and matches the admission path's
//    historical stable_sort tie-breaking;
//  * there is exactly one entry per node id in [0, size());
//  * every entry's free_at equals the owning Node's free_at() - the Node
//    remains the source of truth, the index is a mirror the Cluster updates
//    inside the same mutation that bumps its availability version;
//  * every bucket is non-empty, directory minima equal their bucket's first
//    entry, and bucket boundaries preserve the global order.
//
// A Fenwick count over bucketed release times was considered for the
// first-crossing queries and rejected: release times are unbounded
// continuous doubles, so bucketing *values* would either quantize (breaking
// the bit-identical-schedules requirement) or need periodic rebuilds. The
// index buckets *positions*, not values, so every query stays exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/types.hpp"
#include "util/annotations.hpp"

namespace rtdls::cluster {

class AvailabilityIndex {
 public:
  /// One indexed node: its current release time and identity.
  struct Entry {
    Time free_at = 0.0;
    NodeId node = 0;
  };

  /// (Re)builds the index for `nodes` nodes, all free at time 0 (the
  /// cluster's initial / post-reset state). Keeps allocations.
  void reset(std::size_t nodes);

  std::size_t size() const { return size_; }

  /// Repositions `node` after its release time changed from `from` to `to`.
  /// `from` must be the node's currently indexed time (throws
  /// std::logic_error otherwise - a desynced index is a bug, not a state).
  /// Returns the reposition depth: how many entries the bucket-local
  /// memmoves shifted to make room. The cluster feeds it to the
  /// `rtdls_index_commit_depth` histogram.
  RTDLS_HOT std::size_t update(NodeId node, Time from, Time to);

  /// Number of nodes with free_at <= t: the paper's AN(t) ("available
  /// nodes by t") quantity. O(log N).
  RTDLS_HOT std::size_t available_by(Time t) const;

  /// k-th smallest release time (0-based): the instant k+1 nodes are
  /// simultaneously available. k must be < size().
  RTDLS_HOT Time kth_free_time(std::size_t k) const;

  /// Writes the sorted availability snapshot floored at `now` into `out`:
  /// bit-identical to sorting max(free_at, now) over all nodes, without the
  /// sort (the floored prefix collapses to `now`; the rest is already
  /// ordered). O(N) copy.
  RTDLS_HOT void availability_into(Time now, std::vector<Time>& out) const;

  /// Same snapshot plus the matching node ids (ids[i] owns times[i]),
  /// strictly ordered by (floored time, id): the floored prefix all ties at
  /// `now`, so its ids are put in ascending order - the same order a pair
  /// sort of (max(free_at, now), id) would produce. The heterogeneous
  /// planning path consumes this: the id column is what lets rules look up
  /// per-node cps and record the concrete nodes their alpha was computed
  /// for, and the strict (time, id) order is the invariant the admission
  /// session's functional state evolution preserves. O(N): the floored ids
  /// are marked in a node-id bitset and read back in id order, no sort.
  RTDLS_HOT void availability_with_ids_into(Time now, std::vector<Time>& times,
                                  std::vector<NodeId>& ids) const;

  /// Ids of the `n` earliest-available nodes at `now`, ties broken by id:
  /// bit-identical to a stable sort of all ids by (max(free_at, now), id).
  /// Nodes already free at `now` all tie, so the floored prefix is reduced
  /// to its n smallest ids via a partial selection instead of a full sort.
  /// n must not exceed size().
  RTDLS_HOT void earliest_free_nodes_into(Time now, std::size_t n, std::vector<NodeId>& out) const;

  /// Debug/tests: true iff the invariants hold against the authoritative
  /// per-node release times (free_times[i] = node i's free_at()).
  bool consistent_with(const std::vector<Time>& free_times) const;

 private:
  static bool less(const Entry& a, const Entry& b) {
    if (a.free_at != b.free_at) return a.free_at < b.free_at;
    return a.node < b.node;
  }

  /// Directory position of the last bucket whose minimum is <= `key`
  /// (npos when the key precedes every bucket).
  RTDLS_HOT std::size_t locate_bucket(const Entry& key) const;
  /// Rebuilds the per-bucket prefix-sum when an update invalidated it.
  RTDLS_HOT void ensure_prefix() const;
  /// Splits the oversized bucket at directory position `b` in two.
  RTDLS_HOT void split_bucket(std::size_t b);
  /// Removes the (empty) bucket at directory position `b`.
  RTDLS_HOT void drop_bucket(std::size_t b);
  /// Merges the undersized bucket at `b` into a neighbor when the combined
  /// size stays below the split threshold.
  RTDLS_HOT void maybe_merge(std::size_t b);
  /// Inserts `moved` at its ordered position; returns entries shifted.
  RTDLS_HOT std::size_t insert_bucket_entry(const Entry& moved);

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  /// Bucket geometry: reset() fills buckets to kTargetFanout; update()
  /// splits past kMaxFanout and merges neighbors whose combined size is at
  /// most kMergeMax once one of them shrinks below kMinFanout. kMergeMax <
  /// kMaxFanout keeps split/merge from ping-ponging on one hot boundary.
  static constexpr std::size_t kTargetFanout = 64;
  static constexpr std::size_t kMaxFanout = 128;
  static constexpr std::size_t kMinFanout = 16;
  static constexpr std::size_t kMergeMax = 96;

  std::size_t size_ = 0;

  /// Buckets live in stable `slots_` (never reordered, so the hot path only
  /// ever grows members - the rtdls-hot-path-alloc contract); `order_[b]`
  /// is the slot of the b-th bucket in timeline order and `mins_[b]`
  /// mirrors that bucket's first entry for directory binary searches.
  /// Emptied slots are recycled through `free_slots_` keeping their
  /// capacity. `prefix_[b]` = entries in buckets [0, b), rebuilt lazily
  /// (mutable) because rank queries want it but updates would pay
  /// O(#buckets) each to keep it eager.
  std::vector<std::vector<Entry>> slots_;
  std::vector<std::uint32_t> order_;
  std::vector<Entry> mins_;
  std::vector<std::uint32_t> free_slots_;
  mutable std::vector<std::size_t> prefix_;
  mutable bool prefix_valid_ = false;

  /// availability_with_ids_into scratch: one bit per node id, all clear
  /// between calls (sized by reset(), so snapshots never allocate).
  mutable std::vector<std::uint64_t> floored_marks_;
};

}  // namespace rtdls::cluster
