// Sorted free-time index over a cluster's nodes: a floored partition plus a
// bucketed timeline of the nodes released after it.
//
// The Figure-2 admission test consumes the cluster's availability as the
// sorted vector of node release times on every arrival; rebuilding that
// vector with a full sort is O(N log N) per plan and is the large-N
// bottleneck named in ROADMAP. This index keeps the row sorted and
// repositions only the entries a mutation changes - k for a plan's batch of
// k nodes, one for a single-node update - and serves the row floored at
// `now` as a view whose positions are read on demand (open_view /
// read_view, wrapped by AvailabilityView): a planner that inspects m
// positions pays O(N/64 + m), not an O(N) copy.
//
// The floored partition. Every node free by `now` reads `now` in the row,
// so the row's floored prefix is ordered by id alone. The index keeps that
// prefix as data: a node-id bitset of the nodes free by a watermark time,
// with its count and the count of those released exactly at the watermark,
// and nothing else - a floored node has no timeline entry.
// Its release time lives only in the N-long time column, which holds every
// node's indexed release time, checks every `from` a mutation names, and
// serves a watermark move back. Opening a view at a later `now` pops the
// timeline entries the watermark passes into the bitset (whole buckets and
// one partial head, amortized O(1) per released node); a `now` earlier than
// the watermark puts the floored nodes released after it back, sorted, in
// front of the timeline (O(N/64 + floored + m log m) for m nodes put back).
// A view then reads its floored ids in ascending order straight off the
// bitset and the rest of the row off the timeline from its first entry:
// every entry lies past the watermark, which the view's `now` is.
//
// The timeline is the sorted (free_at, node) sequence of the nodes released
// after the watermark, cut into fixed-fanout buckets (a two-level B-tree,
// effectively), each a small sorted vector, with a directory of per-bucket
// minima for O(log #buckets) bucket location. Every mutation is one
// update_batch() (update() is a batch of one): it checks all k keys against
// the time column, flips the bits of the keys that cross the watermark,
// locates the keys past it against the unchanged directory, compacts each
// touched bucket once, merges the sorted new entries past the watermark
// into their destination buckets run by run, and fixes the directory in one
// rebuild only when a bucket emptied or overflowed - an overflowing bucket
// splits into ceil(size / 64) even pieces - then folds each touched bucket
// that shrank below 16 into a neighbor when the two fit in 96. Booking a
// plan drawn from the floored prefix - the common case - is bit flips plus
// one sorted merge. That is O(k log #buckets + the sizes of the touched
// buckets), plus O(#buckets) when the directory changes, where one
// contiguous sorted vector would memmove O(N) entries per node. A single
// update shifts at most two buckets' worth: the compaction moves the at
// most 127 entries after the old position, the merge (or split) the at
// most 128 behind the new one.
//
// The entries deliberately stay (free_at, node) without a cps column:
// per-node speeds are constant, so the heterogeneous row derives them from
// the id column instead of fattening the entries every update shifts.
//
// Invariants (checked by consistent_with / the index tests):
//  * the time column equals every node's free_at() - the Node remains the
//    source of truth, the index is a mirror the Cluster updates inside the
//    same mutation that bumps its availability version;
//  * a node's partition bit is set iff its free_at <= the watermark, the
//    partition count is the number of set bits, and the at-watermark count
//    is the number of floored nodes whose free_at equals the watermark;
//  * the timeline holds exactly one entry per node past the watermark and
//    none other, each entry's free_at equal to the node's and past the
//    watermark;
//  * timeline order is strictly (free_at, node) - the node id breaks ties,
//    so it is deterministic and matches the admission path's historical
//    stable_sort tie-breaking;
//  * every bucket is non-empty and holds at most kMaxFanout entries,
//    directory minima equal their bucket's first entry, and bucket
//    boundaries preserve the global order.
//
// A Fenwick count over bucketed release times was considered for the
// first-crossing queries and rejected: release times are unbounded
// continuous doubles, so bucketing *values* would either quantize (breaking
// the bit-identical-schedules requirement) or need periodic rebuilds. The
// index buckets *positions*, not values, so every query stays exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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
  /// cluster's initial / post-reset state): all floored at watermark 0, the
  /// timeline empty. Keeps allocations.
  void reset(std::size_t nodes);

  std::size_t size() const { return size_; }

  /// Repositions k nodes as one batch: nodes[i] moves from from[i] to
  /// to[i], from[i] being its currently indexed time. A node on the floored
  /// side of the watermark before and after only has its time column
  /// written; one that crosses it flips its partition bit. The timeline's
  /// order is the strict (free_at, node) order whatever the bucket
  /// boundaries are; an entry with to[i] == from[i] past the watermark ends
  /// where it started. Throws std::invalid_argument when the columns differ
  /// in length and std::logic_error when a node is unknown, repeats, or
  /// from[i] is not its indexed time (desync - a bug, not a state), in
  /// every case before anything changes. Returns the reposition depth: the
  /// timeline entries the bucket compactions and merges shifted, which the
  /// cluster feeds to the `rtdls_index_commit_depth` histogram. Allocates
  /// nothing once its scratch has grown to the largest batch and directory
  /// seen.
  RTDLS_HOT std::size_t update_batch(std::span<const NodeId> nodes,
                                     std::span<const Time> from,
                                     std::span<const Time> to);

  /// Repositions `node` after its release time changed from `from` to `to`:
  /// a batch of one.
  RTDLS_HOT std::size_t update(NodeId node, Time from, Time to) {
    return update_batch({&node, 1}, {&from, 1}, {&to, 1});
  }

  /// False iff every node's release time is at or after `t` (not floored at
  /// any `now`): true when some node frees before `t`, and for a NaN `t`.
  /// O(1) for `t` at or past the watermark - off the floored count, the
  /// at-watermark count and the first bucket's minimum - and O(N) below it,
  /// a scan of the time column.
  bool frees_before(Time t) const;

  /// Read state of one view of the row floored at `now` (see open_view):
  /// where its next position comes from.
  struct ViewCursor {
    std::uint64_t epoch = 0;  ///< the index state the view was opened on
    Time now = 0.0;
    bool with_ids = false;
    std::size_t next = 0;     ///< the next position to read
    std::size_t floored = 0;  ///< positions [0, floored) all read `now`
    std::size_t word = 0;     ///< partition word holding the next floored id
    std::uint64_t bits = 0;   ///< that word's ids not read yet
    std::size_t bucket = 0;   ///< directory position of the next entry past the floor
    std::size_t at = 0;       ///< its position in that bucket
  };

  /// Opens a view of the sorted row floored at `now` - the row a pair sort
  /// of (max(free_at, now), id) would produce - with no position read yet.
  /// Moves the partition's watermark to `now` first: forward it pops the
  /// timeline entries it passes into the bitset, back it puts the floored
  /// nodes released after `now` into the timeline. O(1) plus that move.
  /// Throws std::invalid_argument, with the partition untouched, when `now`
  /// is NaN.
  RTDLS_HOT void open_view(Time now, bool with_ids, ViewCursor& cursor) const;

  /// Reads view positions [cursor.next, last) into times[0, last - next)
  /// and, for a view opened with ids, ids[0, last - next); either pointer
  /// may be null to skip its column. The floored prefix reads `now` with
  /// its ids ascending off the partition bitset, the rest the entries in
  /// index order: O(words scanned + positions read). Throws
  /// std::logic_error when the index changed or the watermark moved since
  /// the view opened (its cursor would read a different row), and
  /// std::out_of_range past size().
  RTDLS_HOT void read_view(ViewCursor& cursor, std::size_t last, Time* times,
                           NodeId* ids) const;

  /// The whole row floored at `now` into `out`: bit-identical to sorting
  /// max(free_at, now) over all nodes, without the sort. O(N).
  RTDLS_HOT void availability_into(Time now, std::vector<Time>& out) const;

  /// Same row plus the matching node ids (ids[i] owns times[i]), strictly
  /// ordered by (floored time, id) - the order a pair sort of
  /// (max(free_at, now), id) would produce. O(N).
  RTDLS_HOT void availability_with_ids_into(Time now, std::vector<Time>& times,
                                            std::vector<NodeId>& ids) const;

  /// Ids of the `n` earliest-available nodes at `now`, ties broken by id:
  /// the first n ids of the view at `now`, bit-identical to a stable sort
  /// of all ids by (max(free_at, now), id). O(N/64 + n) past the partition
  /// update. n must not exceed size().
  RTDLS_HOT void earliest_free_nodes_into(Time now, std::size_t n, std::vector<NodeId>& out) const;

  /// Debug/tests: true iff the invariants hold against the authoritative
  /// per-node release times (free_times[i] = node i's free_at()): the time
  /// column, the floored partition's bits and counts, and a timeline of
  /// exactly the nodes past the watermark.
  bool consistent_with(const std::vector<Time>& free_times) const;

 private:
  static bool less(const Entry& a, const Entry& b) {
    if (a.free_at != b.free_at) return a.free_at < b.free_at;
    return a.node < b.node;
  }
  static bool same(const Entry& a, const Entry& b) {
    return a.node == b.node && a.free_at == b.free_at;
  }

  /// Directory position of the last bucket whose minimum is <= `key`
  /// (npos when the key precedes every bucket).
  RTDLS_HOT std::size_t locate_bucket(const Entry& key) const;
  /// Directory position of the bucket holding exactly `key`, with its
  /// in-bucket position in `at`; npos when the index has no such entry.
  RTDLS_HOT std::size_t find_entry(const Entry& key, std::size_t& at) const;
  /// Merges the undersized bucket at `b` into a neighbor when the combined
  /// size stays at most kMergeMax: the fold rule update_batch applies to
  /// each touched bucket.
  RTDLS_HOT void maybe_merge(std::size_t b);
  /// A bucket slot for a split piece: a recycled one, else a new one (which
  /// may move slots_, so take bucket references only after).
  RTDLS_HOT std::uint32_t acquire_slot() const;

  /// update_batch steps. Marks the batch's ids, checks each `from` against
  /// the time column, and finds the entry of each key past the watermark -
  /// the one right after the previous key's entry, else by find_entry -
  /// tallying them per bucket; throws (unknown node, repeated node, desync)
  /// with every mark and tally cleared, so nothing has changed.
  RTDLS_HOT void locate_batch(std::span<const NodeId> nodes, std::span<const Time> from);
  /// One node's bit in a node-id bitset.
  static bool bit(const std::vector<std::uint64_t>& bits, NodeId node) {
    return (bits[node / 64] >> (node % 64) & 1) != 0;
  }
  static void set_bit(std::vector<std::uint64_t>& bits, NodeId node, bool on) {
    const std::uint64_t mask = std::uint64_t{1} << (node % 64);
    bits[node / 64] = on ? bits[node / 64] | mask : bits[node / 64] & ~mask;
  }
  /// Moves the partition's watermark to `now`: pops the timeline entries it
  /// passes into the bitset, or puts the floored nodes released after an
  /// earlier `now` back in front of the timeline.
  RTDLS_HOT void advance_floor(Time now) const;
  /// Removes the marked entries from the bucket at directory position `b`,
  /// clearing their marks; returns the entries shifted.
  RTDLS_HOT std::size_t compact_bucket(std::size_t b);
  /// Merges the sorted run batch_in_[begin, end) into the bucket at `b`;
  /// returns the entries shifted.
  RTDLS_HOT std::size_t merge_into_bucket(std::size_t b, std::size_t begin,
                                          std::size_t end);
  /// Rebuilds the directory over batch_pending_ into batch_order_ /
  /// batch_mins_ and swaps it in: drops emptied buckets and merges each
  /// deferred run into as many <= kTargetFanout pieces as it needs.
  /// Returns the entries those merges shifted.
  RTDLS_HOT std::size_t rebuild_directory();
  /// Appends the bucket in `slot`, merged with batch_in_[begin, end), to
  /// the scratch directory as evenly sized pieces; returns the entries
  /// shifted.
  RTDLS_HOT std::size_t split_merged(std::uint32_t slot, std::size_t begin,
                                     std::size_t end);

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  /// Bucket geometry: update_batch splits a bucket that would pass
  /// kMaxFanout into as many even pieces of at most kTargetFanout as it
  /// takes, and merges neighbors whose combined size is at most kMergeMax
  /// once one of them shrinks below kMinFanout; a watermark move back cuts
  /// the nodes it puts back into pieces the same way. kMergeMax < kMaxFanout
  /// keeps split/merge from ping-ponging on one hot boundary.
  static constexpr std::size_t kTargetFanout = 64;
  static constexpr std::size_t kMaxFanout = 128;
  static constexpr std::size_t kMinFanout = 16;
  static constexpr std::size_t kMergeMax = 96;

  std::size_t size_ = 0;

  /// Every node's indexed release time, floored or not.
  std::vector<Time> times_;

  /// The timeline. Buckets live in stable `slots_` (never reordered, so the
  /// hot path only ever grows members - the rtdls-hot-path-alloc contract);
  /// `order_[b]` is the slot of the b-th bucket in timeline order and
  /// `mins_[b]` mirrors that bucket's first entry for directory binary
  /// searches. Emptied slots are recycled through `free_slots_` keeping
  /// their capacity.
  ///
  /// The floored partition: bit i set iff node i's free_at <= watermark_,
  /// floored_count_ of them, at_watermark_ of those released exactly at it.
  /// view_epoch_ counts every change to the partition or the timeline, so a
  /// cursor opened before one is detected as stale.
  ///
  /// All of it is mutable because opening a view moves the watermark, which
  /// moves nodes between the timeline and the partition; unfloored_ is that
  /// move's scratch (the nodes a move back puts in the timeline).
  mutable std::vector<std::vector<Entry>> slots_;
  mutable std::vector<std::uint32_t> order_;
  mutable std::vector<Entry> mins_;
  mutable std::vector<std::uint32_t> free_slots_;
  mutable Time watermark_ = 0.0;
  mutable std::vector<std::uint64_t> floored_;
  mutable std::size_t floored_count_ = 0;
  mutable std::size_t at_watermark_ = 0;
  mutable std::uint64_t view_epoch_ = 0;
  mutable std::vector<Entry> unfloored_;

  /// One bit per node id, all clear between calls (sized by reset(), so
  /// nothing allocates): update_batch marks the ids it moves.
  std::vector<std::uint64_t> moved_;

  /// update_batch scratch, kept between calls, all O(k) except the
  /// per-bucket tallies and the directory copy. batch_in_ holds the new
  /// entries past the watermark in order and batch_merge_ a bucket
  /// split_merged is rewriting. batch_removed_[b] counts the moved entries
  /// found in the bucket at directory position b and batch_first_[b] the
  /// lowest of their in-bucket positions (zero between calls);
  /// batch_touched_ lists the positions with removals and then every
  /// touched one, batch_runs_ the runs of batch_in_ by destination
  /// position, and batch_pending_ every touched position in order (with its
  /// run when deferred to the rebuild). batch_order_ / batch_mins_ are the
  /// directory rebuild_directory writes and swaps with order_ / mins_.
  struct Run {
    std::size_t bucket = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<Entry> batch_in_;
  std::vector<Entry> batch_merge_;
  std::vector<std::uint32_t> batch_removed_;
  std::vector<std::uint32_t> batch_first_;
  std::vector<std::uint32_t> batch_touched_;
  std::vector<Run> batch_runs_;
  std::vector<Run> batch_pending_;
  std::vector<std::uint32_t> batch_order_;
  std::vector<Entry> batch_mins_;
};

}  // namespace rtdls::cluster
