#include "cluster/cluster.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace rtdls::cluster {

namespace {

/// Reposition-depth distribution, one sample per index mutation (a
/// committed plan, an early-release batch or a restored node): the entries
/// it shifted. A batch shifts at most its touched buckets' entries, so a
/// single node at most two buckets' worth whatever N is. Recorded here -
/// not inside the RTDLS_HOT index mutators - because histogram writes may
/// grow a thread shard on first contact.
obs::Histogram& commit_depth_histogram() {
  static obs::Histogram histogram =
      obs::Registry::global().histogram("rtdls_index_commit_depth");
  return histogram;
}

}  // namespace

Cluster::Cluster(ClusterParams params) : params_(std::move(params)) {
  if (!params_.valid()) throw std::invalid_argument("Cluster: invalid parameters");
  nodes_.reserve(params_.node_count);
  for (std::size_t i = 0; i < params_.node_count; ++i) {
    nodes_.emplace_back(static_cast<NodeId>(i));
  }
  index_.reset(params_.node_count);
}

void Cluster::reset() {
  for (Node& node : nodes_) node.reset();
  index_.reset(nodes_.size());
  ++version_;
}

void Cluster::availability_into(Time now, AvailabilityRow& row) const {
  if (params_.heterogeneous()) {
    index_.availability_with_ids_into(now, row.times, row.ids);
  } else {
    index_.availability_into(now, row.times);
    row.ids.clear();
  }
}

void Cluster::earliest_free_nodes_into(Time now, std::size_t n,
                                       std::vector<NodeId>& out) const {
  if (n > nodes_.size()) {
    throw std::invalid_argument("Cluster::earliest_free_nodes: n exceeds cluster size");
  }
  index_.earliest_free_nodes_into(now, n, out);
}

void Cluster::commit(NodeId id, TaskId task, Time usable_from, Time start, Time end) {
  commit_batch({&id, 1}, task, {&usable_from, 1}, {&start, 1}, {&end, 1});
}

void Cluster::commit_batch(std::span<const NodeId> ids, TaskId task,
                           std::span<const Time> usable_from, std::span<const Time> start,
                           std::span<const Time> end) {
  const std::size_t k = ids.size();
  if (usable_from.size() != k || start.size() != k || end.size() != k) {
    throw std::invalid_argument("Cluster::commit_batch: column sizes differ");
  }
  batch_from_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Node& node = nodes_.at(ids[i]);
    node.check_commit(start[i], end[i]);
    batch_from_[i] = node.free_at();
  }
  reindex_batch(ids, end);
  for (std::size_t i = 0; i < k; ++i) {
    nodes_[ids[i]].book(task, usable_from[i], start[i], end[i]);
  }
}

void Cluster::release_early_batch(std::span<const NodeId> ids, std::span<const Time> at) {
  const std::size_t k = ids.size();
  if (at.size() != k) {
    throw std::invalid_argument("Cluster::release_early_batch: column sizes differ");
  }
  batch_from_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Node& node = nodes_.at(ids[i]);
    node.check_release_early(at[i]);
    batch_from_[i] = node.free_at();
  }
  reindex_batch(ids, at);
  for (std::size_t i = 0; i < k; ++i) nodes_[ids[i]].release_early(at[i]);
}

void Cluster::reindex_batch(std::span<const NodeId> ids, std::span<const Time> to) {
  if (ids.empty()) return;
  // Throws on a repeated id before anything changes, so the nodes are
  // updated only after it.
  const std::size_t depth = index_.update_batch(ids, batch_from_, to);
  commit_depth_histogram().record(static_cast<double>(depth));
  ++version_;
}

void Cluster::restore_node(NodeId id, Time free_at, Time busy_time, Time idle_gap_time,
                           std::size_t commitments) {
  Node& node = nodes_.at(id);
  const Time before = node.free_at();
  node.restore(free_at, busy_time, idle_gap_time, commitments);
  const std::size_t depth = index_.update(id, before, node.free_at());
  commit_depth_histogram().record(static_cast<double>(depth));
  ++version_;
}

Time Cluster::total_busy_time() const {
  Time total = 0.0;
  for (const Node& node : nodes_) total += node.busy_time();
  return total;
}

Time Cluster::total_idle_gap_time() const {
  Time total = 0.0;
  for (const Node& node : nodes_) total += node.idle_gap_time();
  return total;
}

bool Cluster::index_consistent() const {
  std::vector<Time> free_times;
  free_times.reserve(nodes_.size());
  for (const Node& node : nodes_) free_times.push_back(node.free_at());
  return index_.consistent_with(free_times);
}

}  // namespace rtdls::cluster
