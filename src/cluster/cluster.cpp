#include "cluster/cluster.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace rtdls::cluster {

namespace {

/// Reposition-depth distribution across every index mutation: the entries
/// each update's bucket-local memmoves shifted, bounded by the bucket
/// geometry (at most two buckets' worth) whatever N is. Recorded here -
/// not inside the RTDLS_HOT AvailabilityIndex::update - because histogram
/// writes may grow a thread shard on first contact.
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
  Node& node = nodes_.at(id);
  const Time before = node.free_at();
  node.commit(task, usable_from, start, end);
  const std::size_t depth = index_.update(id, before, node.free_at());
  commit_depth_histogram().record(static_cast<double>(depth));
  ++version_;
}

void Cluster::release_early(NodeId id, Time at) {
  Node& node = nodes_.at(id);
  const Time before = node.free_at();
  node.release_early(at);
  const std::size_t depth = index_.update(id, before, node.free_at());
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
