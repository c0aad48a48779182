#include "cluster/node.hpp"

#include <stdexcept>

#include "util/fp.hpp"
namespace rtdls::cluster {

void Node::check_commit(Time start, Time end) const {
  if (end < start) throw std::invalid_argument("Node::check_commit: end before start");
  if (fp::before(start, free_at_)) {
    throw std::logic_error("Node::check_commit: overlapping commitment");
  }
}

void Node::check_release_early(Time at) const {
  if (at > free_at_) {
    throw std::logic_error("Node::release_early: later than committed release");
  }
}

void Node::release_early(Time at) {
  check_release_early(at);
  busy_time_ -= free_at_ - at;
  free_at_ = at;
  current_task_ = kNoTask;
}

}  // namespace rtdls::cluster
