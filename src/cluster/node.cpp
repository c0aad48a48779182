#include "cluster/node.hpp"

#include <stdexcept>

#include "util/fp.hpp"
namespace rtdls::cluster {

void Node::check_commit(Time start, Time end) const {
  if (end < start) throw std::invalid_argument("Node::commit: end before start");
  if (fp::before(start, free_at_)) {
    throw std::logic_error("Node::commit: overlapping commitment");
  }
}

void Node::commit(TaskId task, Time usable_from, Time start, Time end) {
  check_commit(start, end);
  if (start > usable_from) idle_gap_time_ += start - usable_from;
  busy_time_ += end - start;
  free_at_ = end;
  current_task_ = task;
  ++commitments_;
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
