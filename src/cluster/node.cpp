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
    throw std::logic_error("Node::check_release_early: later than committed release");
  }
}

}  // namespace rtdls::cluster
