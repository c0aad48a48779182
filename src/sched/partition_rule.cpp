#include "sched/partition_rule.hpp"

#include <stdexcept>

namespace rtdls::sched {

namespace detail {

void validate_request(const PlanRequest& request) {
  if (request.task == nullptr) throw std::invalid_argument("PlanRequest: null task");
  if (request.row == nullptr) throw std::invalid_argument("PlanRequest: null row");
  if (request.row->size() != request.params.node_count) {
    throw std::invalid_argument("PlanRequest: row size != node count");
  }
  if (!request.params.valid()) throw std::invalid_argument("PlanRequest: invalid params");
  if (request.params.heterogeneous() && !request.row->with_ids()) {
    throw std::invalid_argument("PlanRequest: heterogeneous params need a row with node ids");
  }
}

}  // namespace detail

}  // namespace rtdls::sched
