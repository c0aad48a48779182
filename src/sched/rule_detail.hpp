// Internal helpers shared by the concrete partition rules.
#pragma once

#include "sched/partition_rule.hpp"

#include <utility>

namespace rtdls::sched::detail {

/// Throws std::invalid_argument on malformed requests (null task, no row or
/// a row of the wrong size, invalid cluster params, a het request whose row
/// has no ids).
void validate_request(const PlanRequest& request);

/// Shared n_min-based node-count resolution for the DLT and OPR-MN rules
/// (both use the Section 4.1.1 B closed form). Returns (n, kNone) on
/// success or (0, reason) when no count can work. Fills `row` up to the
/// positions the search inspects.
std::pair<std::size_t, dlt::Infeasibility> resolve_node_count(
    NodeSearch search, const cluster::ClusterParams& params, double sigma,
    cluster::Time deadline, const cluster::AvailabilityView& row);

}  // namespace rtdls::sched::detail
