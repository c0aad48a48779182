// Output-data (result collection) extension.
//
// The paper's system model transfers only input data, noting that "the
// extension to consider the transfer of output data using DLT is
// straightforward" (Section 3). This module makes that extension concrete:
// each task additionally returns delta * sigma units of result data
// (delta = output/input ratio), transmitted node-by-node back through the
// same sequential channel after each node finishes computing.
//
// For admission control we need an upper bound on the completion time with
// results. Let T0 = r_n + E_hat be the input-phase bound (Theorem 4): by T0
// every input transmission and every computation has finished, so at most
// delta * sigma * Cms of result-channel work can remain. Hence
//
//     completion_with_results <= T0 + delta * sigma * Cms
//
// which is the bound used by the *-IO scheduling rules. The exact rollout
// (results served in node-completion order) lives in sim/exec_model and is
// property-tested against this bound.
#pragma once

#include "dlt/params.hpp"

namespace rtdls::dlt {

/// Channel time needed to return the results of load `sigma` with
/// output/input ratio `delta` (>= 0).
double output_channel_time(const ClusterParams& params, double sigma, double delta);

/// Upper bound on the completion time with result collection, given the
/// input-phase completion bound `input_completion` (typically r_n + E_hat
/// for DLT-IIT plans or r_n + E for OPR plans).
Time output_completion_bound(const ClusterParams& params, double sigma, double delta,
                             Time input_completion);

}  // namespace rtdls::dlt
