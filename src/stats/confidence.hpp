// Confidence intervals over sets of simulation-run results, as used for the
// paper's per-point "average of ten simulations" with 95% CIs (Fig. 3b).
#pragma once

#include <vector>

#include "stats/running_stats.hpp"

namespace rtdls::stats {

/// A mean with a symmetric confidence half-width.
struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;  ///< t* x stderr; 0 when fewer than 2 samples
  double confidence = 0.95;
  size_t samples = 0;

  double lower() const { return mean - half_width; }
  double upper() const { return mean + half_width; }
};

/// Student-t confidence interval for the mean of `samples`.
ConfidenceInterval mean_confidence_interval(const std::vector<double>& samples,
                                            double confidence = 0.95);

/// Same, from an already-populated accumulator.
ConfidenceInterval mean_confidence_interval(const RunningStats& stats,
                                            double confidence = 0.95);

}  // namespace rtdls::stats
