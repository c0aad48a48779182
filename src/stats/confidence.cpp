#include "stats/confidence.hpp"

#include "stats/student_t.hpp"

namespace rtdls::stats {

ConfidenceInterval mean_confidence_interval(const RunningStats& stats,
                                            double confidence) {
  ConfidenceInterval ci;
  ci.confidence = confidence;
  ci.samples = stats.count();
  ci.mean = stats.mean();
  if (stats.count() >= 2) {
    const double t = student_t_critical(confidence, static_cast<double>(stats.count() - 1));
    ci.half_width = t * stats.stderror();
  }
  return ci;
}

ConfidenceInterval mean_confidence_interval(const std::vector<double>& samples,
                                            double confidence) {
  RunningStats stats;
  for (double s : samples) stats.add(s);
  return mean_confidence_interval(stats, confidence);
}

}  // namespace rtdls::stats
