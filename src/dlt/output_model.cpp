#include "dlt/output_model.hpp"

#include <stdexcept>

namespace rtdls::dlt {

namespace {
void check(const ClusterParams& params, double sigma, double delta) {
  if (!params.valid()) throw std::invalid_argument("output_model: invalid cluster params");
  if (!(sigma >= 0.0)) throw std::invalid_argument("output_model: sigma must be >= 0");
  if (!(delta >= 0.0)) throw std::invalid_argument("output_model: delta must be >= 0");
}
}  // namespace

double output_channel_time(const ClusterParams& params, double sigma, double delta) {
  check(params, sigma, delta);
  return delta * sigma * params.cms;
}

Time output_completion_bound(const ClusterParams& params, double sigma, double delta,
                             Time input_completion) {
  return input_completion + output_channel_time(params, sigma, delta);
}

}  // namespace rtdls::dlt
