#include "dlt/het_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "dlt/homogeneous.hpp"

namespace rtdls::dlt {

std::vector<double> general_het_alpha(double cms, const std::vector<double>& cps_i) {
  std::vector<double> alpha;
  general_het_alpha_into(cms, cps_i, alpha);
  return alpha;
}

void general_het_alpha_into(double cms, const std::vector<double>& cps_i,
                            std::vector<double>& out) {
  general_het_alpha_into(cms, cps_i, cps_i.size(), out);
}

void general_het_alpha_into(double cms, const std::vector<double>& cps_i, std::size_t n,
                            std::vector<double>& out) {
  if (!(cms > 0.0)) throw std::invalid_argument("general_het_alpha: cms must be > 0");
  if (n == 0 || n > cps_i.size()) {
    throw std::invalid_argument("general_het_alpha: need 1 <= n <= cps_i.size()");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!(cps_i[i] > 0.0)) throw std::invalid_argument("general_het_alpha: cps_i must be > 0");
  }
  // out[i] = prod_{j=2..i+1} X_j with X_j = cps_{j-1} / (cms + cps_j).
  out.assign(n, 0.0);
  out[0] = 1.0;
  double denom = 1.0;
  for (std::size_t i = 1; i < n; ++i) {
    out[i] = out[i - 1] * (cps_i[i - 1] / (cms + cps_i[i]));
    denom += out[i];
  }
  for (double& p : out) p /= denom;
}

double general_het_execution_time(double cms, std::span<const double> cps_i, double sigma) {
  if (!(sigma >= 0.0)) {
    throw std::invalid_argument("general_het_execution_time: sigma must be >= 0");
  }
  if (!(cms > 0.0)) throw std::invalid_argument("general_het_alpha: cms must be > 0");
  const std::size_t n = cps_i.size();
  if (n == 0) throw std::invalid_argument("general_het_alpha: need 1 <= n <= cps_i.size()");
  // Only alpha_n = p_n / sum p_i is needed: stream the recurrence without
  // storing the products. Same accumulation order as general_het_alpha_into,
  // so the result is bit-identical to the allocating path it replaces. Each
  // speed is checked as the pass reads it: a separate checking pass made a
  // call about 1.45x slower, and with no side effects a throw mid-pass is the
  // same as one up front.
  if (!(cps_i[0] > 0.0)) throw std::invalid_argument("general_het_alpha: cps_i must be > 0");
  double p = 1.0;
  double denom = 1.0;
  for (std::size_t i = 1; i < n; ++i) {
    if (!(cps_i[i] > 0.0)) throw std::invalid_argument("general_het_alpha: cps_i must be > 0");
    p = p * (cps_i[i - 1] / (cms + cps_i[i]));
    denom += p;
  }
  return sigma * cms + (p / denom) * sigma * cps_i.back();
}

void AlphaRecurrence::reset(double cms) {
  if (!(cms > 0.0)) throw std::invalid_argument("AlphaRecurrence: cms must be > 0");
  cms_ = cms;
  denom_ = 1.0;
  last_cps_ = 0.0;
  products_.clear();
}

void AlphaRecurrence::throw_bad_cps() {
  throw std::invalid_argument("AlphaRecurrence: cps must be > 0");
}

void AlphaRecurrence::materialize(std::vector<double>& out) const {
  out.resize(products_.size());
  for (std::size_t i = 0; i < products_.size(); ++i) out[i] = products_[i] / denom_;
}

HetPartition build_het_partition(const ClusterParams& params, double sigma,
                                 std::vector<Time> available) {
  std::sort(available.begin(), available.end());
  HetPartition out;
  build_het_partition_into(params, sigma, available, available.size(), out);
  return out;
}

void build_het_partition_into(const ClusterParams& params, double sigma,
                              const std::vector<Time>& available, std::size_t n,
                              HetPartition& out) {
  if (!params.valid()) throw std::invalid_argument("het_partition: invalid cluster params");
  if (!(sigma > 0.0)) throw std::invalid_argument("het_partition: sigma must be > 0");
  if (n == 0 || n > available.size()) {
    throw std::invalid_argument("het_partition: need 1 <= n <= available nodes");
  }
  assert(std::is_sorted(available.begin(),
                        available.begin() + static_cast<std::ptrdiff_t>(n)) &&
         "build_het_partition_into: available times must be sorted ascending");

  out.available.assign(available.begin(),
                       available.begin() + static_cast<std::ptrdiff_t>(n));
  const Time rn = out.available.back();
  out.homogeneous_time = homogeneous_execution_time(params, sigma, n);

  // Eq. (1): the earlier a node frees, the "faster" its model counterpart.
  // E + rn - ri >= E > 0, so cps_i is well defined and <= Cps.
  const double e_no_iit = out.homogeneous_time;
  out.cps_i.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.cps_i[i] = e_no_iit / (e_no_iit + (rn - out.available[i])) * params.cps;
  }

  // Eq. (4)-(5): the general heterogeneous kernel on the constructed costs.
  general_het_alpha_into(params.cms, out.cps_i, out.alpha);

  // Eq. (6): E_hat = sigma*Cms + alpha_n*sigma*Cps (Cps_n == Cps since
  // r_n - r_n = 0).
  out.execution_time = sigma * params.cms + out.alpha.back() * sigma * params.cps;
}

void build_het_partition_into(const ClusterParams& params, double sigma,
                              const std::vector<Time>& available,
                              const std::vector<double>& cps_actual, std::size_t n,
                              HetPartition& out) {
  if (!params.valid()) throw std::invalid_argument("het_partition: invalid cluster params");
  if (!(sigma > 0.0)) throw std::invalid_argument("het_partition: sigma must be > 0");
  if (n == 0 || n > available.size() || n > cps_actual.size()) {
    throw std::invalid_argument("het_partition: need 1 <= n <= offered nodes");
  }
  assert(std::is_sorted(available.begin(),
                        available.begin() + static_cast<std::ptrdiff_t>(n)) &&
         "build_het_partition_into: available times must be sorted ascending");

  out.available.assign(available.begin(),
                       available.begin() + static_cast<std::ptrdiff_t>(n));
  const Time rn = out.available.back();

  // E_ref: the no-IIT reference of the generalized Eq. (1) - all n nodes
  // allocated simultaneously at r_n with their actual speeds (out.alpha is
  // scratch here and overwritten with the final partition below).
  general_het_alpha_into(params.cms, cps_actual, n, out.alpha);
  const double e_ref = sigma * params.cms + out.alpha.back() * sigma * cps_actual[n - 1];
  out.homogeneous_time = e_ref;

  // Generalized Eq. (1): an earlier-freeing node's model counterpart is
  // faster in proportion to its head start. E_ref + (rn - ri) >= E_ref > 0.
  out.cps_i.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.cps_i[i] = e_ref / (e_ref + (rn - out.available[i])) * cps_actual[i];
  }

  general_het_alpha_into(params.cms, out.cps_i, n, out.alpha);

  // Eq. (6) analog: cps_tilde_n == cps_actual_n since r_n - r_n = 0.
  out.execution_time = sigma * params.cms + out.alpha.back() * sigma * cps_actual[n - 1];
}

std::vector<Time> theorem4_completion_bounds(const ClusterParams& params, double sigma,
                                             const HetPartition& partition) {
  const std::size_t n = partition.nodes();
  std::vector<Time> bounds(n);
  double transmission_prefix = 0.0;  // sum_{j<=i} alpha_j * sigma * Cms
  for (std::size_t i = 0; i < n; ++i) {
    transmission_prefix += partition.alpha[i] * sigma * params.cms;
    bounds[i] = transmission_prefix + partition.alpha[i] * sigma * params.cps +
                partition.available[i];
  }
  return bounds;
}

std::vector<Time> theorem4_completion_bounds(const ClusterParams& params, double sigma,
                                             const HetPartition& partition,
                                             const std::vector<double>& cps_actual) {
  const std::size_t n = partition.nodes();
  std::vector<Time> bounds(n);
  double transmission_prefix = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    transmission_prefix += partition.alpha[i] * sigma * params.cms;
    bounds[i] = transmission_prefix + partition.alpha[i] * sigma * cps_actual[i] +
                partition.available[i];
  }
  return bounds;
}

}  // namespace rtdls::dlt
