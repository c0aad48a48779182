#include "sched/planner_batch.hpp"

#include <stdexcept>

#include "util/fp.hpp"

namespace rtdls::sched::het {

void PlannerBatch::begin_walk(double cms, double sigma) {
  cursor_.reset(cms);
  cms_ = cms;
  sigma_ = sigma;
  dlt_n_ = 0;
}

void PlannerBatch::sync_cursor(const double* cps, std::size_t n) {
  const std::size_t from = cursor_.size();
  if (from < n) {
    cursor_.extend_until(cps + from, n - from, [](std::size_t, double) { return false; });
  }
}

PlannerBatch::WalkStop PlannerBatch::reference_walk(const Time* free, const double* cps,
                                                    std::size_t first, std::size_t last,
                                                    std::size_t clear, Time deadline) {
  sync_cursor(cps, first - 1);
  const double sigma = sigma_;
  const double cms = cms_;
  dlt::Infeasibility reason = dlt::Infeasibility::kNone;
  Time estimate = 0.0;
  bool accepted = false;
  const std::size_t walked = cursor_.extend_until(
      cps + (first - 1), last - first + 1, [&](std::size_t k, double alpha_n) {
        const std::size_t n = first + k;
        const Time rn = free[n - 1];
        if (n > clear) {
          reason = hard_reject(sigma, cms, deadline, rn);
          if (reason != dlt::Infeasibility::kNone) return true;
        }
        estimate = rn + (sigma * cms + alpha_n * sigma * cps[n - 1]);
        accepted = fp::at_or_before(estimate, deadline);
        return accepted;
      });
  WalkStop stop;
  stop.estimated = reason == dlt::Infeasibility::kNone ? walked : walked - 1;
  stop.reason = reason;
  stop.accepted = accepted;
  stop.estimate = estimate;
  return stop;
}

Time PlannerBatch::dlt_walk_estimate(const std::vector<Time>& free,
                                     const std::vector<double>& cps, std::size_t n) {
  // Stage 1 - E_ref, the no-IIT reference of the generalized Eq. (1): all n
  // nodes allocated at r_n with their actual speeds. One cursor step.
  sync_cursor(cps.data(), n);
  const Time rn = free[n - 1];
  const double e_ref = sigma_ * cms_ + cursor_.alpha_last() * sigma_ * cps[n - 1];
  dlt_n_ = n;

  // Stage 2 - the equivalent-model costs depend on both r_n and E_ref, so
  // the whole column changes at every n: two elementwise passes (each lane
  // independent) and one order-sensitive scalar scan, on flat reused
  // columns.
  tilde_.resize(n);
  const double* fr = free.data();
  const double* cp = cps.data();
  double* tl = tilde_.data();
  for (std::size_t i = 0; i < n; ++i) {
    tl[i] = e_ref / (e_ref + (rn - fr[i])) * cp[i];
  }

  ratio_.resize(n);
  double* ra = ratio_.data();
  const double cms = cms_;
  for (std::size_t i = 1; i < n; ++i) {
    ra[i] = tl[i - 1] / (cms + tl[i]);
  }

  // The scan accumulates in the scalar reference's exact order: product
  // first, then the denominator add, element by element.
  products_.resize(n);
  products_[0] = 1.0;
  double p = 1.0;
  double denom = 1.0;
  for (std::size_t i = 1; i < n; ++i) {
    p = p * ra[i];
    products_[i] = p;
    denom += p;
  }
  dlt_denom_ = denom;

  // Eq. (6) analog: cps_tilde_n == cps_actual_n since r_n - r_n = 0.
  const double e_hat = sigma_ * cms_ + (p / denom) * sigma_ * cps[n - 1];
  return rn + e_hat;
}

void PlannerBatch::materialize_dlt_alpha(std::vector<double>& out) const {
  if (dlt_n_ == 0) throw std::logic_error("PlannerBatch: no DLT prefix evaluated");
  out.resize(dlt_n_);
  for (std::size_t i = 0; i < dlt_n_; ++i) out[i] = products_[i] / dlt_denom_;
}

Time PlannerBatch::window_duration_prefix(const std::vector<double>& cps, std::size_t m) {
  sync_cursor(cps.data(), m);
  return sigma_ * cms_ + cursor_.alpha_last() * sigma_ * cps[m - 1];
}

}  // namespace rtdls::sched::het
