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

void PlannerBatch::sync_cursor(const std::vector<double>& cps, std::size_t n) {
  while (cursor_.size() < n) cursor_.extend(cps[cursor_.size()]);
}

Time PlannerBatch::opr_walk_estimate(const std::vector<Time>& free,
                                     const std::vector<double>& cps, std::size_t n) {
  sync_cursor(cps, n);
  const double exec = sigma_ * cms_ + cursor_.alpha_last() * sigma_ * cps[n - 1];
  return free[n - 1] + exec;
}

Time PlannerBatch::dlt_walk_estimate(const std::vector<Time>& free,
                                     const std::vector<double>& cps, std::size_t n) {
  // Stage 1 - E_ref, the no-IIT reference of the generalized Eq. (1): all n
  // nodes allocated at r_n with their actual speeds. One cursor step.
  sync_cursor(cps, n);
  const Time rn = free[n - 1];
  const double e_ref = sigma_ * cms_ + cursor_.alpha_last() * sigma_ * cps[n - 1];
  dlt_n_ = n;

  // Tied prefix (every offered node frees at r_n, e.g. all idle at `now`):
  // each r_n - r_i is +0.0, so Eq. (1)'s factor E_ref / (E_ref + 0) is
  // exactly 1.0 and cps_tilde == cps. Stage 2 would then re-run the
  // cursor's own recurrence op for op, so E_hat == E_ref bit for bit and
  // the cursor already holds the partition: O(1) per position.
  dlt_tied_ = fp::exact_eq(free[0], rn);
  if (dlt_tied_) return rn + e_ref;

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
  if (dlt_tied_) {
    cursor_.materialize(out);
    return;
  }
  out.resize(dlt_n_);
  for (std::size_t i = 0; i < dlt_n_; ++i) out[i] = products_[i] / dlt_denom_;
}

Time PlannerBatch::window_duration_prefix(const std::vector<double>& cps, std::size_t m) {
  sync_cursor(cps, m);
  return sigma_ * cms_ + cursor_.alpha_last() * sigma_ * cps[m - 1];
}

Time PlannerBatch::window_duration(double cms, double sigma, const std::vector<double>& cps,
                                   std::size_t m) {
  double p = 1.0;
  double denom = 1.0;
  for (std::size_t i = 1; i < m; ++i) {
    p = p * (cps[i - 1] / (cms + cps[i]));
    denom += p;
  }
  return sigma * cms + (p / denom) * sigma * cps[m - 1];
}

}  // namespace rtdls::sched::het
