// The paper's first contribution (Section 4.1.1 A/B): casting n homogeneous
// nodes with *different available times* r_1 <= ... <= r_n into an
// equivalent heterogeneous model where all nodes are allocated at r_n, and
// partitioning the load on that model.
//
//   Cps_i = E / (E + r_n - r_i) * Cps          (Eq. 1)
//   Cms_i = Cms                                (Eq. 2)
//   X_i   = Cps_{i-1} / (Cms + Cps_i)          (i = 2..n)
//   alpha_i = alpha_1 * prod_{j=2..i} X_j,  sum alpha_i = 1   (Eq. 4, 5)
//   E_hat(sigma, n) = sigma*Cms + alpha_n*sigma*Cps           (Eq. 6)
//
// with E = E(sigma, n) the homogeneous no-IIT execution time. Eq. (9)
// guarantees E_hat <= E, and Theorem 4 guarantees that executing the
// resulting fractions on the real homogeneous cluster (node i starting at
// its own r_i, single sequential distribution channel) completes no later
// than r_n + E_hat.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dlt/params.hpp"
#include "util/annotations.hpp"

namespace rtdls::dlt {

/// Optimal single-round DLT fractions for a *general* heterogeneous bus
/// cluster: n nodes allocated simultaneously, node i with unit processing
/// cost cps_i, shared sequential channel with unit cost cms (Eq. 3-5 with
/// arbitrary Cps_i). Returns alpha (sums to 1). This is both the inner
/// kernel of the paper's IIT transform and a standalone partitioner for
/// genuinely heterogeneous clusters.
std::vector<double> general_het_alpha(double cms, const std::vector<double>& cps_i);

/// Same kernel writing into `out` (capacity reused; the admission hot loop
/// plans thousands of tasks per run and must not reallocate per plan).
void general_het_alpha_into(double cms, const std::vector<double>& cps_i,
                            std::vector<double>& out);

/// Same kernel over the first `n` entries of `cps_i` only (the het planning
/// scan evaluates growing prefixes of the availability-ordered speeds).
void general_het_alpha_into(double cms, const std::vector<double>& cps_i, std::size_t n,
                            std::vector<double>& out);

/// Execution time of the general heterogeneous partition (Eq. 6 with
/// arbitrary Cps_i) over the n = cps_i.size() nodes: sigma*cms +
/// alpha_n*sigma*cps_n. Streams the recurrence (only alpha_n is needed, and
/// alpha_n = p_n / sum p_i over the unnormalized prefix products), so it
/// allocates nothing; bit-identical to materializing the full alpha vector.
/// Throws std::invalid_argument like general_het_alpha, checking each speed
/// in the same pass. A span, so a caller times a prefix (or any window) of a
/// longer column.
double general_het_execution_time(double cms, std::span<const double> cps_i, double sigma);

/// O(1)-extendable cursor over the Eq. (4)-(5) recurrence.
///
/// general_het_alpha_into evaluates, per call, the whole chain
///   p_1 = 1,  p_i = p_{i-1} * (cps_{i-1} / (cms + cps_i)),
///   alpha_i = p_i / sum_j p_j,
/// so a planner walking growing prefixes n = 1..N pays O(n) per candidate -
/// O(N^2) per task when every prefix is inspected. The cursor keeps the
/// unnormalized products and the running denominator instead: extending the
/// prefix by one node is a single divide/multiply/add, normalization is
/// deferred (alpha_last() divides once; only an accepted prefix pays the
/// O(n) materialize()). Every accumulation happens in the exact scan order
/// of general_het_alpha_into, so alpha_last() and materialize() are
/// bit-identical to the scalar kernel at every prefix length - the
/// differential property tests pin this across graded sizes.
class AlphaRecurrence {
 public:
  /// Starts an empty recurrence for channel cost `cms` (> 0). Reuses the
  /// product column's capacity, so resetting per plan allocates nothing in
  /// steady state.
  void reset(double cms);

  /// Appends the next node (unit cost `cps` > 0); O(1). extend_until over
  /// one node, so both run the same recurrence step.
  void extend(double cps) {
    extend_until(&cps, 1, [](std::size_t, double) { return false; });
  }

  /// Appends cps[0], cps[1], ... (at most `count` nodes), handing each new
  /// prefix's alpha_n to `halt(k, alpha_n)`, k the offset into `cps`, and
  /// ends after the first node for which it returns true. Returns the nodes
  /// appended. The fused walk's loop: the running product and denominator
  /// stay in registers, and each step is general_het_alpha_into's product
  /// then denominator add, in its order. A throw (a cps not > 0) leaves the
  /// cursor to be reset.
  template <typename Halt>
  RTDLS_HOT std::size_t extend_until(const double* cps, std::size_t count, Halt&& halt) {
    if (count == 0) return 0;
    std::size_t k = 0;
    if (products_.empty()) {
      // p_1 = 1: the denominator stays at its reset value 1.
      if (!(cps[0] > 0.0)) throw_bad_cps();
      products_.push_back(1.0);
      last_cps_ = cps[0];
      k = 1;
      if (halt(std::size_t{0}, alpha_last())) return 1;
    }
    double p = products_.back();
    double denom = denom_;
    double last = last_cps_;
    for (; k < count; ++k) {
      const double c = cps[k];
      if (!(c > 0.0)) throw_bad_cps();
      p = p * (last / (cms_ + c));
      denom += p;
      last = c;
      products_.push_back(p);
      if (halt(k, p / denom)) {
        ++k;
        break;
      }
    }
    denom_ = denom;
    last_cps_ = last;
    return k;
  }

  /// Number of nodes consumed so far.
  std::size_t size() const { return products_.size(); }

  /// alpha_n of the current prefix: the last unnormalized product over the
  /// running denominator - the exact division general_het_alpha_into
  /// performs when normalizing its last entry.
  RTDLS_HOT double alpha_last() const { return products_.back() / denom_; }

  /// Normalized alpha of the current prefix (general_het_alpha_into's
  /// output, bit for bit). O(n); intended for the one accepted prefix.
  void materialize(std::vector<double>& out) const;

 private:
  [[noreturn]] static void throw_bad_cps();

  double cms_ = 1.0;
  double denom_ = 1.0;
  double last_cps_ = 0.0;
  std::vector<double> products_;  ///< unnormalized p_1..p_n
};

/// The constructed heterogeneous model plus the DLT partition on it.
struct HetPartition {
  std::vector<Time> available;   ///< r_1..r_n, sorted ascending
  std::vector<double> cps_i;     ///< per-node unit processing cost, Eq. (1)
  std::vector<double> alpha;     ///< load fractions, Eq. (4)-(5); sums to 1
  double execution_time = 0.0;   ///< E_hat(sigma, n), Eq. (6)
  double homogeneous_time = 0.0; ///< E(sigma, n): no-IIT reference (Eq. 9 RHS)

  std::size_t nodes() const { return alpha.size(); }

  /// Estimated completion time r_n + E_hat (Eq. 7).
  Time estimated_completion() const {
    return (available.empty() ? 0.0 : available.back()) + execution_time;
  }
};

/// Builds the heterogeneous model and its optimal DLT partition for load
/// `sigma` over nodes with available times `available` (will be sorted).
/// Preconditions: valid params, sigma > 0, at least one node.
HetPartition build_het_partition(const ClusterParams& params, double sigma,
                                 std::vector<Time> available);

/// Same construction over the first `n` entries of `available`, which must
/// already be sorted ascending (the admission controller's availability
/// state always is). Writes into `out` reusing its vectors' capacity.
void build_het_partition_into(const ClusterParams& params, double sigma,
                              const std::vector<Time>& available, std::size_t n,
                              HetPartition& out);

/// Generalized Eq. (1) for a genuinely heterogeneous cluster: the offered
/// nodes have *actual* unit costs `cps_actual[i]` (aligned with `available`,
/// both availability-ordered, first `n` entries used). The construction
/// replaces the homogeneous reference E with
///   E_ref = no-IIT het execution time (all n allocated at r_n with their
///           actual speeds; Eq. 3-6 on cps_actual), and
///   cps_tilde_i = E_ref / (E_ref + (r_n - r_i)) * cps_actual_i,
/// then partitions with general_het_alpha on cps_tilde and estimates
///   E_hat = sigma*Cms + alpha_n*sigma*cps_actual_n   (cps_tilde_n == actual).
/// The Theorem-4 argument survives verbatim (cps_tilde_i <= cps_actual_i and
/// E_hat <= E_ref by speed monotonicity), so executing alpha on the real
/// nodes - each starting at its own r_i at its actual speed - completes no
/// later than r_n + E_hat; the simulator validates this for every commit.
/// out.homogeneous_time holds E_ref, out.cps_i the equivalent costs.
void build_het_partition_into(const ClusterParams& params, double sigma,
                              const std::vector<Time>& available,
                              const std::vector<double>& cps_actual, std::size_t n,
                              HetPartition& out);

/// Upper bound on node i's *actual* completion time in the homogeneous
/// cluster (proof of Theorem 4):
///   t_act_i <= sum_{j<=i} alpha_j*sigma*Cms + alpha_i*sigma*Cps + r_i.
/// Returns the bound for every node. All entries are <= estimated_completion
/// (the theorem; validated by tests and by the simulator's exec model).
std::vector<Time> theorem4_completion_bounds(const ClusterParams& params, double sigma,
                                             const HetPartition& partition);

/// Generalized bound for a genuinely heterogeneous partition: node i's
/// actual completion is at most
///   sum_{j<=i} alpha_j*sigma*Cms + alpha_i*sigma*cps_actual_i + r_i.
std::vector<Time> theorem4_completion_bounds(const ClusterParams& params, double sigma,
                                             const HetPartition& partition,
                                             const std::vector<double>& cps_actual);

}  // namespace rtdls::dlt
