// Shared vocabulary types for the cluster model.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>

namespace rtdls::cluster {

class SpeedProfile;

/// Simulation time. The paper uses abstract "time units"; doubles keep the
/// closed-form DLT expressions exact enough (all comparisons use absolute
/// values well below 1e12, giving ~1e-4 ulp slack).
using Time = double;

/// Identifier of a processing node P1..PN (0-based internally).
using NodeId = std::uint32_t;

/// Identifier of a task.
using TaskId = std::uint64_t;

/// Sentinel for "no task".
inline constexpr TaskId kNoTask = std::numeric_limits<TaskId>::max();

/// Static cluster parameters: the tuple (N, Cms, Cps) from the paper's
/// system model, optionally refined by a per-node speed profile.
struct ClusterParams {
  std::size_t node_count = 16;  ///< N: processing nodes (head node excluded)
  double cms = 1.0;             ///< Cms: cost of transmitting one unit of load
  double cps = 100.0;           ///< Cps: cost of processing one unit of load

  /// Optional per-node processing costs (cluster/speed_profile.hpp). Null
  /// means the homogeneous model; a profile whose every value equals `cps`
  /// is treated as homogeneous too, so attaching an all-equal profile keeps
  /// planning on the (bit-identical) homogeneous path. The scalar `cps`
  /// stays the workload-calibration reference (DCRatio, SystemLoad), which
  /// is why generators preserving mean_cps == cps keep load axes comparable
  /// across heterogeneity levels.
  std::shared_ptr<const SpeedProfile> speed_profile;

  /// beta = Cps / (Cms + Cps), Eq. (8). In (0, 1) whenever both costs > 0.
  double beta() const { return cps / (cms + cps); }

  /// True when the het planning paths must engage: a profile is attached
  /// and differs from the scalar cps somewhere. Defined in speed_profile.cpp.
  bool heterogeneous() const;

  /// Processing cost of node `id`: profile value, or the scalar cps.
  /// Defined in speed_profile.cpp.
  double node_cps(NodeId id) const;

  /// True when the parameters form a valid model: at least one node and
  /// finite, positive costs. An infinite Cms or Cps would make every
  /// transmission or computation endless, so no task could ever be
  /// planned; the workload generator would divide by it.
  bool valid() const {
    const auto cost = [](double c) { return std::isfinite(c) && c > 0.0; };
    return node_count > 0 && cost(cms) && cost(cps) &&
           (speed_profile == nullptr || profile_valid());
  }

 private:
  /// Profile/N agreement (values are validated at profile construction).
  bool profile_valid() const;
};

}  // namespace rtdls::cluster
