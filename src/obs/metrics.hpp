// Lock-light metrics registry: named monotonic counters, gauges, and
// fixed-bucket log-scale latency histograms.
//
// Write-path design: counter and histogram increments land in per-thread
// shards of relaxed atomics, so concurrent writers never contend on a lock
// or a shared cache line; a scrape (snapshot / prometheus_text) merges the
// live shards, the folded remains of exited threads, and a locked overflow
// table (metrics registered after a thread's shard was sized - the shard is
// regrown on that thread's next write). Gauges are single process-global
// atomic cells (set/add semantics don't shard).
//
// Histograms are log-scale: bucket k covers [lowest*g^k, lowest*g^(k+1))
// with growth g = 2^(1/buckets_per_octave), so quantile extraction has a
// bounded relative error of g-1 (~9% at the default 8 buckets per octave)
// regardless of the value range; exact min/max/sum/count ride along.
//
// Lifetime: Registry::global() is a leaked process-wide instance (reachable
// from a static pointer, so LeakSanitizer treats it as live). Independent
// Registry instances are supported (the daemon keeps its request-path
// metrics separate from the process registry); the shared state is
// refcounted so a thread that outlives a Registry folds its shard into
// state that is still alive.
//
// Handles (Counter/Gauge/Histogram) are trivially copyable values; a
// default-constructed handle no-ops, so instrumentation points don't need
// registration to have happened.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"

namespace rtdls::obs {

namespace detail {
struct RegistryState;
}  // namespace detail

class Registry;

/// Monotonic counter handle.
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t n) const;
  void inc() const { add(1); }

 private:
  friend class Registry;
  Counter(detail::RegistryState* state, std::uint32_t slot) : state_(state), slot_(slot) {}
  detail::RegistryState* state_ = nullptr;
  std::uint32_t slot_ = 0;
};

/// Point-in-time gauge handle (process-global cell, relaxed atomics).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) const {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) const {
    if (cell_ != nullptr) cell_->fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class Registry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Log-scale bucket layout. The defaults cover [1, 2^32) with ~9% relative
/// bucket width - microsecond latencies from 1us to ~71min.
struct HistogramOptions {
  double lowest = 1.0;  ///< lower edge of bucket 0; smaller values clamp in
  std::uint32_t buckets_per_octave = 8;
  std::uint32_t bucket_count = 256;
};

/// Histogram handle. Carries its own bucket layout so the record path never
/// touches the registry's registration tables (which may grow concurrently).
class Histogram {
 public:
  Histogram() = default;
  void record(double value) const;

 private:
  friend class Registry;
  friend struct detail::RegistryState;
  detail::RegistryState* state_ = nullptr;
  std::uint32_t index_ = 0;       ///< per-histogram aux slot (count/sum/min/max)
  std::uint32_t first_slot_ = 0;  ///< first bucket slot in the shard bucket array
  std::uint32_t bucket_count_ = 0;
  double lowest_ = 1.0;
  double scale_ = 0.0;  ///< buckets_per_octave / ln 2
};

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

/// Merged histogram contents plus the layout needed to interpret buckets.
struct HistogramSample {
  std::string name;
  HistogramOptions options;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< exact; 0 when empty
  double max = 0.0;  ///< exact; 0 when empty
  std::vector<std::uint64_t> buckets;

  /// Quantile estimate (linear interpolation inside the landing bucket,
  /// clamped to [min, max]); q in [0, 1]. Returns 0 when empty.
  double quantile(double q) const;
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// The histogram named `name`, or null when the snapshot has none.
  const HistogramSample* find_histogram(std::string_view name) const;
};

class Registry {
 public:
  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Leaked process-wide registry: the default home for instrumentation.
  static Registry& global();

  /// Returns the handle for `name`, registering it on first use.
  /// Re-registration with the same name yields the same underlying metric.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  /// `options` only applies on first registration of `name`.
  Histogram histogram(std::string_view name, HistogramOptions options = {});

  /// Coherent-enough merge of all shards; concurrent writers may or may not
  /// be included, but nothing tears and counters never run backwards.
  Snapshot snapshot() const;

  /// Scrape conveniences (linear scans of the snapshot).
  std::uint64_t counter_value(std::string_view name) const;
  HistogramSample histogram_sample(std::string_view name) const;

  /// Prometheus text exposition (counter/gauge/summary families).
  std::string prometheus_text() const;

 private:
  std::shared_ptr<detail::RegistryState> state_;
};

/// Renders a snapshot in Prometheus text exposition format.
std::string prometheus_text(const Snapshot& snapshot);

}  // namespace rtdls::obs
