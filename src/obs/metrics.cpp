#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>

namespace rtdls::obs {

namespace detail {

namespace {

constexpr std::uint64_t kPosInfBits = 0x7FF0000000000000ull;
constexpr std::uint64_t kNegInfBits = 0xFFF0000000000000ull;

/// Monotone CAS of a double stored as bits; keep = true keeps the smaller.
template <bool Min>
void update_extreme(std::atomic<std::uint64_t>& bits, double value) {
  std::uint64_t current = bits.load(std::memory_order_relaxed);
  for (;;) {
    const double seen = std::bit_cast<double>(current);
    const bool improves = Min ? value < seen : value > seen;
    if (!improves) return;
    if (bits.compare_exchange_weak(current, std::bit_cast<std::uint64_t>(value),
                                   std::memory_order_relaxed)) {
      return;
    }
  }
}

}  // namespace

/// One thread's write arena: arrays of relaxed atomics, sized to the
/// registration counts at creation. A write to a slot past the end regrows
/// the shard (fold + replace) under the registry mutex - rare, since
/// registration normally precedes steady-state traffic.
struct Shard {
  Shard(std::size_t counter_slots, std::size_t bucket_slots, std::size_t hist_slots)
      : counters(counter_slots),
        hist_buckets(bucket_slots),
        hist_count(hist_slots),
        hist_sum(hist_slots),
        hist_min_bits(hist_slots),
        hist_max_bits(hist_slots) {
    for (auto& b : hist_min_bits) b.store(kPosInfBits, std::memory_order_relaxed);
    for (auto& b : hist_max_bits) b.store(kNegInfBits, std::memory_order_relaxed);
  }

  std::vector<std::atomic<std::uint64_t>> counters;
  std::vector<std::atomic<std::uint64_t>> hist_buckets;  ///< concatenated per histogram
  std::vector<std::atomic<std::uint64_t>> hist_count;
  std::vector<std::atomic<double>> hist_sum;
  std::vector<std::atomic<std::uint64_t>> hist_min_bits;
  std::vector<std::atomic<std::uint64_t>> hist_max_bits;
};

struct RegistryState : std::enable_shared_from_this<RegistryState> {
  struct HistInfo {
    std::string name;
    HistogramOptions options;
    std::uint32_t first_slot = 0;
  };

  // Guards registration tables, the live-shard list, and the folded remains;
  // never held across user code. Nested only under older locks (the daemon
  // bumps counters while holding its level-20 shard mutex), hence the
  // explicit stray rank.
  mutable std::mutex registry_mutex RTDLS_LOCK_LEVEL(30);

  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> gauge_cells;
  std::vector<HistInfo> hists;
  std::size_t bucket_slots = 0;

  std::vector<std::shared_ptr<Shard>> shards;

  // Contributions from exited threads and regrown shards (plain values,
  // only touched under `registry_mutex`).
  std::vector<std::uint64_t> folded_counters;
  std::vector<std::uint64_t> folded_hist_buckets;
  std::vector<std::uint64_t> folded_hist_count;
  std::vector<double> folded_hist_sum;
  std::vector<double> folded_hist_min;
  std::vector<double> folded_hist_max;

  void fold_locked(const Shard& shard) {
    folded_counters.resize(std::max(folded_counters.size(), shard.counters.size()), 0);
    folded_hist_buckets.resize(std::max(folded_hist_buckets.size(), shard.hist_buckets.size()),
                               0);
    const std::size_t hist_slots = shard.hist_count.size();
    if (folded_hist_count.size() < hist_slots) {
      folded_hist_count.resize(hist_slots, 0);
      folded_hist_sum.resize(hist_slots, 0.0);
      folded_hist_min.resize(hist_slots, std::numeric_limits<double>::infinity());
      folded_hist_max.resize(hist_slots, -std::numeric_limits<double>::infinity());
    }
    for (std::size_t i = 0; i < shard.counters.size(); ++i) {
      folded_counters[i] += shard.counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < shard.hist_buckets.size(); ++i) {
      folded_hist_buckets[i] += shard.hist_buckets[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < hist_slots; ++i) {
      folded_hist_count[i] += shard.hist_count[i].load(std::memory_order_relaxed);
      folded_hist_sum[i] += shard.hist_sum[i].load(std::memory_order_relaxed);
      folded_hist_min[i] = std::min(
          folded_hist_min[i],
          std::bit_cast<double>(shard.hist_min_bits[i].load(std::memory_order_relaxed)));
      folded_hist_max[i] = std::max(
          folded_hist_max[i],
          std::bit_cast<double>(shard.hist_max_bits[i].load(std::memory_order_relaxed)));
    }
  }

  void drop_shard_locked(const Shard* shard) {
    for (auto it = shards.begin(); it != shards.end(); ++it) {
      if (it->get() == shard) {
        shards.erase(it);
        return;
      }
    }
  }

  Shard& local_shard(std::size_t counter_slots_needed, std::size_t bucket_slots_needed,
                     std::size_t hist_slots_needed);
  void counter_add(std::uint32_t slot, std::uint64_t n);
  void hist_record(const Histogram& h, double value);
};

namespace {

struct LocalEntry {
  std::shared_ptr<RegistryState> state;  ///< keeps the state past Registry death
  std::shared_ptr<Shard> shard;
};

/// Per-thread shard table; the destructor folds every shard back into its
/// (still-alive, via the strong ref) registry so exited threads keep
/// counting and the live-shard list stays bounded by live threads.
struct LocalShards {
  std::vector<LocalEntry> entries;

  ~LocalShards() {
    for (LocalEntry& entry : entries) {
      std::lock_guard<std::mutex> lock(entry.state->registry_mutex);
      entry.state->fold_locked(*entry.shard);
      entry.state->drop_shard_locked(entry.shard.get());
    }
  }
};

thread_local LocalShards t_shards;

}  // namespace

Shard& RegistryState::local_shard(std::size_t counter_slots_needed,
                                  std::size_t bucket_slots_needed,
                                  std::size_t hist_slots_needed) {
  LocalEntry* entry = nullptr;
  for (LocalEntry& candidate : t_shards.entries) {
    if (candidate.state.get() == this) {
      entry = &candidate;
      break;
    }
  }
  if (entry != nullptr && entry->shard->counters.size() > counter_slots_needed &&
      entry->shard->hist_buckets.size() >= bucket_slots_needed &&
      entry->shard->hist_count.size() > hist_slots_needed) {
    return *entry->shard;
  }

  // Create (or regrow) this thread's shard, sized to the current
  // registration counts - at least what this write needs.
  std::lock_guard<std::mutex> lock(registry_mutex);
  const std::size_t counter_slots = std::max(counter_names.size(), counter_slots_needed + 1);
  const std::size_t buckets = std::max(bucket_slots, bucket_slots_needed);
  const std::size_t hist_slots = std::max(hists.size(), hist_slots_needed + 1);
  auto grown = std::make_shared<Shard>(counter_slots, buckets, hist_slots);
  if (entry != nullptr) {
    fold_locked(*entry->shard);
    drop_shard_locked(entry->shard.get());
    entry->shard = grown;
  } else {
    t_shards.entries.push_back(LocalEntry{shared_from_this(), grown});
    entry = &t_shards.entries.back();
  }
  shards.push_back(grown);
  return *entry->shard;
}

void RegistryState::counter_add(std::uint32_t slot, std::uint64_t n) {
  Shard& shard = local_shard(slot, 0, 0);
  shard.counters[slot].fetch_add(n, std::memory_order_relaxed);
}

void RegistryState::hist_record(const Histogram& h, double value) {
  if (std::isnan(value)) return;
  if (value < 0.0) value = 0.0;
  std::size_t bucket = 0;
  if (value > h.lowest_) {
    const double raw = std::floor(std::log(value / h.lowest_) * h.scale_);
    bucket = std::min<std::size_t>(static_cast<std::size_t>(std::max(raw, 0.0)),
                                   h.bucket_count_ - 1);
  }
  Shard& shard =
      local_shard(0, static_cast<std::size_t>(h.first_slot_) + h.bucket_count_, h.index_);
  shard.hist_buckets[h.first_slot_ + bucket].fetch_add(1, std::memory_order_relaxed);
  shard.hist_count[h.index_].fetch_add(1, std::memory_order_relaxed);
  shard.hist_sum[h.index_].fetch_add(value, std::memory_order_relaxed);
  update_extreme<true>(shard.hist_min_bits[h.index_], value);
  update_extreme<false>(shard.hist_max_bits[h.index_], value);
}

}  // namespace detail

// --- handles ----------------------------------------------------------------

void Counter::add(std::uint64_t n) const {
  if (state_ == nullptr || n == 0) return;
  state_->counter_add(slot_, n);
}

void Histogram::record(double value) const {
  if (state_ == nullptr) return;
  state_->hist_record(*this, value);
}

// --- registry ---------------------------------------------------------------

Registry::Registry() : state_(std::make_shared<detail::RegistryState>()) {}

Registry::~Registry() = default;

Registry& Registry::global() {
  // Leaked on purpose: reachable from this static pointer (so LSan counts it
  // live) and immune to static-destruction ordering against late threads.
  static Registry* registry = new Registry();
  return *registry;
}

Counter Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(state_->registry_mutex);
  for (std::size_t i = 0; i < state_->counter_names.size(); ++i) {
    if (state_->counter_names[i] == name) {
      return Counter(state_.get(), static_cast<std::uint32_t>(i));
    }
  }
  state_->counter_names.emplace_back(name);
  return Counter(state_.get(), static_cast<std::uint32_t>(state_->counter_names.size() - 1));
}

Gauge Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(state_->registry_mutex);
  for (std::size_t i = 0; i < state_->gauge_names.size(); ++i) {
    if (state_->gauge_names[i] == name) return Gauge(state_->gauge_cells[i].get());
  }
  state_->gauge_names.emplace_back(name);
  state_->gauge_cells.push_back(std::make_unique<std::atomic<std::int64_t>>(0));
  return Gauge(state_->gauge_cells.back().get());
}

Histogram Registry::histogram(std::string_view name, HistogramOptions options) {
  std::lock_guard<std::mutex> lock(state_->registry_mutex);
  const detail::RegistryState::HistInfo* info = nullptr;
  std::size_t index = 0;
  for (std::size_t i = 0; i < state_->hists.size(); ++i) {
    if (state_->hists[i].name == name) {
      info = &state_->hists[i];
      index = i;
      break;
    }
  }
  if (info == nullptr) {
    detail::RegistryState::HistInfo fresh;
    fresh.name = std::string(name);
    fresh.options = options;
    if (fresh.options.bucket_count == 0) fresh.options.bucket_count = 1;
    if (fresh.options.buckets_per_octave == 0) fresh.options.buckets_per_octave = 1;
    if (!(fresh.options.lowest > 0.0)) fresh.options.lowest = 1.0;
    fresh.first_slot = static_cast<std::uint32_t>(state_->bucket_slots);
    state_->bucket_slots += fresh.options.bucket_count;
    state_->hists.push_back(std::move(fresh));
    index = state_->hists.size() - 1;
    info = &state_->hists[index];
  }
  Histogram h;
  h.state_ = state_.get();
  h.index_ = static_cast<std::uint32_t>(index);
  h.first_slot_ = info->first_slot;
  h.bucket_count_ = info->options.bucket_count;
  h.lowest_ = info->options.lowest;
  h.scale_ = static_cast<double>(info->options.buckets_per_octave) / std::log(2.0);
  return h;
}

Snapshot Registry::snapshot() const {
  Snapshot out;
  std::lock_guard<std::mutex> lock(state_->registry_mutex);

  const std::size_t n_counters = state_->counter_names.size();
  std::vector<std::uint64_t> counters(n_counters, 0);
  for (std::size_t i = 0; i < state_->folded_counters.size() && i < n_counters; ++i) {
    counters[i] = state_->folded_counters[i];
  }

  const std::size_t n_hists = state_->hists.size();
  std::vector<std::uint64_t> buckets(state_->bucket_slots, 0);
  std::vector<std::uint64_t> hist_count(n_hists, 0);
  std::vector<double> hist_sum(n_hists, 0.0);
  std::vector<double> hist_min(n_hists, std::numeric_limits<double>::infinity());
  std::vector<double> hist_max(n_hists, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < state_->folded_hist_buckets.size() && i < buckets.size(); ++i) {
    buckets[i] = state_->folded_hist_buckets[i];
  }
  for (std::size_t i = 0; i < state_->folded_hist_count.size() && i < n_hists; ++i) {
    hist_count[i] = state_->folded_hist_count[i];
    hist_sum[i] = state_->folded_hist_sum[i];
    hist_min[i] = state_->folded_hist_min[i];
    hist_max[i] = state_->folded_hist_max[i];
  }

  for (const auto& shard : state_->shards) {
    const std::size_t nc = std::min(shard->counters.size(), n_counters);
    for (std::size_t i = 0; i < nc; ++i) {
      counters[i] += shard->counters[i].load(std::memory_order_relaxed);
    }
    const std::size_t nb = std::min(shard->hist_buckets.size(), buckets.size());
    for (std::size_t i = 0; i < nb; ++i) {
      buckets[i] += shard->hist_buckets[i].load(std::memory_order_relaxed);
    }
    const std::size_t nh = std::min(shard->hist_count.size(), n_hists);
    for (std::size_t i = 0; i < nh; ++i) {
      hist_count[i] += shard->hist_count[i].load(std::memory_order_relaxed);
      hist_sum[i] += shard->hist_sum[i].load(std::memory_order_relaxed);
      hist_min[i] = std::min(
          hist_min[i],
          std::bit_cast<double>(shard->hist_min_bits[i].load(std::memory_order_relaxed)));
      hist_max[i] = std::max(
          hist_max[i],
          std::bit_cast<double>(shard->hist_max_bits[i].load(std::memory_order_relaxed)));
    }
  }

  out.counters.reserve(n_counters);
  for (std::size_t i = 0; i < n_counters; ++i) {
    out.counters.push_back(CounterSample{state_->counter_names[i], counters[i]});
  }
  out.gauges.reserve(state_->gauge_names.size());
  for (std::size_t i = 0; i < state_->gauge_names.size(); ++i) {
    out.gauges.push_back(GaugeSample{
        state_->gauge_names[i], state_->gauge_cells[i]->load(std::memory_order_relaxed)});
  }
  out.histograms.reserve(n_hists);
  for (std::size_t i = 0; i < n_hists; ++i) {
    const auto& info = state_->hists[i];
    HistogramSample sample;
    sample.name = info.name;
    sample.options = info.options;
    sample.count = hist_count[i];
    sample.sum = hist_sum[i];
    sample.min = hist_count[i] > 0 ? hist_min[i] : 0.0;
    sample.max = hist_count[i] > 0 ? hist_max[i] : 0.0;
    sample.buckets.assign(buckets.begin() + info.first_slot,
                          buckets.begin() + info.first_slot + info.options.bucket_count);
    out.histograms.push_back(std::move(sample));
  }
  return out;
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  const Snapshot snap = snapshot();
  for (const CounterSample& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

HistogramSample Registry::histogram_sample(std::string_view name) const {
  const Snapshot snap = snapshot();
  const HistogramSample* sample = snap.find_histogram(name);
  return sample != nullptr ? *sample : HistogramSample{};
}

std::string Registry::prometheus_text() const { return obs::prometheus_text(snapshot()); }

// --- samples ----------------------------------------------------------------

const HistogramSample* Snapshot::find_histogram(std::string_view name) const {
  for (const HistogramSample& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

double HistogramSample::quantile(double q) const {
  if (count == 0) return 0.0;
  // The extremes are tracked exactly; don't pay the bucket-width error there.
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Rank in (0, count]; the r-th smallest recorded value.
  const double rank = std::max(q * static_cast<double>(count), 1.0);
  const double per_octave = static_cast<double>(options.buckets_per_octave);
  std::uint64_t cumulative = 0;
  for (std::size_t k = 0; k < buckets.size(); ++k) {
    if (buckets[k] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += buckets[k];
    if (static_cast<double>(cumulative) >= rank) {
      // Linear interpolation inside the landing bucket. Bucket 0 also
      // catches values below `lowest`, so its lower edge is taken as 0.
      const double lo = k == 0 ? 0.0
                               : options.lowest * std::exp2(static_cast<double>(k) / per_octave);
      const double hi = options.lowest * std::exp2(static_cast<double>(k + 1) / per_octave);
      const double frac = (rank - before) / static_cast<double>(buckets[k]);
      return std::clamp(lo + (hi - lo) * frac, min, max);
    }
  }
  return max;
}

// --- exposition -------------------------------------------------------------

namespace {

void append_double(std::string& out, double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  out += buffer;
}

}  // namespace

std::string prometheus_text(const Snapshot& snapshot) {
  std::string out;
  for (const CounterSample& c : snapshot.counters) {
    out += "# TYPE " + c.name + " counter\n";
    out += c.name + " " + std::to_string(c.value) + "\n";
  }
  for (const GaugeSample& g : snapshot.gauges) {
    out += "# TYPE " + g.name + " gauge\n";
    out += g.name + " " + std::to_string(g.value) + "\n";
  }
  for (const HistogramSample& h : snapshot.histograms) {
    out += "# TYPE " + h.name + " summary\n";
    for (const double q : {0.5, 0.9, 0.99}) {
      out += h.name + "{quantile=\"";
      append_double(out, q);
      out += "\"} ";
      append_double(out, h.quantile(q));
      out += "\n";
    }
    out += h.name + "_sum ";
    append_double(out, h.sum);
    out += "\n";
    out += h.name + "_count " + std::to_string(h.count) + "\n";
    out += "# TYPE " + h.name + "_max gauge\n";
    out += h.name + "_max ";
    append_double(out, h.max);
    out += "\n";
  }
  return out;
}

}  // namespace rtdls::obs
