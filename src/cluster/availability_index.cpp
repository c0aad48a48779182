#include "cluster/availability_index.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <type_traits>

namespace rtdls::cluster {

static_assert(std::is_trivially_copyable_v<AvailabilityIndex::Entry>,
              "update() repositions entries with memmove");

void AvailabilityIndex::reset(std::size_t nodes) {
  size_ = nodes;
  prefix_valid_ = false;
  floored_marks_.assign((nodes + 63) / 64, 0);
  order_.clear();
  mins_.clear();
  free_slots_.clear();
  const std::size_t buckets = nodes == 0 ? 0 : (nodes + kTargetFanout - 1) / kTargetFanout;
  if (slots_.size() < buckets) slots_.resize(buckets);
  std::size_t next = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    std::vector<Entry>& bucket = slots_[b];
    bucket.clear();
    const std::size_t count = std::min(kTargetFanout, nodes - next);
    for (std::size_t j = 0; j < count; ++j) {
      bucket.push_back(Entry{0.0, static_cast<NodeId>(next++)});
    }
    order_.push_back(static_cast<std::uint32_t>(b));
    mins_.push_back(bucket.front());
  }
  for (std::size_t s = buckets; s < slots_.size(); ++s) {
    slots_[s].clear();
    free_slots_.push_back(static_cast<std::uint32_t>(s));
  }
}

std::size_t AvailabilityIndex::locate_bucket(const Entry& key) const {
  // First bucket whose min is > key, minus one: the only bucket that can
  // contain key, since bucket boundaries preserve the global order.
  const auto it = std::upper_bound(mins_.begin(), mins_.end(), key, less);
  if (it == mins_.begin()) return kNpos;
  return static_cast<std::size_t>(it - mins_.begin()) - 1;
}

std::size_t AvailabilityIndex::update(NodeId node, Time from, Time to) {
  const Entry key{from, node};
  const std::size_t bi = locate_bucket(key);
  if (bi == kNpos) {
    throw std::logic_error("AvailabilityIndex::update: entry not found (index desync)");
  }
  std::vector<Entry>& src = slots_[order_[bi]];
  const auto it = std::lower_bound(src.begin(), src.end(), key, less);
  if (it == src.end() || it->node != node || it->free_at != from) {
    throw std::logic_error("AvailabilityIndex::update: entry not found (index desync)");
  }
  if (to == from) {
    it->free_at = to;
    return 0;
  }

  const Entry moved{to, node};
  // In-bucket fast path: the moved entry stays between the surrounding
  // buckets, so only a bucket-local shift is needed and the bucket geometry
  // is untouched. Moving up that means staying below the next bucket's min;
  // moving down, staying above the previous bucket's maximum (it may pass
  // this bucket's min and become the new one). A single bucket has neither
  // neighbor, so every move in it takes this path.
  const bool below_next = bi + 1 == order_.size() || less(moved, mins_[bi + 1]);
  const bool above_prev = bi == 0 || !less(moved, mins_[bi]) ||
                          less(slots_[order_[bi - 1]].back(), moved);
  if (below_next && above_prev) {
    std::size_t depth = 0;
    if (to > from) {
      const auto dest = std::lower_bound(it + 1, src.end(), moved, less);
      depth = static_cast<std::size_t>(dest - it - 1);
      std::memmove(&*it, &*it + 1, depth * sizeof(Entry));
      *(dest - 1) = moved;
    } else {
      const auto dest = std::lower_bound(src.begin(), it, moved, less);
      depth = static_cast<std::size_t>(it - dest);
      std::memmove(&*dest + 1, &*dest, depth * sizeof(Entry));
      *dest = moved;
    }
    mins_[bi] = src.front();
    // Entry counts per bucket are unchanged, so the prefix sums survive.
    return depth;
  }

  // Cross-bucket move: erase here, reinsert at the ordered position.
  const std::size_t erase_shift = static_cast<std::size_t>(src.end() - it) - 1;
  std::memmove(&*it, &*it + 1, erase_shift * sizeof(Entry));
  src.pop_back();
  prefix_valid_ = false;
  if (src.empty()) {
    drop_bucket(bi);
  } else {
    mins_[bi] = src.front();
    maybe_merge(bi);
  }
  return erase_shift + insert_bucket_entry(moved);
}

std::size_t AvailabilityIndex::insert_bucket_entry(const Entry& moved) {
  std::size_t bj = locate_bucket(moved);
  if (bj == kNpos) bj = 0;  // new global minimum: prepend into the first bucket
  std::vector<Entry>& dst = slots_[order_[bj]];
  const auto pos = std::lower_bound(dst.begin(), dst.end(), moved, less);
  const std::size_t shift = static_cast<std::size_t>(dst.end() - pos);
  dst.push_back(moved);  // grow, then shift the tail right into the new slot
  std::memmove(&dst[dst.size() - 1 - shift] + 1, &dst[dst.size() - 1 - shift],
               shift * sizeof(Entry));
  dst[dst.size() - 1 - shift] = moved;
  mins_[bj] = dst.front();
  if (dst.size() > kMaxFanout) split_bucket(bj);
  return shift;
}

void AvailabilityIndex::split_bucket(std::size_t b) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();  // may move slots_; take references only after
  }
  std::vector<Entry>& lo = slots_[order_[b]];
  std::vector<Entry>& hi = slots_[slot];
  const std::size_t half = lo.size() / 2;
  hi.assign(lo.begin() + static_cast<std::ptrdiff_t>(half), lo.end());
  lo.resize(half);
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(b) + 1, slot);
  mins_.insert(mins_.begin() + static_cast<std::ptrdiff_t>(b) + 1, hi.front());
}

void AvailabilityIndex::drop_bucket(std::size_t b) {
  free_slots_.push_back(order_[b]);
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(b));
  mins_.erase(mins_.begin() + static_cast<std::ptrdiff_t>(b));
}

void AvailabilityIndex::maybe_merge(std::size_t b) {
  if (slots_[order_[b]].size() >= kMinFanout || order_.size() < 2) return;
  // Merge right (so the directory erase stays a single shift); the last
  // bucket merges left instead by retargeting the call.
  const std::size_t left = b + 1 < order_.size() ? b : b - 1;
  std::vector<Entry>& into = slots_[order_[left]];
  std::vector<Entry>& from = slots_[order_[left + 1]];
  if (into.size() + from.size() > kMergeMax) return;
  into.insert(into.end(), from.begin(), from.end());
  from.clear();
  drop_bucket(left + 1);
}

void AvailabilityIndex::ensure_prefix() const {
  if (prefix_valid_) return;
  prefix_.resize(order_.size() + 1);
  prefix_[0] = 0;
  for (std::size_t b = 0; b < order_.size(); ++b) {
    prefix_[b + 1] = prefix_[b] + slots_[order_[b]].size();
  }
  prefix_valid_ = true;
}

std::size_t AvailabilityIndex::available_by(Time t) const {
  // Last bucket whose min free_at is <= t: everything before it is <= t in
  // (free_at, node) order, everything after it starts past t.
  const auto it = std::upper_bound(
      mins_.begin(), mins_.end(), t,
      [](Time value, const Entry& entry) { return value < entry.free_at; });
  if (it == mins_.begin()) return 0;
  const std::size_t b = static_cast<std::size_t>(it - mins_.begin()) - 1;
  ensure_prefix();
  const std::vector<Entry>& bucket = slots_[order_[b]];
  const auto jt = std::upper_bound(
      bucket.begin(), bucket.end(), t,
      [](Time value, const Entry& entry) { return value < entry.free_at; });
  return prefix_[b] + static_cast<std::size_t>(jt - bucket.begin());
}

Time AvailabilityIndex::kth_free_time(std::size_t k) const {
  if (k >= size_) {
    throw std::invalid_argument("AvailabilityIndex::kth_free_time: k out of range");
  }
  ensure_prefix();
  // Bucket containing rank k: last prefix <= k.
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), k);
  const std::size_t b = static_cast<std::size_t>(it - prefix_.begin()) - 1;
  return slots_[order_[b]][k - prefix_[b]].free_at;
}

void AvailabilityIndex::availability_into(Time now, std::vector<Time>& out) const {
  const std::size_t floored = available_by(now);
  out.resize(size_);
  std::fill(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(floored), now);
  // Start at the bucket containing the first unfloored rank; the floored
  // prefix was already filled without touching its entries.
  ensure_prefix();
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), floored);
  std::size_t b = static_cast<std::size_t>(it - prefix_.begin()) - 1;
  std::size_t i = floored;
  for (; b < order_.size(); ++b) {
    const std::vector<Entry>& bucket = slots_[order_[b]];
    for (std::size_t j = i - prefix_[b]; j < bucket.size(); ++j) {
      out[i++] = bucket[j].free_at;
    }
  }
}

void AvailabilityIndex::availability_with_ids_into(Time now, std::vector<Time>& times,
                                                   std::vector<NodeId>& ids) const {
  const std::size_t floored = available_by(now);
  times.resize(size_);
  ids.resize(size_);
  std::fill(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(floored), now);
  // The floored prefix all ties at `now`, so its (floored time, id) order is
  // plain id order: mark its ids here and read them back ascending below.
  std::size_t rank = 0;
  for (std::size_t b = 0; b < order_.size(); ++b) {
    for (const Entry& entry : slots_[order_[b]]) {
      if (rank < floored) {
        floored_marks_[entry.node / 64] |= std::uint64_t{1} << (entry.node % 64);
      } else {
        ids[rank] = entry.node;
        times[rank] = entry.free_at;
      }
      ++rank;
    }
  }
  // Read back and clear: O(N / 64 + floored).
  std::size_t i = 0;
  for (std::size_t w = 0; i < floored; ++w) {
    std::uint64_t word = floored_marks_[w];
    floored_marks_[w] = 0;
    for (; word != 0; word &= word - 1) {
      ids[i++] = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
}

void AvailabilityIndex::earliest_free_nodes_into(Time now, std::size_t n,
                                                 std::vector<NodeId>& out) const {
  if (n > size_) {
    throw std::invalid_argument("AvailabilityIndex::earliest_free_nodes: n exceeds size");
  }
  const std::size_t floored = available_by(now);
  const std::size_t take = std::min(n, floored);
  out.resize(floored);
  for (std::size_t b = 0, i = 0; b < order_.size() && i < floored; ++b) {
    const std::vector<Entry>& bucket = slots_[order_[b]];
    for (std::size_t j = 0; j < bucket.size() && i < floored; ++j) {
      out[i++] = bucket[j].node;
    }
  }
  // All floored nodes tie at `now`, so only their n smallest ids are needed.
  if (take < floored) {
    std::nth_element(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(take), out.end());
  }
  std::sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(take));
  out.resize(take);
  // Past the floor the index order (free_at, then id) is the answer order.
  if (out.size() >= n) return;
  ensure_prefix();
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), floored);
  std::size_t b = static_cast<std::size_t>(it - prefix_.begin()) - 1;
  std::size_t i = floored;
  for (; b < order_.size() && out.size() < n; ++b) {
    const std::vector<Entry>& bucket = slots_[order_[b]];
    for (std::size_t j = i - prefix_[b]; j < bucket.size() && out.size() < n; ++j) {
      out.push_back(bucket[j].node);
      ++i;
    }
  }
}

bool AvailabilityIndex::consistent_with(const std::vector<Time>& free_times) const {
  if (size_ != free_times.size()) return false;
  std::vector<bool> seen(free_times.size(), false);
  const Entry* prev = nullptr;
  std::size_t total = 0;
  std::vector<bool> slot_used(slots_.size(), false);
  for (std::size_t b = 0; b < order_.size(); ++b) {
    const std::uint32_t slot = order_[b];
    if (slot >= slots_.size() || slot_used[slot]) return false;
    slot_used[slot] = true;
    const std::vector<Entry>& bucket = slots_[slot];
    if (bucket.empty()) return false;
    if (bucket[0].free_at != mins_[b].free_at || bucket[0].node != mins_[b].node) {
      return false;
    }
    total += bucket.size();
    for (const Entry& entry : bucket) {
      if (entry.node >= free_times.size() || seen[entry.node]) return false;
      seen[entry.node] = true;
      if (entry.free_at != free_times[entry.node]) return false;
      if (prev != nullptr && !less(*prev, entry)) return false;
      prev = &entry;
    }
  }
  if (total != size_ || mins_.size() != order_.size()) return false;
  for (const std::uint32_t slot : free_slots_) {
    if (slot >= slots_.size() || slot_used[slot]) return false;
    slot_used[slot] = true;
  }
  if (prefix_valid_) {
    if (prefix_.size() != order_.size() + 1 || prefix_[0] != 0) return false;
    for (std::size_t b = 0; b < order_.size(); ++b) {
      if (prefix_[b + 1] != prefix_[b] + slots_[order_[b]].size()) return false;
    }
  }
  return true;
}

}  // namespace rtdls::cluster
