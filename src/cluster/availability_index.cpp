#include "cluster/availability_index.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <type_traits>

namespace rtdls::cluster {

static_assert(std::is_trivially_copyable_v<AvailabilityIndex::Entry>,
              "update_batch() repositions entries with memmove");

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

std::size_t AvailabilityIndex::find_entry(const Entry& key, std::size_t& at) const {
  const std::size_t b = locate_bucket(key);
  if (b == kNpos) return kNpos;
  const std::vector<Entry>& bucket = slots_[order_[b]];
  const auto it = std::lower_bound(bucket.begin(), bucket.end(), key, less);
  if (it == bucket.end() || !same(*it, key)) {
    return kNpos;
  }
  at = static_cast<std::size_t>(it - bucket.begin());
  return b;
}

std::uint32_t AvailabilityIndex::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

std::size_t AvailabilityIndex::update_batch(std::span<const NodeId> nodes,
                                           std::span<const Time> from,
                                           std::span<const Time> to) {
  const std::size_t k = nodes.size();
  if (from.size() != k || to.size() != k) {
    throw std::invalid_argument("AvailabilityIndex::update_batch: column sizes differ");
  }
  if (k == 0) return 0;

  // 1. Find all k entries against the unchanged directory (a throw leaves
  //    the index as it was): their ids end up marked and their buckets
  //    tallied.
  locate_batch(nodes, from);

  // 2. The new entries in order (plans usually arrive sorted already), cut
  //    into runs by destination bucket - still the unchanged directory: a
  //    run at or past bucket b's old minimum and before b + 1's stays
  //    ordered however the removals move those minima.
  batch_in_.resize(k);
  for (std::size_t i = 0; i < k; ++i) batch_in_[i] = Entry{to[i], nodes[i]};
  if (!std::is_sorted(batch_in_.begin(), batch_in_.end(), less)) {
    std::sort(batch_in_.begin(), batch_in_.end(), less);
  }
  batch_runs_.clear();
  for (std::size_t begin = 0; begin < k;) {
    const std::size_t found = locate_bucket(batch_in_[begin]);
    const std::size_t b = found == kNpos ? 0 : found;
    std::size_t end = k;
    if (b + 1 < order_.size()) {
      end = begin + 1;
      while (end < k && less(batch_in_[end], mins_[b + 1])) ++end;
    }
    batch_runs_.push_back(Run{b, begin, end});
    begin = end;
  }

  // 3. Each touched bucket once, in directory order: compact out its moved
  //    entries, then merge in its run. A run that would overflow its bucket
  //    waits for the directory rebuild, which merges it straight into the
  //    split pieces (so no bucket's storage ever grows past what a split
  //    leaves). Every touched bucket is queued for step 4, with its run only
  //    if deferred.
  for (const Run& run : batch_runs_) {
    if (batch_removed_[run.bucket] == 0) {
      batch_touched_.push_back(static_cast<std::uint32_t>(run.bucket));
    }
  }
  if (!std::is_sorted(batch_touched_.begin(), batch_touched_.end())) {
    std::sort(batch_touched_.begin(), batch_touched_.end());
  }
  std::size_t shifted = 0;
  bool reshape = false;
  batch_pending_.clear();
  auto run = batch_runs_.begin();
  for (const std::uint32_t b : batch_touched_) {
    const bool has_run = run != batch_runs_.end() && run->bucket == b;
    const std::size_t count = has_run ? run->end - run->begin : 0;
    if (batch_removed_[b] != count) prefix_valid_ = false;
    shifted += compact_bucket(b);
    const std::size_t size = slots_[order_[b]].size();
    if (!has_run) {
      reshape = reshape || size == 0;
      batch_pending_.push_back(Run{b, 0, 0});
    } else if (size + count > kMaxFanout) {
      reshape = true;
      batch_pending_.push_back(*run++);
    } else {
      shifted += merge_into_bucket(b, run->begin, run->end);
      batch_pending_.push_back(Run{b, run->end, run->end});
      ++run;
    }
  }
  batch_touched_.clear();

  // 4. The directory: rebuilt once when a bucket emptied or overflows, else
  //    only the touched minima change. Then each touched bucket gets the
  //    fold rule, last first so that the positions still to visit stay put.
  if (reshape) {
    shifted += rebuild_directory();
  } else {
    for (const Run& pending : batch_pending_) {
      mins_[pending.bucket] = slots_[order_[pending.bucket]].front();
    }
  }
  for (auto it = batch_pending_.rbegin(); it != batch_pending_.rend(); ++it) {
    if (it->bucket != kNpos) maybe_merge(it->bucket);
  }
  return shifted;
}

void AvailabilityIndex::locate_batch(std::span<const NodeId> nodes,
                                     std::span<const Time> from) {
  if (batch_removed_.size() < order_.size()) {
    batch_removed_.resize(order_.size());
    batch_first_.resize(order_.size());
  }
  std::size_t b = kNpos;
  std::size_t at = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Entry key{from[i], nodes[i]};
    const bool repeated = key.node < size_ && marked(key.node);
    // Keys often arrive in index order (a plan's earliest-free nodes): the
    // entry right after the previous key's is checked before searching.
    const bool next = b != kNpos && at + 1 < slots_[order_[b]].size() &&
                      same(slots_[order_[b]][at + 1], key);
    if (next) {
      ++at;
    } else if (!repeated) {
      b = find_entry(key, at);
    }
    if (repeated || b == kNpos) {
      set_marks(nodes.first(i), false);
      for (const std::uint32_t touched : batch_touched_) batch_removed_[touched] = 0;
      batch_touched_.clear();
      throw std::logic_error(
          repeated ? "AvailabilityIndex::update_batch: node repeated"
                   : "AvailabilityIndex::update_batch: entry not found (index desync)");
    }
    set_mark(key.node, true);
    const auto pos = static_cast<std::uint32_t>(at);
    if (batch_removed_[b]++ == 0) {
      batch_touched_.push_back(static_cast<std::uint32_t>(b));
      batch_first_[b] = pos;
    } else {
      batch_first_[b] = std::min(batch_first_[b], pos);
    }
  }
}

void AvailabilityIndex::set_marks(std::span<const NodeId> nodes, bool on) const {
  for (const NodeId node : nodes) set_mark(node, on);
}

std::size_t AvailabilityIndex::compact_bucket(std::size_t b) {
  std::uint32_t& removed = batch_removed_[b];
  if (removed == 0) return 0;
  std::vector<Entry>& bucket = slots_[order_[b]];
  std::size_t write = batch_first_[b];
  std::size_t read = write;
  for (std::uint32_t left = removed; left > 0; ++read) {
    const NodeId node = bucket[read].node;
    if (marked(node)) {
      set_mark(node, false);
      --left;
    } else {
      bucket[write++] = bucket[read];
    }
  }
  // Past the last moved entry the rest shifts down in one block.
  const std::size_t tail = bucket.size() - read;
  std::memmove(bucket.data() + write, bucket.data() + read, tail * sizeof(Entry));
  const std::size_t kept_after_first = write - batch_first_[b] + tail;
  bucket.resize(write + tail);
  removed = 0;
  return kept_after_first;
}

std::size_t AvailabilityIndex::merge_into_bucket(std::size_t b, std::size_t begin,
                                                 std::size_t end) {
  std::vector<Entry>& bucket = slots_[order_[b]];
  std::size_t kept = bucket.size();  // entries [0, kept) not yet placed
  bucket.resize(kept + (end - begin));
  // Back to front: each new entry goes after the entries below it, and the
  // block above it moves up by the new entries still to come plus one. A
  // new entry past every kept one (a run appended at the end) costs O(1).
  for (std::size_t j = end; j-- > begin;) {
    const Entry& moved = batch_in_[j];
    std::size_t pos = kept;
    if (pos > 0 && less(moved, bucket[pos - 1])) {
      const auto below = bucket.begin() + static_cast<std::ptrdiff_t>(pos - 1);
      const auto at = std::lower_bound(bucket.begin(), below, moved, less);
      pos = static_cast<std::size_t>(at - bucket.begin());
    }
    const std::size_t gap = j - begin;
    std::memmove(bucket.data() + pos + gap + 1, bucket.data() + pos,
                 (kept - pos) * sizeof(Entry));
    bucket[pos + gap] = moved;
    kept = pos;
  }
  return bucket.size() - (end - begin) - kept;
}

std::size_t AvailabilityIndex::rebuild_directory() {
  // Into scratch, then swapped in: the spans between pending positions are
  // copied as they are, an emptied bucket's slot is recycled, and a
  // deferred run is merged with its bucket into split pieces. Each pending
  // position is rewritten to its bucket's new one, or npos when it split or
  // emptied.
  batch_order_.clear();
  batch_mins_.clear();
  std::size_t copied = 0;  // old positions [0, copied) are placed
  const auto copy_to = [&](std::size_t end) {
    const auto first = static_cast<std::ptrdiff_t>(copied);
    const auto last = static_cast<std::ptrdiff_t>(end);
    batch_order_.insert(batch_order_.end(), order_.begin() + first, order_.begin() + last);
    batch_mins_.insert(batch_mins_.end(), mins_.begin() + first, mins_.begin() + last);
  };
  std::size_t shifted = 0;
  for (Run& pending : batch_pending_) {
    copy_to(pending.bucket);
    const std::uint32_t slot = order_[pending.bucket];
    copied = pending.bucket + 1;
    pending.bucket = kNpos;
    if (pending.begin != pending.end) {
      shifted += split_merged(slot, pending.begin, pending.end);
    } else if (slots_[slot].empty()) {
      free_slots_.push_back(slot);
    } else {
      pending.bucket = batch_order_.size();
      batch_order_.push_back(slot);
      batch_mins_.push_back(slots_[slot].front());
    }
  }
  copy_to(order_.size());
  order_.swap(batch_order_);
  mins_.swap(batch_mins_);
  prefix_valid_ = false;
  return shifted;
}

std::size_t AvailabilityIndex::split_merged(std::uint32_t slot, std::size_t begin,
                                            std::size_t end) {
  // The bucket's entries merged with the run batch_in_[begin, end), written
  // piece by piece: as many pieces as it takes to hold at most
  // kTargetFanout each, sized evenly (so each also stays above
  // kMinFanout). The first piece reuses the bucket's slot.
  batch_merge_.assign(slots_[slot].begin(), slots_[slot].end());
  const std::size_t kept = batch_merge_.size();
  const std::size_t total = kept + (end - begin);
  const std::size_t pieces = (total + kTargetFanout - 1) / kTargetFanout;
  std::size_t i = 0;      // next kept entry
  std::size_t j = begin;  // next run entry
  std::size_t shifted = 0;
  for (std::size_t p = 0; p < pieces; ++p) {
    const std::uint32_t piece_slot = p == 0 ? slot : acquire_slot();  // may move slots_
    std::vector<Entry>& piece = slots_[piece_slot];
    piece.clear();
    for (std::size_t n = total * (p + 1) / pieces - total * p / pieces; n > 0; --n) {
      if (j < end && (i == kept || less(batch_in_[j], batch_merge_[i]))) {
        piece.push_back(batch_in_[j++]);
      } else {
        if (j > begin) ++shifted;  // a kept entry behind a new one moved
        piece.push_back(batch_merge_[i++]);
      }
    }
    batch_order_.push_back(piece_slot);
    batch_mins_.push_back(piece.front());
  }
  return shifted;
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
  // A batch whose buckets each kept their size left the prefix sums valid,
  // but a neighbor that shrank since this bucket last tried may fit now.
  prefix_valid_ = false;
  free_slots_.push_back(order_[left + 1]);
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(left) + 1);
  mins_.erase(mins_.begin() + static_cast<std::ptrdiff_t>(left) + 1);
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
        set_mark(entry.node, true);
      } else {
        ids[rank] = entry.node;
        times[rank] = entry.free_at;
      }
      ++rank;
    }
  }
  take_marks(floored, floored, ids.data());
}

void AvailabilityIndex::take_marks(std::size_t marked, std::size_t take,
                                   NodeId* out) const {
  // Word by word in id order, each cleared as it is read, up to the word
  // holding the last mark.
  std::size_t i = 0;
  for (std::size_t w = 0; i < marked; ++w) {
    std::uint64_t word = floored_marks_[w];
    floored_marks_[w] = 0;
    for (; word != 0; word &= word - 1, ++i) {
      if (i < take) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(word));
        out[i] = static_cast<NodeId>(w * 64 + bit);
      }
    }
  }
}

void AvailabilityIndex::earliest_free_nodes_into(Time now, std::size_t n,
                                                 std::vector<NodeId>& out) const {
  if (n > size_) {
    throw std::invalid_argument("AvailabilityIndex::earliest_free_nodes: n exceeds size");
  }
  const std::size_t floored = available_by(now);
  // The floored prefix all ties at `now`: its ids are marked and its n
  // smallest read back. Past the floor the index order (free_at, then id)
  // is the answer order, so those ids land at their rank.
  out.resize(n);
  const std::size_t end = std::max(n, floored);
  std::size_t rank = 0;
  for (std::size_t b = 0; rank < end; ++b) {
    const std::vector<Entry>& bucket = slots_[order_[b]];
    for (std::size_t j = 0; j < bucket.size() && rank < end; ++j, ++rank) {
      if (rank < floored) {
        set_mark(bucket[j].node, true);
      } else {
        out[rank] = bucket[j].node;
      }
    }
  }
  take_marks(floored, std::min(n, floored), out.data());
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
    if (bucket.empty() || bucket.size() > kMaxFanout) return false;
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
