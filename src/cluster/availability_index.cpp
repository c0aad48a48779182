#include "cluster/availability_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

namespace rtdls::cluster {

static_assert(std::is_trivially_copyable_v<AvailabilityIndex::Entry>,
              "update_batch() repositions entries with memmove");

void AvailabilityIndex::reset(std::size_t nodes) {
  size_ = nodes;
  moved_.assign((nodes + 63) / 64, 0);
  times_.assign(nodes, 0.0);
  // Every node is free at 0: the partition at watermark 0 holds them all,
  // all released exactly at it, and the timeline is empty.
  watermark_ = 0.0;
  floored_.assign((nodes + 63) / 64, ~std::uint64_t{0});
  if (nodes % 64 != 0) floored_.back() = (std::uint64_t{1} << (nodes % 64)) - 1;
  floored_count_ = nodes;
  at_watermark_ = nodes;
  ++view_epoch_;
  order_.clear();
  mins_.clear();
  free_slots_.clear();
  for (std::size_t s = 0; s < slots_.size(); ++s) {
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

std::uint32_t AvailabilityIndex::acquire_slot() const {
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

  // 1. Check all k keys against the time column and find the entries of
  //    those past the watermark against the unchanged directory (a throw
  //    leaves the index as it was): their ids end up marked and their
  //    buckets tallied.
  locate_batch(nodes, from);
  ++view_epoch_;

  // 2. The time column and the partition: a floored key has no entry to
  //    compact out (its mark goes), a key that crosses the watermark flips
  //    its bit, and only the new times past the watermark join the timeline.
  batch_in_.clear();
  for (std::size_t i = 0; i < k; ++i) {
    const NodeId node = nodes[i];
    const bool was = from[i] <= watermark_;
    const bool is = to[i] <= watermark_;
    if (was) {
      set_bit(moved_, node, false);
      if (from[i] == watermark_) --at_watermark_;
    }
    if (!is) {
      batch_in_.push_back(Entry{to[i], node});
    } else if (to[i] == watermark_) {
      ++at_watermark_;
    }
    if (was != is) {
      set_bit(floored_, node, is);
      floored_count_ = is ? floored_count_ + 1 : floored_count_ - 1;
    }
    times_[node] = to[i];
  }
  const std::size_t incoming = batch_in_.size();
  if (incoming == 0 && batch_touched_.empty()) return 0;

  // 3. The new entries in order (plans usually arrive sorted already), cut
  //    into runs by destination bucket - still the unchanged directory: a
  //    run at or past bucket b's old minimum and before b + 1's stays
  //    ordered however the removals move those minima. An empty timeline
  //    starts with one empty bucket for them.
  if (!std::is_sorted(batch_in_.begin(), batch_in_.end(), less)) {
    std::sort(batch_in_.begin(), batch_in_.end(), less);
  }
  if (order_.empty() && incoming > 0) {
    order_.push_back(acquire_slot());
    mins_.push_back(batch_in_.front());
    if (batch_removed_.empty()) {
      batch_removed_.push_back(0);
      batch_first_.push_back(0);
    }
  }
  batch_runs_.clear();
  for (std::size_t begin = 0; begin < incoming;) {
    const std::size_t found = locate_bucket(batch_in_[begin]);
    const std::size_t b = found == kNpos ? 0 : found;
    std::size_t end = incoming;
    if (b + 1 < order_.size()) {
      end = begin + 1;
      while (end < incoming && less(batch_in_[end], mins_[b + 1])) ++end;
    }
    batch_runs_.push_back(Run{b, begin, end});
    begin = end;
  }

  // 4. Each touched bucket once, in directory order: compact out its moved
  //    entries, then merge in its run. A run that would overflow its bucket
  //    waits for the directory rebuild, which merges it straight into the
  //    split pieces (so no bucket's storage ever grows past what a split
  //    leaves). Every touched bucket is queued for step 5, with its run only
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

  // 5. The directory: rebuilt once when a bucket emptied or overflows, else
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
    const char* error = nullptr;
    if (key.node >= size_) {
      error = "AvailabilityIndex::update_batch: unknown node";
    } else if (bit(moved_, key.node)) {
      error = "AvailabilityIndex::update_batch: node repeated";
    } else if (times_[key.node] != key.free_at) {
      error = "AvailabilityIndex::update_batch: stale `from` (index desync)";
    } else if (key.free_at > watermark_) {
      // Keys often arrive in index order (a plan's earliest-free nodes): the
      // entry right after the previous key's is checked before searching.
      if (b != kNpos && at + 1 < slots_[order_[b]].size() &&
          same(slots_[order_[b]][at + 1], key)) {
        ++at;
      } else {
        b = find_entry(key, at);
      }
      if (b == kNpos) {
        error = "AvailabilityIndex::update_batch: entry not found (index desync)";
      } else if (batch_removed_[b]++ == 0) {
        batch_touched_.push_back(static_cast<std::uint32_t>(b));
        batch_first_[b] = static_cast<std::uint32_t>(at);
      } else {
        batch_first_[b] = std::min(batch_first_[b], static_cast<std::uint32_t>(at));
      }
    }
    if (error != nullptr) {
      for (const NodeId node : nodes.first(i)) set_bit(moved_, node, false);
      for (const std::uint32_t touched : batch_touched_) batch_removed_[touched] = 0;
      batch_touched_.clear();
      throw std::logic_error(error);
    }
    set_bit(moved_, key.node, true);
  }
}

std::size_t AvailabilityIndex::compact_bucket(std::size_t b) {
  std::uint32_t& removed = batch_removed_[b];
  if (removed == 0) return 0;
  std::vector<Entry>& bucket = slots_[order_[b]];
  std::size_t write = batch_first_[b];
  std::size_t read = write;
  for (std::uint32_t left = removed; left > 0; ++read) {
    const NodeId node = bucket[read].node;
    if (bit(moved_, node)) {
      set_bit(moved_, node, false);
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
  free_slots_.push_back(order_[left + 1]);
  order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(left) + 1);
  mins_.erase(mins_.begin() + static_cast<std::ptrdiff_t>(left) + 1);
}

bool AvailabilityIndex::frees_before(Time t) const {
  // Past the watermark: any floored node, else the timeline's first entry.
  // At it: a floored node released before it. Below it (or at a NaN) only
  // the time column can tell.
  if (t > watermark_) {
    return floored_count_ > 0 || (!mins_.empty() && mins_.front().free_at < t);
  }
  if (t == watermark_) return floored_count_ > at_watermark_;
  return !std::all_of(times_.begin(), times_.end(), [t](Time free_at) { return free_at >= t; });
}

void AvailabilityIndex::advance_floor(Time now) const {
  if (now == watermark_) return;
  ++view_epoch_;
  at_watermark_ = 0;
  if (now > watermark_) {
    // Forwards: the timeline's entries up to `now` join the partition -
    // whole buckets off the front, then the head of the first bucket that
    // reaches past it.
    std::size_t popped = 0;
    for (; popped < order_.size(); ++popped) {
      std::vector<Entry>& bucket = slots_[order_[popped]];
      std::size_t at = 0;
      for (; at < bucket.size() && bucket[at].free_at <= now; ++at) {
        set_bit(floored_, bucket[at].node, true);
        if (bucket[at].free_at == now) ++at_watermark_;
      }
      floored_count_ += at;
      if (at < bucket.size()) {
        bucket.erase(bucket.begin(), bucket.begin() + static_cast<std::ptrdiff_t>(at));
        mins_[popped] = bucket.front();
        break;
      }
      bucket.clear();
      free_slots_.push_back(order_[popped]);
    }
    order_.erase(order_.begin(), order_.begin() + static_cast<std::ptrdiff_t>(popped));
    mins_.erase(mins_.begin(), mins_.begin() + static_cast<std::ptrdiff_t>(popped));
  } else {
    // Backwards: the floored nodes released after `now` leave the partition
    // and go, sorted, in front of the timeline - they all precede its first
    // entry, which lies past the old watermark - as even pieces of at most
    // kTargetFanout.
    unfloored_.clear();
    for (std::size_t w = 0; w < floored_.size(); ++w) {
      for (std::uint64_t bits = floored_[w]; bits != 0; bits &= bits - 1) {
        const int low = std::countr_zero(bits);
        const auto node = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(low));
        const Time free_at = times_[node];
        if (free_at > now) {
          unfloored_.push_back(Entry{free_at, node});
          floored_[w] &= ~(std::uint64_t{1} << low);
        } else if (free_at == now) {
          ++at_watermark_;
        }
      }
    }
    const std::size_t m = unfloored_.size();
    floored_count_ -= m;
    std::sort(unfloored_.begin(), unfloored_.end(), less);
    const std::size_t pieces = (m + kTargetFanout - 1) / kTargetFanout;
    order_.insert(order_.begin(), pieces, 0);
    mins_.insert(mins_.begin(), pieces, Entry{});
    for (std::size_t p = 0; p < pieces; ++p) {
      const std::uint32_t slot = acquire_slot();
      std::vector<Entry>& piece = slots_[slot];
      piece.assign(unfloored_.begin() + static_cast<std::ptrdiff_t>(m * p / pieces),
                   unfloored_.begin() + static_cast<std::ptrdiff_t>(m * (p + 1) / pieces));
      order_[p] = slot;
      mins_[p] = piece.front();
    }
  }
  watermark_ = now;
}

void AvailabilityIndex::open_view(Time now, bool with_ids, ViewCursor& cursor) const {
  // A NaN watermark would leave every later partition wrong: no release
  // time compares to it.
  if (std::isnan(now)) throw std::invalid_argument("AvailabilityIndex::open_view: now is NaN");
  advance_floor(now);
  // Every timeline entry now lies past `now`: the row is the floored ids,
  // then the timeline from its first entry.
  cursor.epoch = view_epoch_;
  cursor.now = now;
  cursor.with_ids = with_ids;
  cursor.next = 0;
  cursor.floored = floored_count_;
  cursor.word = 0;
  cursor.bits = floored_.empty() ? 0 : floored_[0];
  cursor.bucket = 0;
  cursor.at = 0;
}

void AvailabilityIndex::read_view(ViewCursor& cursor, std::size_t last, Time* times,
                                  NodeId* ids) const {
  if (cursor.epoch != view_epoch_) {
    throw std::logic_error("AvailabilityIndex::read_view: the index changed under the view");
  }
  if (last > size_) throw std::out_of_range("AvailabilityIndex::read_view: past the row");
  if (!cursor.with_ids) ids = nullptr;
  std::size_t i = cursor.next;
  // The floored prefix: every time is `now`, the ids ascend off the
  // partition word by word.
  const std::size_t floor_end = std::min(last, cursor.floored);
  if (i < floor_end) {
    const std::size_t count = floor_end - i;
    if (times != nullptr) {
      std::fill(times, times + count, cursor.now);
      times += count;
    }
    if (ids != nullptr) {
      for (std::size_t j = 0; j < count; ++j) {
        while (cursor.bits == 0) cursor.bits = floored_[++cursor.word];
        ids[j] = static_cast<NodeId>(cursor.word * 64 +
                                     static_cast<std::size_t>(std::countr_zero(cursor.bits)));
        cursor.bits &= cursor.bits - 1;
      }
      ids += count;
    }
    i = floor_end;
  }
  // Past the floor the index order is the row order.
  while (i < last) {
    const std::vector<Entry>& bucket = slots_[order_[cursor.bucket]];
    const std::size_t count = std::min(bucket.size() - cursor.at, last - i);
    const Entry* entry = bucket.data() + cursor.at;
    if (times != nullptr) {
      for (std::size_t j = 0; j < count; ++j) times[j] = entry[j].free_at;
      times += count;
    }
    if (ids != nullptr) {
      for (std::size_t j = 0; j < count; ++j) ids[j] = entry[j].node;
      ids += count;
    }
    cursor.at += count;
    i += count;
    if (cursor.at == bucket.size()) {
      ++cursor.bucket;
      cursor.at = 0;
    }
  }
  cursor.next = std::max(cursor.next, last);
}

void AvailabilityIndex::availability_into(Time now, std::vector<Time>& out) const {
  ViewCursor cursor;
  open_view(now, /*with_ids=*/false, cursor);
  out.resize(size_);
  read_view(cursor, size_, out.data(), nullptr);
}

void AvailabilityIndex::availability_with_ids_into(Time now, std::vector<Time>& times,
                                                   std::vector<NodeId>& ids) const {
  ViewCursor cursor;
  open_view(now, /*with_ids=*/true, cursor);
  times.resize(size_);
  ids.resize(size_);
  read_view(cursor, size_, times.data(), ids.data());
}

void AvailabilityIndex::earliest_free_nodes_into(Time now, std::size_t n,
                                                 std::vector<NodeId>& out) const {
  if (n > size_) {
    throw std::invalid_argument("AvailabilityIndex::earliest_free_nodes: n exceeds size");
  }
  ViewCursor cursor;
  open_view(now, /*with_ids=*/true, cursor);
  out.resize(n);
  read_view(cursor, n, nullptr, out.data());
}

bool AvailabilityIndex::consistent_with(const std::vector<Time>& free_times) const {
  if (size_ != free_times.size() || times_ != free_times || mins_.size() != order_.size()) {
    return false;
  }
  std::vector<bool> seen(size_, false);
  const Entry* prev = nullptr;
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
    for (const Entry& entry : bucket) {
      if (entry.node >= size_ || seen[entry.node]) return false;
      seen[entry.node] = true;
      if (entry.free_at != free_times[entry.node] || !(entry.free_at > watermark_)) {
        return false;
      }
      if (prev != nullptr && !less(*prev, entry)) return false;
      prev = &entry;
    }
  }
  for (const std::uint32_t slot : free_slots_) {
    if (slot >= slots_.size() || slot_used[slot]) return false;
    slot_used[slot] = true;
  }
  // The floored partition: exactly the nodes free by the watermark, each
  // with no timeline entry, counted (popcount also rules out stray bits
  // past size_), those at the watermark counted too, and no moved marks
  // left over from a batch.
  if (floored_.size() != (size_ + 63) / 64 || moved_.size() != floored_.size()) return false;
  std::size_t floored = 0;
  std::size_t at_watermark = 0;
  for (NodeId id = 0; id < size_; ++id) {
    const bool in = free_times[id] <= watermark_;
    if (in != bit(floored_, id) || in == seen[id] || bit(moved_, id)) return false;
    floored += in ? 1 : 0;
    at_watermark += in && free_times[id] == watermark_ ? 1 : 0;
  }
  std::size_t set = 0;
  for (const std::uint64_t word : floored_) set += static_cast<std::size_t>(std::popcount(word));
  return floored == floored_count_ && set == floored_count_ && at_watermark == at_watermark_;
}

}  // namespace rtdls::cluster
