// A deterministic discrete-event queue.
//
// Ordering is total and reproducible: (time, priority, insertion sequence).
// Priorities resolve same-instant races by event *kind* (e.g. a task
// commitment at time t must be observed by an arrival at the same t), and
// the insertion sequence makes equal-(time, priority) events FIFO.
//
// The heap is kept in a plain vector (std::push_heap/std::pop_heap) instead
// of std::priority_queue so clear() can drop all events while keeping the
// allocation - the simulator reuses one queue across back-to-back runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/types.hpp"

namespace rtdls::sim {

using cluster::Time;

/// Event-kind priorities at equal timestamps; lower runs first.
enum class EventPriority : int {
  kCommit = 0,   ///< resource commitments happen "just before" arrivals
  kArrival = 1,
  kReport = 2,   ///< bookkeeping after the interesting work at an instant
};

/// One queued event. `Payload` is caller-defined (the simulator queues
/// versioned commit events).
template <typename Payload>
struct Event {
  Time time = 0.0;
  EventPriority priority = EventPriority::kArrival;
  std::uint64_t seq = 0;  ///< assigned by the queue
  Payload payload;
};

/// Min-queue over Event<Payload>.
template <typename Payload>
class EventQueue {
 public:
  /// Inserts an event; returns its sequence number.
  std::uint64_t push(Time time, EventPriority priority, Payload payload) {
    Event<Payload> event;
    event.time = time;
    event.priority = priority;
    const std::uint64_t seq = next_seq_++;
    event.seq = seq;
    event.payload = std::move(payload);
    heap_.push_back(std::move(event));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return seq;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// The earliest event (undefined when empty).
  const Event<Payload>& top() const { return heap_.front(); }

  /// Removes and returns the earliest event.
  Event<Payload> pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event<Payload> event = std::move(heap_.back());
    heap_.pop_back();
    return event;
  }

  /// Drops every queued event and restarts the sequence numbering; the
  /// backing storage keeps its capacity (run-to-run reuse).
  void clear() {
    heap_.clear();
    next_seq_ = 0;
  }

  /// Pre-grows the heap storage to hold `events` without reallocating.
  /// The streamed replay loop calls this once per run so chunked arrival
  /// refills never grow the heap mid-chunk (and across back-to-back sweep
  /// cells the first run's high-water capacity is simply kept by clear()).
  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Current storage capacity in events (tests pin the recycling contract).
  std::size_t capacity() const { return heap_.capacity(); }

 private:
  struct Later {
    bool operator()(const Event<Payload>& a, const Event<Payload>& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  std::vector<Event<Payload>> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace rtdls::sim
