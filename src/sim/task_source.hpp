// Arrival sources for the simulator.
//
// The simulator only ever needs the *next* arrival (the trace is sorted),
// so it consumes tasks through this cursor interface instead of a
// materialized vector. Two implementations:
//
//  * VectorTaskSource - adapts the classic in-memory trace; run() wraps
//    every call in one of these, so the vector path is the streamed path
//    with a trivial source.
//
//  * StreamingTaskSource - pulls bounded-size chunks from a
//    workload::TraceReader, so a multi-million-task CSV replays at O(chunk)
//    peak RSS. Lifetime is the subtle part: the simulator (its driver's
//    waiting queue, the admission session) holds `const Task*` pointers
//    into the chunks, so a chunk may only be recycled once every task it
//    contains has retired. The source refcounts admissions per chunk
//    (admitted/retired callbacks from the simulator) and retires fully
//    drained front chunks into a recycled-vector pool - steady-state
//    streaming allocates nothing once chunk capacity has been grown.
//
// Contract for every source:
//  * peek() returns the next arrival (or nullptr at end of trace); the
//    pointer stays stable until the pop() that consumes it, and - when the
//    loop admits the task and announces it via on_task_admitted - until the
//    matching on_task_retired;
//  * pop() consumes the peeked task; peek()/pop() never invalidate
//    pointers of previously admitted, not-yet-retired tasks;
//  * arrivals must be non-decreasing (the simulator enforces this on the fly,
//    since a streamed trace cannot be pre-checked).
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "workload/task.hpp"
#include "workload/trace.hpp"

namespace rtdls::sim {

class TaskSource {
 public:
  virtual ~TaskSource() = default;

  /// Next task in arrival order, or nullptr once the trace is exhausted.
  virtual const workload::Task* peek() = 0;

  /// Consumes the task last returned by peek().
  virtual void pop() = 0;

  /// The simulator admitted `task`: its pointer must stay valid until the
  /// matching on_task_retired. (Rejected tasks are simply popped.)
  virtual void on_task_admitted(const workload::Task* task);

  /// The admitted `task` committed and left the waiting queue for good; its
  /// storage may be reclaimed.
  virtual void on_task_retired(const workload::Task* task);
};

/// The whole trace is already in memory; peek/pop walk it.
class VectorTaskSource final : public TaskSource {
 public:
  /// `tasks` must outlive the source.
  explicit VectorTaskSource(const std::vector<workload::Task>& tasks) : tasks_(&tasks) {}

  const workload::Task* peek() override {
    return next_ < tasks_->size() ? &(*tasks_)[next_] : nullptr;
  }
  void pop() override { ++next_; }

 private:
  const std::vector<workload::Task>* tasks_;
  std::size_t next_ = 0;
};

/// Chunked arrivals from a TraceReader (see the file comment for the
/// lifetime contract).
class StreamingTaskSource final : public TaskSource {
 public:
  /// `reader` must outlive the source.
  explicit StreamingTaskSource(workload::TraceReader& reader) : reader_(&reader) {}

  const workload::Task* peek() override;
  void pop() override;
  void on_task_admitted(const workload::Task* task) override;
  void on_task_retired(const workload::Task* task) override;

  /// Peak number of simultaneously resident tasks across all live chunks -
  /// the bounded-memory claim's direct observable (reported by
  /// bench/replay_storm).
  std::size_t peak_resident_tasks() const { return peak_resident_; }

 private:
  struct Chunk {
    std::vector<workload::Task> tasks;
    std::size_t outstanding = 0;  ///< admitted, not yet retired
  };

  /// The chunk owning `task`, found by pointer-range membership (the deque
  /// is short: old chunks retire as their tasks drain).
  Chunk& chunk_of(const workload::Task* task);

  /// Recycles fully drained front chunks (never the cursor's own chunk).
  void retire_drained_front();

  workload::TraceReader* reader_;
  std::deque<Chunk> chunks_;  ///< back() is the chunk the cursor walks
  std::size_t cursor_ = 0;    ///< next unconsumed task within chunks_.back()
  bool exhausted_ = false;
  std::vector<std::vector<workload::Task>> pool_;  ///< recycled chunk storage
  std::size_t resident_ = 0;
  std::size_t peak_resident_ = 0;
};

}  // namespace rtdls::sim
