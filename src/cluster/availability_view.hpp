// The availability row as planning reads it: filled on demand.
//
// Every Figure-2 plan reads the sorted, floored release times of all N
// nodes, but a plan of k nodes only inspects a prefix of them - the het
// prefix scan and the n_min resolver stop where the first feasible prefix
// ends - so the row is not copied out of the index up front. A view opened
// on an AvailabilityIndex at `now` reads positions as the planner asks for
// them (fill(n)), in O(N/64 + positions read) per plan; a whole-row rule
// (OPR-AN) asks for all N. A view built from a row the caller holds (the
// stateless reference, hand-built test rows, rows a session rebuilt) is
// dense: every position is filled.
//
// The buffers are sized to what was filled, so a planner that reads past
// its fill trips the bounds-checked operator[] of the _GLIBCXX_ASSERTIONS
// build instead of reading a stale position.
//
// An open view reads the index through a cursor that a mutation of the
// index, or a view opened at another `now`, invalidates (read_view throws).
// Holders settle() it before the index can change: a completely filled view
// becomes dense, a partly filled one is dropped.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/availability_delta.hpp"
#include "cluster/availability_index.hpp"

namespace rtdls::cluster {

class AvailabilityView {
 public:
  AvailabilityView() = default;
  /// A dense view of `row` (its id column empty when nodes are
  /// interchangeable).
  explicit AvailabilityView(AvailabilityRow row) : row_(std::move(row)) {}

  /// Opens the view on `index` at `now`, with an id column when `with_ids`;
  /// no position is filled yet. Keeps the buffers' capacity.
  void open(const AvailabilityIndex& index, Time now, bool with_ids) {
    index.open_view(now, with_ids, cursor_);
    index_ = &index;
    row_.times.clear();
    row_.ids.clear();
  }

  /// Row length N (filled or not).
  std::size_t size() const { return index_ != nullptr ? index_->size() : row_.times.size(); }
  /// True when positions carry node ids (nodes not interchangeable).
  bool with_ids() const { return index_ != nullptr ? cursor_.with_ids : !row_.ids.empty(); }
  /// True while the view reads an index (not every position filled yet).
  bool is_open() const { return index_ != nullptr; }

  /// Fills positions [0, n); n must not exceed size().
  void fill(std::size_t n) const {
    if (n > row_.times.size()) extend(n);
  }
  /// Position i's time, filling up to it.
  Time at(std::size_t i) const {
    fill(i + 1);
    return row_.times[i];
  }
  Time front() const { return at(0); }

  /// The filled positions: times()[i] for i < the last fill, and ids()[i]
  /// too when with_ids() (empty otherwise).
  const std::vector<Time>& times() const { return row_.times; }
  const std::vector<NodeId>& ids() const { return row_.ids; }

  /// Fills every position and detaches from the index: the dense row, which
  /// the caller may merge into in place.
  AvailabilityRow& dense() {
    fill(size());
    index_ = nullptr;
    return row_;
  }

  /// Makes the view dense over a copy of `row` (capacity kept).
  void assign(const AvailabilityRow& row) {
    index_ = nullptr;
    row_.times = row.times;
    row_.ids = row.ids;
  }
  /// Makes the view dense over `row`'s entries, handing `row` the view's
  /// previous buffers: an O(1) exchange between a dense view and a row.
  void swap(AvailabilityRow& row) {
    index_ = nullptr;
    std::swap(row_, row);
  }

  /// Ends the view's reliance on the index: a completely filled view
  /// becomes dense, a partly filled one is emptied. Returns whether it
  /// holds the row.
  bool settle() {
    if (index_ == nullptr) return true;
    const bool complete = row_.times.size() == index_->size();
    index_ = nullptr;
    if (!complete) {
      row_.times.clear();
      row_.ids.clear();
    }
    return complete;
  }

 private:
  void extend(std::size_t n) const {
    if (index_ == nullptr || n > index_->size()) {
      throw std::out_of_range("AvailabilityView::fill: position past the row");
    }
    const std::size_t first = row_.times.size();
    row_.times.resize(n);
    if (cursor_.with_ids) row_.ids.resize(n);
    index_->read_view(cursor_, n, row_.times.data() + first,
                      cursor_.with_ids ? row_.ids.data() + first : nullptr);
  }

  /// Positions [0, times.size()) are filled; mutable because filling a
  /// view does not change the row it stands for.
  mutable AvailabilityRow row_;
  mutable AvailabilityIndex::ViewCursor cursor_;
  const AvailabilityIndex* index_ = nullptr;
};

}  // namespace rtdls::cluster
