// Tests for the reservation calendar (backfilling substrate).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cluster/calendar.hpp"

namespace rtdls::cluster {
namespace {

TEST(Calendar, ConstructionRequiresNodes) {
  EXPECT_THROW(NodeCalendar(0), std::invalid_argument);
  NodeCalendar calendar(4);
  EXPECT_EQ(calendar.size(), 4u);
  EXPECT_TRUE(calendar.busy(0).empty());
}

TEST(Calendar, ReserveAndQuery) {
  NodeCalendar calendar(2);
  calendar.reserve(0, 10.0, 20.0);
  EXPECT_TRUE(calendar.is_free(0, 0.0, 10.0));
  EXPECT_TRUE(calendar.is_free(0, 20.0, 30.0));
  EXPECT_FALSE(calendar.is_free(0, 5.0, 15.0));
  EXPECT_FALSE(calendar.is_free(0, 12.0, 13.0));
  EXPECT_TRUE(calendar.is_free(1, 0.0, 100.0));  // other node unaffected
}

TEST(Calendar, AbuttingReservationsAllowed) {
  NodeCalendar calendar(1);
  calendar.reserve(0, 10.0, 20.0);
  calendar.reserve(0, 20.0, 30.0);  // exact abutment
  calendar.reserve(0, 0.0, 10.0);
  EXPECT_EQ(calendar.busy(0).size(), 3u);
  EXPECT_DOUBLE_EQ(calendar.busy_time(0), 30.0);
}

TEST(Calendar, OverlapThrows) {
  NodeCalendar calendar(1);
  calendar.reserve(0, 10.0, 20.0);
  EXPECT_THROW(calendar.reserve(0, 15.0, 25.0), std::logic_error);
  EXPECT_THROW(calendar.reserve(0, 5.0, 11.0), std::logic_error);
  EXPECT_THROW(calendar.reserve(0, 12.0, 13.0), std::logic_error);
  EXPECT_THROW(calendar.reserve(0, 20.0, 10.0), std::invalid_argument);
}

TEST(Calendar, OutOfOrderInsertionStaysSorted) {
  NodeCalendar calendar(1);
  calendar.reserve(0, 50.0, 60.0);
  calendar.reserve(0, 10.0, 20.0);
  calendar.reserve(0, 30.0, 40.0);
  const auto& busy = calendar.busy(0);
  ASSERT_EQ(busy.size(), 3u);
  EXPECT_DOUBLE_EQ(busy[0].start, 10.0);
  EXPECT_DOUBLE_EQ(busy[1].start, 30.0);
  EXPECT_DOUBLE_EQ(busy[2].start, 50.0);
}

TEST(Calendar, CandidateTimesAreEdges) {
  NodeCalendar calendar(2);
  calendar.reserve(0, 10.0, 20.0);
  calendar.reserve(1, 15.0, 25.0);
  const auto times = calendar.candidate_times(5.0);
  // {5, 10, 15, 20, 25}
  ASSERT_EQ(times.size(), 5u);
  EXPECT_DOUBLE_EQ(times.front(), 5.0);
  EXPECT_DOUBLE_EQ(times.back(), 25.0);
  // From a later origin, earlier edges are dropped.
  EXPECT_EQ(calendar.candidate_times(21.0).size(), 2u);  // {21, 25}
}

TEST(Calendar, ChainedEpsilonEdgesKeepAnchoredCandidates) {
  // Regression: the old dedupe handed the non-transitive |a-b| <= kEps
  // predicate to std::unique, whose behavior on non-equivalence relations
  // is unspecified - a chain of edges each within kEps of its neighbour
  // could collapse into one candidate arbitrarily far from the dropped
  // edges. The anchor-based dedupe guarantees every dropped edge stays
  // within kEps of a surviving candidate.
  constexpr Time kEps = 1e-9;  // NodeCalendar's reservation tolerance
  NodeCalendar calendar(4);
  const Time base = 100.0;
  const Time step = 0.6 * kEps;  // adjacent edges "equal", chain ends not
  std::vector<Time> edges;
  for (NodeId id = 0; id < 4; ++id) {
    const Time start = base + static_cast<Time>(id) * step;
    calendar.reserve(id, start, base + 50.0);
    edges.push_back(start);
    edges.push_back(base + 50.0);
  }

  const std::vector<Time> times = calendar.candidate_times(0.0);
  // Every real edge lies within kEps of a surviving candidate.
  for (Time edge : edges) {
    Time nearest = std::numeric_limits<Time>::infinity();
    for (Time t : times) nearest = std::min(nearest, std::abs(t - edge));
    EXPECT_LE(nearest, kEps) << "edge " << edge << " lost by the dedupe";
  }
  // Surviving candidates are genuinely distinct (> kEps apart), sorted.
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i] - times[i - 1], kEps);
  }
  // The chain must NOT have collapsed to a single candidate: its span
  // (1.8 * kEps) exceeds the tolerance, so at least two anchors survive
  // inside [base, base + 3*step].
  std::size_t anchors_in_chain = 0;
  for (Time t : times) {
    if (t >= base - kEps / 2 && t <= base + 3.0 * step + kEps / 2) ++anchors_in_chain;
  }
  EXPECT_GE(anchors_in_chain, 2u);
}

}  // namespace
}  // namespace rtdls::cluster
