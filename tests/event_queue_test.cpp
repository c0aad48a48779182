// Tests for the discrete-event queue the simulator's event loop runs on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_queue.hpp"

namespace rtdls::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue<int> queue;
  queue.push(5.0, EventPriority::kArrival, 1);
  queue.push(1.0, EventPriority::kArrival, 2);
  queue.push(3.0, EventPriority::kArrival, 3);
  EXPECT_EQ(queue.pop().payload, 2);
  EXPECT_EQ(queue.pop().payload, 3);
  EXPECT_EQ(queue.pop().payload, 1);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, PriorityBreaksTimeTies) {
  EventQueue<std::string> queue;
  queue.push(10.0, EventPriority::kArrival, "arrival");
  queue.push(10.0, EventPriority::kReport, "report");
  queue.push(10.0, EventPriority::kCommit, "commit");
  EXPECT_EQ(queue.pop().payload, "commit");
  EXPECT_EQ(queue.pop().payload, "arrival");
  EXPECT_EQ(queue.pop().payload, "report");
}

TEST(EventQueue, SequenceBreaksFullTies) {
  EventQueue<int> queue;
  queue.push(1.0, EventPriority::kArrival, 1);
  queue.push(1.0, EventPriority::kArrival, 2);
  queue.push(1.0, EventPriority::kArrival, 3);
  EXPECT_EQ(queue.pop().payload, 1);  // FIFO among equals
  EXPECT_EQ(queue.pop().payload, 2);
  EXPECT_EQ(queue.pop().payload, 3);
}

TEST(EventQueue, SizeTracking) {
  EventQueue<int> queue;
  EXPECT_TRUE(queue.empty());
  queue.push(1.0, EventPriority::kArrival, 0);
  queue.push(2.0, EventPriority::kArrival, 0);
  EXPECT_EQ(queue.size(), 2u);
  queue.pop();
  EXPECT_EQ(queue.size(), 1u);
}

}  // namespace
}  // namespace rtdls::sim
