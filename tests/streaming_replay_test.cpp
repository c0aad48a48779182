// Tests for the streaming replay pipeline (PR 10): chunked TraceReader
// equivalence with load_trace (same tasks, same row-numbered errors - even
// chunks deep into the file), the StreamedSortError contract, the
// StreamingTaskSource chunk-lifetime accounting, and run_stream's
// bit-identity with run() plus its on-the-fly sortedness enforcement.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/schedule_log.hpp"
#include "sim/simulator.hpp"
#include "sim/task_source.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace rtdls {
namespace {

using workload::Task;
using workload::TraceReader;

std::vector<Task> generated_tasks(std::uint64_t seed, std::size_t nodes, double load,
                                  double total_time) {
  workload::WorkloadParams params;
  params.cluster = {.node_count = nodes, .cms = 1.0, .cps = 100.0};
  params.system_load = load;
  params.avg_sigma = 50.0;  // short tasks: dense arrivals, many chunks
  params.dc_ratio = 10.0;
  params.total_time = total_time;
  params.seed = seed;
  return workload::generate_workload(params);
}

std::string trace_csv(const std::vector<Task>& tasks) {
  std::ostringstream out;
  workload::save_trace(out, tasks);
  return out.str();
}

/// Drains a reader into one vector through `chunk_tasks`-sized chunks.
std::vector<Task> drain(TraceReader& reader, std::vector<std::size_t>* chunk_sizes = nullptr) {
  std::vector<Task> all;
  std::vector<Task> chunk;
  while (reader.next_chunk(chunk)) {
    if (chunk_sizes) chunk_sizes->push_back(chunk.size());
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  EXPECT_TRUE(chunk.empty());  // exhaustion leaves the buffer empty
  return all;
}

void expect_same_tasks(const std::vector<Task>& a, const std::vector<Task>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "task " << i;
    EXPECT_EQ(a[i].arrival(), b[i].arrival()) << "task " << i;
    EXPECT_EQ(a[i].sigma(), b[i].sigma()) << "task " << i;
    EXPECT_EQ(a[i].rel_deadline(), b[i].rel_deadline()) << "task " << i;
    EXPECT_EQ(a[i].user_nodes, b[i].user_nodes) << "task " << i;
  }
}

TEST(TraceReader, ChunkedReadMatchesLoadTrace) {
  const auto tasks = generated_tasks(7, 16, 0.8, 60000.0);
  ASSERT_GT(tasks.size(), 20u);  // several chunks at chunk_tasks=7
  const std::string csv = trace_csv(tasks);

  std::istringstream materialized(csv);
  const auto loaded = workload::load_trace(materialized);

  std::istringstream streamed(csv);
  TraceReader reader(streamed, {.chunk_tasks = 7});
  std::vector<std::size_t> chunk_sizes;
  const auto chunked = drain(reader, &chunk_sizes);

  expect_same_tasks(loaded, chunked);
  expect_same_tasks(loaded, tasks);
  EXPECT_EQ(reader.tasks_read(), tasks.size());
  // Every chunk but the last is full.
  for (std::size_t i = 0; i + 1 < chunk_sizes.size(); ++i) {
    EXPECT_EQ(chunk_sizes[i], 7u) << "chunk " << i;
  }
}

TEST(TraceReader, RowNumbersSurviveChunkBoundaries) {
  // A malformed row several chunks deep must be reported with its absolute
  // 1-based data-row number, exactly as load_trace would.
  std::ostringstream out;
  out << "id,arrival,sigma,deadline,user_nodes\n";
  for (int r = 1; r <= 9; ++r) {
    if (r == 8) {
      out << "7,80.0,-1.0,50.0,4\n";  // sigma <= 0 at data row 8
    } else {
      out << r - 1 << "," << 10.0 * r << ".0,100.0,50.0,4\n";
    }
  }
  const std::string csv = out.str();

  const auto expect_row8 = [](const auto& read_all) {
    try {
      read_all();
      FAIL() << "expected a row-numbered parse error";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("row 8"), std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find("sigma"), std::string::npos)
          << error.what();
    }
  };
  expect_row8([&] {
    std::istringstream in(csv);
    workload::load_trace(in);
  });
  expect_row8([&] {
    std::istringstream in(csv);
    TraceReader reader(in, {.chunk_tasks = 3});  // row 8 sits in the third chunk
    std::vector<Task> chunk;
    while (reader.next_chunk(chunk)) {
    }
  });
}

TEST(TraceReader, EnforcesSortedArrivalsAcrossChunks) {
  // The decrease straddles a chunk boundary: the reader carries the last
  // arrival across next_chunk calls.
  std::ostringstream out;
  out << "id,arrival,sigma,deadline,user_nodes\n"
      << "0,10.0,100.0,50.0,4\n"
      << "1,20.0,100.0,50.0,4\n"
      << "2,15.0,100.0,50.0,4\n";  // decreases at data row 3
  std::istringstream in(out.str());
  TraceReader reader(in, {.chunk_tasks = 2});
  std::vector<Task> chunk;
  ASSERT_TRUE(reader.next_chunk(chunk));
  try {
    reader.next_chunk(chunk);
    FAIL() << "expected the decreasing arrival to throw";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("row 3"), std::string::npos) << error.what();
    EXPECT_NE(std::string(error.what()).find("decreases"), std::string::npos)
        << error.what();
  }
}

TEST(TraceReader, SortArrivalsOnStreamedInputThrowsTyped) {
  std::istringstream in("id,arrival,sigma,deadline,user_nodes\n0,1.0,2.0,3.0,4\n");
  EXPECT_THROW(TraceReader(in, {.chunk_tasks = 16, .sort_arrivals = true}),
               workload::StreamedSortError);
  // StreamedSortError is an invalid_argument (callers may catch the base).
  std::istringstream again("id,arrival,sigma,deadline,user_nodes\n");
  EXPECT_THROW(TraceReader(again, {.chunk_tasks = 16, .sort_arrivals = true}),
               std::invalid_argument);
}

TEST(TraceReader, RejectsZeroChunkAndEmptyOrBadHeader) {
  std::istringstream in("id,arrival,sigma,deadline,user_nodes\n");
  EXPECT_THROW(TraceReader(in, {.chunk_tasks = 0}), std::invalid_argument);
  std::istringstream empty("");
  EXPECT_THROW(TraceReader reader(empty), std::runtime_error);
  std::istringstream bad("id,arrival,sigma,deadline\n");
  EXPECT_THROW(TraceReader reader(bad), std::runtime_error);
  EXPECT_THROW(TraceReader("/nonexistent/trace.csv", TraceReader::Options{}),
               std::runtime_error);
}

TEST(TraceReader, BlankLinesAndCrlfTolerated) {
  // Same tolerance as load_trace: trailing blank lines skip, CRLF strips,
  // and the blank line still consumes a row number.
  std::istringstream in(
      "id,arrival,sigma,deadline,user_nodes\r\n"
      "0,1.0,100.0,50.0,4\r\n"
      "\r\n"
      "1,2.0,100.0,50.0,4\r\n");
  TraceReader reader(in, {.chunk_tasks = 10});
  std::vector<Task> chunk;
  ASSERT_TRUE(reader.next_chunk(chunk));
  ASSERT_EQ(chunk.size(), 2u);
  EXPECT_EQ(chunk[0].id, 0u);
  EXPECT_EQ(chunk[1].id, 1u);
  EXPECT_EQ(reader.tasks_read(), 2u);
  EXPECT_FALSE(reader.next_chunk(chunk));
}

// --- StreamingTaskSource + run_stream ---------------------------------------

TEST(StreamingReplay, RunStreamMatchesRunBitForBit) {
  // The full pipeline - save_trace CSV -> TraceReader (tiny chunks) ->
  // StreamingTaskSource -> run_stream - must produce the same metrics and
  // the same committed reservations as run() over the materialized trace.
  const auto tasks = generated_tasks(13, 32, 1.0, 40000.0);
  ASSERT_GT(tasks.size(), 100u);
  const std::string csv = trace_csv(tasks);

  for (const char* algorithm : {"EDF-DLT", "FIFO-MR2"}) {
    sim::SimulatorConfig config;
    config.params = {.node_count = 32, .cms = 1.0, .cps = 100.0};

    sim::ScheduleLog vector_log;
    config.schedule_log = &vector_log;
    const sim::SimMetrics expected = sim::simulate(config, algorithm, tasks, 40000.0);

    std::istringstream in(csv);
    workload::TraceReader reader(in, {.chunk_tasks = 16});
    sim::StreamingTaskSource source(reader);
    sim::ScheduleLog stream_log;
    config.schedule_log = &stream_log;
    const sched::Algorithm algo = sched::make_algorithm(algorithm);
    sim::ClusterSimulator simulator(config, algo);
    const sim::SimMetrics streamed = simulator.run_stream(source, 40000.0);

    ASSERT_EQ(streamed.accepted, expected.accepted) << algorithm;
    ASSERT_EQ(streamed.rejected, expected.rejected) << algorithm;
    ASSERT_EQ(streamed.deadline_misses, expected.deadline_misses) << algorithm;
    EXPECT_EQ(streamed.response_time.mean(), expected.response_time.mean()) << algorithm;
    EXPECT_EQ(streamed.busy_time, expected.busy_time) << algorithm;
    EXPECT_EQ(streamed.idle_gap_time, expected.idle_gap_time) << algorithm;
    ASSERT_EQ(stream_log.size(), vector_log.size()) << algorithm;
    for (std::size_t i = 0; i < stream_log.size(); ++i) {
      const sim::ScheduleEntry& a = stream_log.entries()[i];
      const sim::ScheduleEntry& b = vector_log.entries()[i];
      ASSERT_EQ(a.task, b.task) << algorithm << " entry " << i;
      ASSERT_EQ(a.node, b.node) << algorithm << " entry " << i;
      ASSERT_EQ(a.start, b.start) << algorithm << " entry " << i;
      ASSERT_EQ(a.end, b.end) << algorithm << " entry " << i;
      ASSERT_EQ(a.alpha, b.alpha) << algorithm << " entry " << i;
    }

    // Bounded-memory claim: with 16-task chunks the source never held
    // anything close to the whole trace resident.
    EXPECT_LT(source.peak_resident_tasks(), tasks.size() / 2)
        << algorithm << ": chunks did not retire";
    EXPECT_GE(source.peak_resident_tasks(), 16u);
  }
}

TEST(StreamingReplay, MidStreamArrivalDecreaseThrows) {
  // run_stream validates sortedness on the fly (a streamed trace cannot be
  // pre-checked); an out-of-order source fails at the offending arrival.
  std::vector<Task> tasks(2);
  tasks[0].id = 0;
  tasks[0].spec.arrival = 100.0;
  tasks[0].spec.sigma = 50.0;
  tasks[0].spec.rel_deadline = 500.0;
  tasks[1].id = 1;
  tasks[1].spec.arrival = 40.0;  // decreases
  tasks[1].spec.sigma = 50.0;
  tasks[1].spec.rel_deadline = 500.0;

  sim::SimulatorConfig config;
  config.params = {.node_count = 4, .cms = 1.0, .cps = 100.0};
  const sched::Algorithm algo = sched::make_algorithm("EDF-DLT");
  sim::ClusterSimulator simulator(config, algo);
  sim::VectorTaskSource source(tasks);
  EXPECT_THROW(simulator.run_stream(source, 1000.0), std::invalid_argument);
  // run() still rejects the same trace up front.
  EXPECT_THROW(simulator.run(tasks, 1000.0), std::invalid_argument);
}

TEST(StreamingReplay, SourceGuardsRetireWithoutAdmit) {
  std::istringstream in("id,arrival,sigma,deadline,user_nodes\n0,1.0,2.0,3.0,4\n");
  workload::TraceReader reader(in, TraceReader::Options{});
  sim::StreamingTaskSource source(reader);
  const workload::Task* task = source.peek();
  ASSERT_NE(task, nullptr);
  EXPECT_THROW(source.on_task_retired(task), std::logic_error);
  source.on_task_admitted(task);
  source.on_task_retired(task);  // balanced now
  source.pop();
  EXPECT_EQ(source.peek(), nullptr);
  EXPECT_THROW(source.pop(), std::logic_error);  // nothing peeked past the end
}

}  // namespace
}  // namespace rtdls
