#include "sim/schedule_log.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"

namespace rtdls::sim {

cluster::Time ScheduleLog::total_inserted_idle() const {
  cluster::Time total = 0.0;
  for (const ScheduleEntry& entry : entries_) total += entry.inserted_idle();
  return total;
}

void ScheduleLog::save_csv(std::ostream& out) const {
  util::CsvWriter writer(out);
  writer.write_row({"task", "node", "usable_from", "start", "end", "alpha",
                    "inserted_idle", "cps", "actual_finish"});
  for (const ScheduleEntry& entry : entries_) {
    writer.write_numeric_row({static_cast<double>(entry.task),
                              static_cast<double>(entry.node), entry.usable_from,
                              entry.start, entry.end, entry.alpha,
                              entry.inserted_idle(), entry.cps, entry.actual_finish});
  }
}

std::string ScheduleLog::render_gantt(cluster::Time t0, cluster::Time t1,
                                      std::size_t nodes, std::size_t width) const {
  if (!(t1 > t0)) throw std::invalid_argument("render_gantt: t1 must exceed t0");
  if (nodes == 0 || width == 0) throw std::invalid_argument("render_gantt: empty grid");

  static constexpr char kMarks[] =
      "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
  std::vector<std::string> rows(nodes, std::string(width, ' '));

  auto column = [&](cluster::Time t) {
    const double fraction = (t - t0) / (t1 - t0);
    return static_cast<long long>(fraction * static_cast<double>(width));
  };
  auto clamp_col = [&](long long c) {
    return static_cast<std::size_t>(std::clamp<long long>(c, 0, static_cast<long long>(width) - 1));
  };

  for (const ScheduleEntry& entry : entries_) {
    if (entry.node >= nodes) continue;
    if (entry.end <= t0 || entry.start >= t1) continue;
    std::string& row = rows[entry.node];
    // Inserted idle ('.') from usable_from to start, then the task mark.
    if (entry.inserted_idle() > 0.0 && entry.start > t0) {
      for (std::size_t c = clamp_col(column(entry.usable_from));
           c <= clamp_col(column(entry.start) - 1); ++c) {
        if (row[c] == ' ') row[c] = '.';
      }
    }
    const char mark = kMarks[entry.task % (sizeof(kMarks) - 1)];
    for (std::size_t c = clamp_col(column(entry.start)); c <= clamp_col(column(entry.end) - 1);
         ++c) {
      row[c] = mark;
    }
  }

  std::ostringstream out;
  for (std::size_t node = 0; node < nodes; ++node) {
    out << 'P' << node + 1 << (node + 1 < 10 ? "  |" : " |") << rows[node] << "|\n";
  }
  out << "marks: task id mod 62; '.': inserted idle; window [" << t0 << ", " << t1 << ")\n";
  return out.str();
}

}  // namespace rtdls::sim
