// CSV writer/reader used for persisting experiment series and traces.
//
// The format is deliberately simple: comma-separated, fields containing a
// comma/quote/newline are double-quoted with doubled inner quotes. This is
// enough for gnuplot, pandas and spreadsheet import of our results.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace rtdls::util {

/// Streams rows of a CSV document into an std::ostream.
class CsvWriter {
 public:
  /// Writes to `out`, which must outlive the writer.
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Writes one row; every field is escaped as needed.
  void write_row(const std::vector<std::string>& fields);

  /// Convenience: writes a row of doubles formatted with full precision.
  void write_numeric_row(const std::vector<double>& values);

  /// Number of rows written so far.
  size_t rows_written() const { return rows_; }

  /// Escapes a single CSV field (public for testing).
  static std::string escape(const std::string& field);

 private:
  std::ostream* out_;
  size_t rows_ = 0;
};

/// Parses CSV text into rows of fields. Handles quoted fields with embedded
/// commas/quotes/newlines. Intended for reading back files we wrote, such
/// as workload traces.
std::vector<std::vector<std::string>> parse_csv(const std::string& text);

}  // namespace rtdls::util
