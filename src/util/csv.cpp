#include "util/csv.hpp"

#include "util/strings.hpp"

namespace rtdls::util {

std::string CsvWriter::escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) (*out_) << ',';
    (*out_) << escape(fields[i]);
  }
  (*out_) << '\n';
  ++rows_;
}

void CsvWriter::write_numeric_row(const std::vector<double>& values) {
  std::vector<std::string> fields;
  fields.reserve(values.size());
  for (double v : values) {
    // Bit-exact double round-trips (trace replay relies on reloaded
    // workloads being identical to the generated ones).
    fields.push_back(format_roundtrip(v));
  }
  write_row(fields);
}

std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&] {
    row.push_back(field);
    field.clear();
    field_started = false;
  };
  auto end_row = [&] {
    end_field();
    rows.push_back(row);
    row.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        field_started = true;
        break;
      case ',':
        end_field();
        field_started = true;  // next field exists even if empty
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        end_row();
        break;
      default:
        field.push_back(c);
        field_started = true;
        break;
    }
  }
  if (in_quotes) {
    // Unterminated quote: treat remainder as the field's content.
    in_quotes = false;
  }
  if (field_started || !field.empty() || !row.empty()) {
    end_row();
  }
  return rows;
}

}  // namespace rtdls::util
