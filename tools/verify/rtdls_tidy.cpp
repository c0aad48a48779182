// rtdls_tidy: the project's static-analysis driver.
//
// Runs the three rtdls-verify checks (checks.hpp) over a set of C++
// sources and prints clang-tidy-compatible diagnostics:
//
//   $ rtdls_tidy src/
//   src/sched/opr_rule.cpp:58:37: warning: raw epsilon literal 1e-9 in a
//   comparison; ... [rtdls-no-raw-float-compare]
//
// Exit status is 1 when any diagnostic fired (warnings-as-errors is the
// only mode: CI gates on it, and there is deliberately no suppression
// syntax - a finding in src/ is fixed, not silenced). The driver is
// dependency-free and runs everywhere the project builds, directly over the
// source tree (or the file list of a compile_commands.json via --compdb).
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"

namespace {

namespace fs = std::filesystem;
using rtdls::verify::Analyzer;
using rtdls::verify::Diagnostic;

void usage() {
  std::cerr <<
      "usage: rtdls_tidy [options] <file-or-dir>...\n"
      "\n"
      "options:\n"
      "  --checks=a,b,c     comma-separated check names (default: all)\n"
      "  --list-checks      print the known checks and exit\n"
      "  --compdb=FILE      add every file listed in a compile_commands.json\n"
      "  --fp-allowlist=S   comma-separated path substrings exempt from\n"
      "                     rtdls-no-raw-float-compare (default: util/fp)\n"
      "  --quiet            print only the summary line\n";
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

bool cpp_source(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h" ||
         ext == ".cxx" || ext == ".hxx";
}

/// Pulls the "file" entries out of a compile_commands.json without a JSON
/// dependency: the format is stable enough that scanning for the "file"
/// key is exact in practice.
std::vector<std::string> compdb_files(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t key = line.find("\"file\"");
    if (key == std::string::npos) continue;
    const std::size_t open = line.find('"', key + 6 + 1);
    if (open == std::string::npos) continue;
    const std::size_t close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    out.push_back(line.substr(open + 1, close - open - 1));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::set<std::string> checks;
  std::vector<std::string> inputs;
  std::vector<std::string> fp_allowlist = {"util/fp"};
  bool quiet = false;

  const std::set<std::string> known_checks = {
      rtdls::verify::kCheckFloatCompare,
      rtdls::verify::kCheckHotAlloc,
      rtdls::verify::kCheckLockDiscipline,
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-checks") {
      for (const std::string& check : known_checks) std::cout << check << "\n";
      return 0;
    }
    if (arg.rfind("--checks=", 0) == 0) {
      for (const std::string& check : split_commas(arg.substr(9))) {
        if (!known_checks.count(check)) {
          std::cerr << "rtdls_tidy: unknown check '" << check << "'\n";
          return 2;
        }
        checks.insert(check);
      }
      continue;
    }
    if (arg.rfind("--compdb=", 0) == 0) {
      for (const std::string& file : compdb_files(arg.substr(9))) inputs.push_back(file);
      continue;
    }
    if (arg.rfind("--fp-allowlist=", 0) == 0) {
      fp_allowlist = split_commas(arg.substr(15));
      continue;
    }
    if (arg == "--quiet") {
      quiet = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "rtdls_tidy: unknown option '" << arg << "'\n";
      usage();
      return 2;
    }
    inputs.push_back(arg);
  }

  if (inputs.empty()) {
    usage();
    return 2;
  }

  Analyzer analyzer;
  analyzer.set_fp_allowlist(fp_allowlist);
  std::size_t file_count = 0;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      std::vector<std::string> found;
      for (const auto& entry : fs::recursive_directory_iterator(input)) {
        if (entry.is_regular_file() && cpp_source(entry.path())) {
          found.push_back(entry.path().string());
        }
      }
      std::sort(found.begin(), found.end());
      for (const std::string& path : found) {
        if (analyzer.add_file_from_disk(path)) ++file_count;
      }
      continue;
    }
    if (!analyzer.add_file_from_disk(input)) {
      std::cerr << "rtdls_tidy: cannot read '" << input << "'\n";
      return 2;
    }
    ++file_count;
  }

  const std::vector<Diagnostic> diagnostics = analyzer.run(checks);
  if (!quiet) {
    for (const Diagnostic& diagnostic : diagnostics) {
      std::cout << diagnostic.render() << "\n";
    }
  }
  std::cout << diagnostics.size() << " warning" << (diagnostics.size() == 1 ? "" : "s")
            << " generated over " << file_count << " file"
            << (file_count == 1 ? "" : "s") << ".\n";
  return diagnostics.empty() ? 0 : 1;
}
