// The three rtdls-verify checks, shared by the rtdls_tidy driver and the
// fixture test harness.
//
//  * rtdls-no-raw-float-compare: epsilon tolerances must be anchored in
//    util/fp. Flags (a) float literals of epsilon magnitude (0 < |v| <=
//    1e-5) inside comparison statements, (b) ==/!= with a float-literal
//    operand, and (c) epsilon-named constants (kEps, *_tolerance, ...)
//    used in comparisons without an fp:: qualifier. Files matching the fp
//    allowlist (default "util/fp") are exempt: that is where the anchored
//    comparators and the named tolerances live.
//
//  * rtdls-hot-path-alloc: functions annotated RTDLS_HOT, and every
//    function reachable from one through calls resolvable inside the
//    scanned file set, must not allocate: no new/delete, no
//    malloc-family, no make_unique/make_shared/to_string, no local
//    owning-container or std::string declarations or temporaries, and no
//    growth calls on such locals. Growth on *member* scratch
//    (resize/reserve/push_back on fields) is legal - the amortized
//    scratch-reuse contract from PRs 5/6.
//
//  * rtdls-lock-discipline: mutex members are acquired through guard
//    types only - a guard being any std guard or a class holding a mutex
//    reference member - so naked lock()/unlock() on a value-typed mutex
//    member is flagged; and guards must acquire mutexes in
//    non-decreasing RTDLS_LOCK_LEVEL order within a function body
//    (acquiring a lower level while a higher one is held is an
//    inversion). Leveled mutex member names must be globally unique so
//    call sites resolve unambiguously; duplicates are themselves flagged.
//
// The engine is the token scanner in lexer.hpp - see the precision notes
// there.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace rtdls::verify {

inline constexpr const char* kCheckFloatCompare = "rtdls-no-raw-float-compare";
inline constexpr const char* kCheckHotAlloc = "rtdls-hot-path-alloc";
inline constexpr const char* kCheckLockDiscipline = "rtdls-lock-discipline";

struct Diagnostic {
  std::string file;
  int line = 0;
  int col = 0;
  std::string message;
  std::string check;  ///< one of the kCheck* names

  /// clang-tidy-compatible rendering: "file:line:col: warning: msg [check]".
  std::string render() const;

  bool operator==(const Diagnostic&) const = default;
};

class Analyzer {
 public:
  /// Registers a file for analysis (content is tokenized immediately).
  void add_file(const std::string& path, const std::string& content);

  /// Reads and registers a file from disk; returns false when unreadable.
  bool add_file_from_disk(const std::string& path);

  /// Path substrings exempt from rtdls-no-raw-float-compare. Default:
  /// {"util/fp"}.
  void set_fp_allowlist(std::vector<std::string> substrings);

  /// Runs the named checks (all three when empty) over every registered
  /// file. Diagnostics are sorted by (file, line, col, check).
  std::vector<Diagnostic> run(const std::set<std::string>& checks = {});

 private:
  struct File {
    std::string path;
    std::vector<Token> tokens;
  };

  // --- cross-file symbol tables (pass 1) ---------------------------------
  struct MutexDecl {
    std::string name;
    std::string enclosing_class;  ///< "" at namespace scope
    std::string file;
    int line = 0;
    bool is_reference = false;  ///< guard-internal handle, not an owner
    int level = -1;             ///< RTDLS_LOCK_LEVEL, -1 when undeclared
  };

  struct FunctionDef {
    std::string name;       ///< bare name
    std::string qualified;  ///< Class::name when resolvable
    std::size_t file_index = 0;
    std::size_t body_begin = 0;  ///< token index of '{'
    std::size_t body_end = 0;    ///< token index of matching '}'
    int line = 0;
    bool hot = false;            ///< annotated or reached from an annotated fn
    std::string hot_via;         ///< root annotated function for diagnostics
  };

  void collect_symbols();
  void propagate_hot();
  void check_float_compare(const File& file, std::vector<Diagnostic>& out) const;
  void check_hot_alloc(const FunctionDef& fn, std::vector<Diagnostic>& out) const;
  void check_lock_discipline(const File& file, std::vector<Diagnostic>& out) const;
  void check_lock_levels_unique(std::vector<Diagnostic>& out) const;

  bool fp_allowlisted(const std::string& path) const;

  std::vector<File> files_;
  std::vector<std::string> fp_allowlist_{"util/fp"};

  std::vector<MutexDecl> mutexes_;
  std::set<std::string> value_mutex_names_;
  std::set<std::string> reference_mutex_names_;
  std::map<std::string, int> mutex_levels_;  ///< leveled members by name
  std::set<std::string> guard_classes_;      ///< classes with a mutex& member
  std::vector<FunctionDef> functions_;
  std::set<std::string> hot_declared_names_;  ///< RTDLS_HOT on a prototype
  bool symbols_collected_ = false;
};

}  // namespace rtdls::verify
