// Build attribution: which flags this binary was compiled with.
//
// Storm-harness numbers (BENCH_daemon.json) and daemon `status` replies are
// only comparable when the build behind them is known - a sanitizer build is
// 5-20x slower, a compiled-in trace recorder adds its idle checks - so every
// report carries this one-line description.
#pragma once

#include <string>

namespace rtdls::util {

/// One-line build description, e.g.
/// "rtdls (gcc 12.2.0, Release, asan=off, trace=on)".
std::string build_description();

/// True when AddressSanitizer is compiled in (RTDLS_SANITIZE).
bool build_asan();

/// True when the trace recorder is compiled in (RTDLS_TRACE).
bool build_trace();

}  // namespace rtdls::util
