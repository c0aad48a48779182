#include "util/build_info.hpp"

#include "obs/trace.hpp"

namespace rtdls::util {

bool build_asan() {
#if defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool build_trace() {
#if RTDLS_TRACE_ENABLED
  return true;
#else
  return false;
#endif
}

std::string build_description() {
  std::string compiler;
#if defined(__clang__)
  compiler = "clang " + std::to_string(__clang_major__) + "." +
             std::to_string(__clang_minor__) + "." + std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  compiler = "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) + "." +
             std::to_string(__GNUC_PATCHLEVEL__);
#else
  compiler = "unknown compiler";
#endif
#ifdef NDEBUG
  const char* mode = "Release";
#else
  const char* mode = "Debug";
#endif
  return "rtdls (" + compiler + ", " + mode + ", asan=" + (build_asan() ? "on" : "off") +
         ", trace=" + (build_trace() ? "on" : "off") + ")";
}

}  // namespace rtdls::util
