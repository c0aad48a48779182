// Blocking rtdlsd client over the Unix-domain socket protocol.
//
// One Client owns one connection; requests are issued one at a time (the
// protocol itself allows pipelining, but every current caller - the CLI
// subcommands and the storm bench's per-thread clients - is call/response).
// The client encodes each request in place into one request buffer and
// decodes each reply into one Frame, both kept for its lifetime, so a warm
// client allocates nothing to frame a request or read its reply.
// Server-side failures arrive as ErrorReply frames and surface as
// ServiceError with the machine-readable ErrorCode; transport failures
// (connect/send/recv, response deadline) surface as ServiceError{kIo} or
// {kTimeout}.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "svc/protocol.hpp"

namespace rtdls::svc {

class ServiceError : public std::runtime_error {
 public:
  ServiceError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

class Client {
 public:
  /// Connects immediately; throws ServiceError{kIo} when the daemon is not
  /// listening. `timeout_ms` bounds each wait for a reply.
  explicit Client(const std::string& socket_path, int timeout_ms = 5000);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  AdmitReply admit(const AdmitRequest& request);
  CommitReply commit(std::uint32_t shard, cluster::TaskId task);
  CancelReply cancel(std::uint32_t shard, cluster::TaskId task);
  StatusReply status();
  /// v1.1: Prometheus text scrape of the daemon's metrics registries.
  MetricsReply metrics();
  SnapshotReply snapshot(const std::string& path);
  /// Fire a shutdown request and wait for the acknowledgment.
  void shutdown();
  DebugSleepReply debug_sleep(std::uint32_t shard, std::uint32_t millis);

 private:
  /// Sends `request` framed as `type` and waits for `reply_type` with the
  /// matching request id; an ErrorReply throws ServiceError.
  template <typename Reply, typename Request>
  Reply call(MsgType type, MsgType reply_type, const Request& request);
  /// Sends request_ and reads the reply to request `id` into reply_.
  void exchange(std::uint64_t id);

  int fd_ = -1;
  int timeout_ms_ = 5000;
  std::uint64_t next_id_ = 1;
  FrameDecoder decoder_;
  /// Reused by every call.
  std::vector<std::uint8_t> request_;
  Frame reply_;
};

}  // namespace rtdls::svc
