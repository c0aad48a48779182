#include "svc/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace rtdls::svc {

Client::Client(const std::string& socket_path, int timeout_ms) : timeout_ms_(timeout_ms) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw ServiceError(ErrorCode::kIo, "client: socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(fd_);
    fd_ = -1;
    throw ServiceError(ErrorCode::kIo, "client: socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw ServiceError(ErrorCode::kIo, "client: cannot connect to " + socket_path);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::exchange(std::uint64_t id) {
  std::size_t sent = 0;
  while (sent < request_.size()) {
    const ssize_t n = ::send(fd_, request_.data() + sent, request_.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ServiceError(ErrorCode::kIo, "client: send failed");
    }
    sent += static_cast<std::size_t>(n);
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms_);
  std::uint8_t buffer[4096];
  for (;;) {
    const FrameDecoder::Status status = decoder_.next(reply_);
    if (status == FrameDecoder::Status::kError) {
      throw ServiceError(ErrorCode::kBadFrame, "client: " + decoder_.error());
    }
    if (status == FrameDecoder::Status::kFrame) {
      // Replies echo the request id; with call/response usage anything else
      // is a protocol violation, not a frame to skip.
      if (reply_.request_id != id) {
        throw ServiceError(ErrorCode::kBadFrame, "client: reply id mismatch");
      }
      if (reply_.type == MsgType::kErrorReply) {
        util::WireReader in(reply_.payload);
        const ErrorReply error = ErrorReply::decode(in);
        throw ServiceError(error.code,
                           std::string(error_code_name(error.code)) + ": " + error.message);
      }
      return;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      throw ServiceError(ErrorCode::kTimeout, "client: no reply within timeout");
    }
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count() + 1);
    pollfd entry{fd_, POLLIN, 0};
    const int ready = ::poll(&entry, 1, wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw ServiceError(ErrorCode::kIo, "client: poll failed");
    }
    if (ready == 0) {
      throw ServiceError(ErrorCode::kTimeout, "client: no reply within timeout");
    }
    const ssize_t received = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (received <= 0) {
      throw ServiceError(ErrorCode::kIo, "client: connection closed by daemon");
    }
    decoder_.feed(buffer, static_cast<std::size_t>(received));
  }
}

template <typename Reply, typename Request>
Reply Client::call(MsgType type, MsgType reply_type, const Request& request) {
  const std::uint64_t id = next_id_++;
  encode_message(request_, type, id, request);
  exchange(id);
  if (reply_.type != reply_type) {
    throw ServiceError(ErrorCode::kBadFrame, "client: unexpected reply type");
  }
  util::WireReader in(reply_.payload);
  return Reply::decode(in);
}

AdmitReply Client::admit(const AdmitRequest& request) {
  return call<AdmitReply>(MsgType::kAdmitRequest, MsgType::kAdmitReply, request);
}

CommitReply Client::commit(std::uint32_t shard, cluster::TaskId task) {
  CommitRequest request;
  request.shard = shard;
  request.task = task;
  return call<CommitReply>(MsgType::kCommitRequest, MsgType::kCommitReply, request);
}

CancelReply Client::cancel(std::uint32_t shard, cluster::TaskId task) {
  CancelRequest request;
  request.shard = shard;
  request.task = task;
  return call<CancelReply>(MsgType::kCancelRequest, MsgType::kCancelReply, request);
}

StatusReply Client::status() {
  return call<StatusReply>(MsgType::kStatusRequest, MsgType::kStatusReply, StatusRequest{});
}

MetricsReply Client::metrics() {
  return call<MetricsReply>(MsgType::kMetricsRequest, MsgType::kMetricsReply, MetricsRequest{});
}

SnapshotReply Client::snapshot(const std::string& path) {
  SnapshotRequest request;
  request.path = path;
  return call<SnapshotReply>(MsgType::kSnapshotRequest, MsgType::kSnapshotReply, request);
}

void Client::shutdown() {
  call<ShutdownReply>(MsgType::kShutdownRequest, MsgType::kShutdownReply, ShutdownRequest{});
}

DebugSleepReply Client::debug_sleep(std::uint32_t shard, std::uint32_t millis) {
  DebugSleepRequest request;
  request.shard = shard;
  request.millis = millis;
  return call<DebugSleepReply>(MsgType::kDebugSleepRequest, MsgType::kDebugSleepReply, request);
}

}  // namespace rtdls::svc
