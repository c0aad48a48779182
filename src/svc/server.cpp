#include "svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/trace.hpp"
#include "svc/snapshot.hpp"
#include "util/build_info.hpp"

namespace rtdls::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// Request-latency histograms cover the whole per-request budget range:
/// microseconds up to the multi-second deadline ceiling.
constexpr obs::HistogramOptions kLatencyHistogram{1.0, 4, 128};

std::string shard_latency_name(std::size_t shard) {
  return "rtdls_shard" + std::to_string(shard) + "_request_latency_us";
}

/// Records one request's end-to-end wall time (decode through reply write)
/// into the daemon-wide histogram, and the per-shard one once the request
/// has resolved to a shard. Handles are value copies; the default-constructed
/// `shard` member no-ops until assigned.
struct RequestTimer {
  obs::Histogram global;
  obs::Histogram shard;
  Clock::time_point start = Clock::now();

  ~RequestTimer() {
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start).count();
    global.record(us);
    shard.record(us);
  }
};

/// Deadline-bounded acquisition via try_lock polling. try_lock_until is the
/// natural call, but libstdc++ lowers it to pthread_mutex_clocklock, which
/// the libtsan shipped with GCC 12 does not intercept - every acquisition
/// then reports as "unlock of an unlocked mutex" under
/// RTDLS_SANITIZE=thread. Polling keeps the wall-clock deadline semantics on
/// interceptable primitives, identically in every build mode; the
/// uncontended path is still a single try_lock, and contended waiters poll
/// at 50us.
bool poll_lock_until(std::timed_mutex& mutex, Clock::time_point deadline) {
  for (;;) {
    if (mutex.try_lock()) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

/// Shard lock with a wall-clock acquisition deadline: the first half of the
/// per-request budget (the handler is the second half).
class DeadlineLock {
 public:
  DeadlineLock(std::timed_mutex& mutex, Clock::time_point deadline) : mutex_(mutex) {
    locked_ = poll_lock_until(mutex_, deadline);
  }
  ~DeadlineLock() {
    if (locked_) mutex_.unlock();
  }
  DeadlineLock(const DeadlineLock&) = delete;
  DeadlineLock& operator=(const DeadlineLock&) = delete;
  bool locked() const { return locked_; }

 private:
  std::timed_mutex& mutex_;
  bool locked_ = false;
};

}  // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)), build_(util::build_description()) {
  if (config_.socket_path.empty()) {
    throw std::invalid_argument("Daemon: socket_path is required");
  }
  if (!config_.restore_path.empty()) {
    // The snapshot is authoritative for everything that shapes decisions:
    // a restore under different params could not be bit-identical.
    Snapshot snapshot = read_snapshot(config_.restore_path);
    config_.algorithm = snapshot.meta.algorithm;
    config_.params = snapshot.meta.params;
    config_.shards = snapshot.shard_blobs.size();
    ShardConfig shard_config{config_.params, config_.record_ops};
    shards_.reserve(config_.shards);
    for (const auto& blob : snapshot.shard_blobs) {
      auto slot = std::make_unique<ShardSlot>(config_.algorithm, shard_config);
      util::WireReader reader(blob);
      slot->shard.restore_from(reader);
      reader.expect_done();
      shards_.push_back(std::move(slot));
    }
    counters_.restores.store(shards_.size(), std::memory_order_relaxed);
  } else {
    if (config_.shards == 0) throw std::invalid_argument("Daemon: need at least one shard");
    ShardConfig shard_config{config_.params, config_.record_ops};
    shards_.reserve(config_.shards);
    for (std::size_t i = 0; i < config_.shards; ++i) {
      shards_.push_back(std::make_unique<ShardSlot>(config_.algorithm, shard_config));
    }
  }
  if (config_.workers == 0) throw std::invalid_argument("Daemon: need at least one worker");
  start_time_ = Clock::now();
  queue_depth_ = obs_.gauge("rtdls_daemon_queue_depth");
  request_latency_ = obs_.histogram("rtdls_daemon_request_latency_us", kLatencyHistogram);
  shard_latency_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard_latency_.push_back(obs_.histogram(shard_latency_name(i), kLatencyHistogram));
  }
}

std::uint64_t Daemon::uptime_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start_time_)
          .count());
}

Daemon::~Daemon() {
  try {
    stop();
  } catch (...) {
    // Destructor cleanup must not throw; a failed final snapshot is the
    // only throwing path and the explicit stop() caller gets that error.
  }
}

void Daemon::start() {
  if (started_) throw std::logic_error("Daemon::start: already started");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("Daemon: socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::invalid_argument("Daemon: socket path too long: " + config_.socket_path);
  }
  std::strncpy(addr.sun_path, config_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("Daemon: cannot bind/listen on " + config_.socket_path);
  }
  started_ = true;
  accept_thread_ = std::thread(&Daemon::accept_loop, this);
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back(&Daemon::worker_loop, this);
  }
}

void Daemon::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  queue_cv_.notify_all();
}

void Daemon::stop() {
  if (stopped_) return;
  request_stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (int fd : pending_fds_) ::close(fd);
    pending_fds_.clear();
    queue_depth_.set(0);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
  stopped_ = true;
  if (started_ && !config_.snapshot_path.empty()) {
    // All threads are joined, so the generous deadline only guards against
    // a caller still holding a shard lock through shard()/shard_mutex().
    snapshot_to(config_.snapshot_path, Clock::now() + std::chrono::seconds(30));
  }
}

std::size_t Daemon::snapshot_to(const std::string& path, Clock::time_point deadline) {
  // All shard locks held together: the captured states form one consistent
  // point in time (a commit between per-shard captures would not).
  std::vector<std::unique_lock<std::timed_mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& slot : shards_) {
    if (!poll_lock_until(slot->shard_mutex, deadline)) {
      throw ShardError(ErrorCode::kTimeout, "snapshot: shard locks not acquired in time");
    }
    locks.emplace_back(slot->shard_mutex, std::adopt_lock);
  }
  std::vector<std::vector<std::uint8_t>> blobs;
  blobs.reserve(shards_.size());
  for (auto& slot : shards_) {
    util::WireWriter writer;
    slot->shard.snapshot_to(writer);
    blobs.push_back(writer.take());
  }
  SnapshotMeta meta{config_.algorithm, config_.params};
  return write_snapshot(path, meta, blobs);
}

sim::ServiceCounters Daemon::counters() const {
  sim::ServiceCounters out;
  out.connections = counters_.connections.load(std::memory_order_relaxed);
  out.requests = counters_.requests.load(std::memory_order_relaxed);
  out.admits = counters_.admits.load(std::memory_order_relaxed);
  out.commits = counters_.commits.load(std::memory_order_relaxed);
  out.cancels = counters_.cancels.load(std::memory_order_relaxed);
  out.status_queries = counters_.status_queries.load(std::memory_order_relaxed);
  out.snapshots = counters_.snapshots.load(std::memory_order_relaxed);
  out.errors = counters_.errors.load(std::memory_order_relaxed);
  out.timeouts = counters_.timeouts.load(std::memory_order_relaxed);
  out.restores = counters_.restores.load(std::memory_order_relaxed);
  return out;
}

void Daemon::bump(std::atomic<std::size_t> AtomicCounters::* field, std::size_t by) {
  (counters_.*field).fetch_add(by, std::memory_order_relaxed);
}

void Daemon::accept_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd entry{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&entry, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      pending_fds_.push_back(fd);
      queue_depth_.set(static_cast<std::int64_t>(pending_fds_.size()));
    }
    queue_cv_.notify_one();
  }
}

void Daemon::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) || !pending_fds_.empty();
      });
      if (pending_fds_.empty()) return;  // stop requested, nothing queued
      fd = pending_fds_.front();
      pending_fds_.erase(pending_fds_.begin());
      queue_depth_.set(static_cast<std::int64_t>(pending_fds_.size()));
    }
    serve_connection(fd);
  }
}

void Daemon::serve_connection(int fd) {
  bump(&AtomicCounters::connections);
  // Kept for the connection's lifetime: every request reuses them.
  FrameDecoder decoder;
  std::vector<std::uint8_t> buffer(64 * 1024);
  Frame frame;
  std::vector<std::uint8_t> reply;
  bool open = true;
  while (open && !stop_.load(std::memory_order_relaxed)) {
    pollfd entry{fd, POLLIN, 0};
    const int ready = ::poll(&entry, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;  // idle; re-check the stop flag
    const ssize_t received = ::recv(fd, buffer.data(), buffer.size(), 0);
    if (received <= 0) break;  // peer closed, or error
    decoder.feed(buffer.data(), static_cast<std::size_t>(received));
    while (open) {
      const FrameDecoder::Status status = decoder.next(frame);
      if (status == FrameDecoder::Status::kNeedMore) break;
      if (status == FrameDecoder::Status::kError) {
        bump(&AtomicCounters::errors);
        // The frame header never parsed, so the peer's revision is unknown;
        // v1.0 frames are decodable by clients of either revision.
        send_error(fd, reply, 0, kProtocolVersionV10, ErrorCode::kBadFrame, decoder.error());
        open = false;
        break;
      }
      bump(&AtomicCounters::requests);
      open = handle_frame(fd, frame, reply);
    }
  }
  ::close(fd);
}

bool Daemon::handle_frame(int fd, const Frame& frame, std::vector<std::uint8_t>& out) {
  const std::uint64_t id = frame.request_id;
  const std::uint16_t ver = frame.version;
  if (stop_.load(std::memory_order_relaxed)) {
    bump(&AtomicCounters::errors);
    send_error(fd, out, id, ver, ErrorCode::kShuttingDown, "daemon is stopping");
    return false;
  }
  const auto send_reply = [&](MsgType type, const auto& reply) {
    encode_message(out, type, id, reply, ver);
    return send_all(fd, out);
  };
  RequestTimer timer{request_latency_, {}};
  RTDLS_TRACE_SCOPE("svc.request", "svc");
  try {
    util::WireReader in(frame.payload);
    switch (frame.type) {
      case MsgType::kAdmitRequest: {
        RTDLS_TRACE_SCOPE("svc.admit", "svc");
        const AdmitRequest request = AdmitRequest::decode(in);
        bump(&AtomicCounters::admits);
        if (request.shard >= shards_.size()) {
          throw ShardError(ErrorCode::kUnknownShard,
                           "shard " + std::to_string(request.shard) + " out of range");
        }
        timer.shard = shard_latency_[request.shard];
        DeadlineLock lock(shards_[request.shard]->shard_mutex, deadline_for(request.deadline_ms));
        if (!lock.locked()) {
          throw ShardError(ErrorCode::kTimeout, "admit: shard busy past request deadline");
        }
        RTDLS_TRACE_INSTANT("svc.shard_locked", "svc");
        const AdmitReply reply = shards_[request.shard]->shard.admit(request.task);
        return send_reply(MsgType::kAdmitReply, reply);
      }
      case MsgType::kCommitRequest: {
        RTDLS_TRACE_SCOPE("svc.commit", "svc");
        const CommitRequest request = CommitRequest::decode(in);
        bump(&AtomicCounters::commits);
        if (request.shard >= shards_.size()) {
          throw ShardError(ErrorCode::kUnknownShard,
                           "shard " + std::to_string(request.shard) + " out of range");
        }
        timer.shard = shard_latency_[request.shard];
        DeadlineLock lock(shards_[request.shard]->shard_mutex, deadline_for(0));
        if (!lock.locked()) {
          throw ShardError(ErrorCode::kTimeout, "commit: shard busy past request deadline");
        }
        RTDLS_TRACE_INSTANT("svc.shard_locked", "svc");
        const CommitReply reply = shards_[request.shard]->shard.commit(request.task);
        return send_reply(MsgType::kCommitReply, reply);
      }
      case MsgType::kCancelRequest: {
        RTDLS_TRACE_SCOPE("svc.cancel", "svc");
        const CancelRequest request = CancelRequest::decode(in);
        bump(&AtomicCounters::cancels);
        if (request.shard >= shards_.size()) {
          throw ShardError(ErrorCode::kUnknownShard,
                           "shard " + std::to_string(request.shard) + " out of range");
        }
        timer.shard = shard_latency_[request.shard];
        DeadlineLock lock(shards_[request.shard]->shard_mutex, deadline_for(0));
        if (!lock.locked()) {
          throw ShardError(ErrorCode::kTimeout, "cancel: shard busy past request deadline");
        }
        RTDLS_TRACE_INSTANT("svc.shard_locked", "svc");
        const CancelReply reply = shards_[request.shard]->shard.cancel(request.task);
        return send_reply(MsgType::kCancelReply, reply);
      }
      case MsgType::kStatusRequest: {
        RTDLS_TRACE_SCOPE("svc.status", "svc");
        StatusRequest::decode(in);
        bump(&AtomicCounters::status_queries);
        StatusReply reply;
        reply.build = build_;
        reply.algorithm = config_.algorithm;
        reply.node_count = config_.params.node_count;
        reply.workers = config_.workers;
        reply.counters = counters();
        reply.extended = ver != kProtocolVersionV10;
        if (reply.extended) {
          reply.uptime_ms = uptime_ms();
          {
            // Level-10 queue mutex, taken before any level-20 shard lock.
            std::lock_guard<std::mutex> lock(queue_mutex_);
            reply.queue_depth = pending_fds_.size();
          }
          // One registry snapshot serves every shard's summary.
          const obs::Snapshot snapshot = obs_.snapshot();
          reply.shard_latency.resize(shards_.size());
          for (std::size_t i = 0; i < shards_.size(); ++i) {
            const obs::HistogramSample* sample =
                snapshot.find_histogram(shard_latency_name(i));
            if (sample == nullptr) continue;  // an unregistered name reads as empty
            ShardLatency& latency = reply.shard_latency[i];
            latency.count = sample->count;
            latency.p50_us = sample->quantile(0.5);
            latency.p90_us = sample->quantile(0.9);
            latency.p99_us = sample->quantile(0.99);
            latency.max_us = sample->max;
          }
        }
        const Clock::time_point deadline = deadline_for(0);
        reply.shards.reserve(shards_.size());
        for (std::size_t i = 0; i < shards_.size(); ++i) {
          DeadlineLock lock(shards_[i]->shard_mutex, deadline);
          if (!lock.locked()) {
            throw ShardError(ErrorCode::kTimeout, "status: shard busy past request deadline");
          }
          ShardStatus status;
          status.shard = static_cast<std::uint32_t>(i);
          shards_[i]->shard.fill_status(status);
          reply.shards.push_back(status);
        }
        return send_reply(MsgType::kStatusReply, reply);
      }
      case MsgType::kMetricsRequest: {
        RTDLS_TRACE_SCOPE("svc.metrics", "svc");
        MetricsRequest::decode(in);
        bump(&AtomicCounters::status_queries);
        MetricsReply reply;
        // Service counters are rendered straight from the worker-shared
        // atomics (no second bookkeeping), then the daemon-local registry
        // (latencies, queue depth), then the process-global one
        // (simulator/planner/admission counters).
        obs::Snapshot service;
        const auto load = [](const std::atomic<std::size_t>& c) {
          return static_cast<std::uint64_t>(c.load(std::memory_order_relaxed));
        };
        service.counters = {
            {"rtdls_daemon_connections_total", load(counters_.connections)},
            {"rtdls_daemon_requests_total", load(counters_.requests)},
            {"rtdls_daemon_admits_total", load(counters_.admits)},
            {"rtdls_daemon_commits_total", load(counters_.commits)},
            {"rtdls_daemon_cancels_total", load(counters_.cancels)},
            {"rtdls_daemon_status_queries_total", load(counters_.status_queries)},
            {"rtdls_daemon_snapshots_total", load(counters_.snapshots)},
            {"rtdls_daemon_errors_total", load(counters_.errors)},
            {"rtdls_daemon_timeouts_total", load(counters_.timeouts)},
            {"rtdls_daemon_restores_total", load(counters_.restores)},
        };
        reply.text = obs::prometheus_text(service) + obs_.prometheus_text() +
                     obs::Registry::global().prometheus_text();
        return send_reply(MsgType::kMetricsReply, reply);
      }
      case MsgType::kSnapshotRequest: {
        RTDLS_TRACE_SCOPE("svc.snapshot", "svc");
        const SnapshotRequest request = SnapshotRequest::decode(in);
        bump(&AtomicCounters::snapshots);
        const std::string path =
            request.path.empty() ? config_.snapshot_path : request.path;
        if (path.empty()) {
          throw ShardError(ErrorCode::kBadPayload,
                           "snapshot: no path in request and no configured default");
        }
        std::size_t bytes = 0;
        try {
          bytes = snapshot_to(path, deadline_for(0));
        } catch (const std::runtime_error& error) {
          if (dynamic_cast<const ShardError*>(&error) != nullptr) throw;
          throw ShardError(ErrorCode::kIo, error.what());
        }
        SnapshotReply reply;
        reply.shards = shards_.size();
        reply.bytes = bytes;
        return send_reply(MsgType::kSnapshotReply, reply);
      }
      case MsgType::kShutdownRequest: {
        ShutdownRequest::decode(in);
        send_reply(MsgType::kShutdownReply, ShutdownReply{});
        request_stop();
        return false;
      }
      case MsgType::kDebugSleepRequest: {
        const DebugSleepRequest request = DebugSleepRequest::decode(in);
        if (request.shard >= shards_.size()) {
          throw ShardError(ErrorCode::kUnknownShard,
                           "shard " + std::to_string(request.shard) + " out of range");
        }
        const Clock::time_point deadline = deadline_for(0);
        DeadlineLock lock(shards_[request.shard]->shard_mutex, deadline);
        if (!lock.locked()) {
          throw ShardError(ErrorCode::kTimeout, "debug-sleep: shard busy past request deadline");
        }
        // The "hung handler": hold the shard lock, but keep checking the
        // request deadline so the worker frees itself with kTimeout instead
        // of sleeping forever - the behavior the timeout tests assert.
        const Clock::time_point wake =
            Clock::now() + std::chrono::milliseconds(request.millis);
        while (Clock::now() < wake) {
          if (Clock::now() >= deadline) {
            throw ShardError(ErrorCode::kTimeout, "debug-sleep exceeded request deadline");
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        DebugSleepReply reply;
        reply.slept_ms = request.millis;
        return send_reply(MsgType::kDebugSleepReply, reply);
      }
      default:
        throw ShardError(ErrorCode::kUnknownType,
                         "unknown message type " +
                             std::to_string(static_cast<std::uint16_t>(frame.type)));
    }
  } catch (const ShardError& error) {
    bump(&AtomicCounters::errors);
    if (error.code() == ErrorCode::kTimeout) bump(&AtomicCounters::timeouts);
    send_error(fd, out, id, ver, error.code(), error.what());
    return true;
  } catch (const util::WireError& error) {
    bump(&AtomicCounters::errors);
    send_error(fd, out, id, ver, ErrorCode::kBadPayload, error.what());
    return true;
  } catch (const std::exception& error) {
    bump(&AtomicCounters::errors);
    send_error(fd, out, id, ver, ErrorCode::kInternal, error.what());
    return true;
  }
}

void Daemon::send_error(int fd, std::vector<std::uint8_t>& out, std::uint64_t request_id,
                        std::uint16_t version, ErrorCode code, const std::string& message) {
  ErrorReply reply;
  reply.code = code;
  reply.message = message;
  encode_message(out, MsgType::kErrorReply, request_id, reply, version);
  send_all(fd, out);
}

bool Daemon::send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

Clock::time_point Daemon::deadline_for(std::uint32_t override_ms) const {
  const std::uint32_t budget = override_ms != 0 ? override_ms : config_.default_deadline_ms;
  return Clock::now() + std::chrono::milliseconds(budget);
}

}  // namespace rtdls::svc
