// The rtdlsd daemon: admission control as a long-running service.
//
// Architecture: one accept thread + a fixed worker pool over a Unix-domain
// stream socket. A worker owns a connection for its lifetime and serves its
// frames in order (per-connection ordering is part of the protocol); request
// concurrency comes from multiple connections over multiple workers, and
// state concurrency from sharding - each AdmissionShard is guarded by its
// own std::timed_mutex, so requests against different shards never contend.
//
// Request path: for the lifetime of a connection the worker keeps one
// receive buffer, one FrameDecoder, one Frame and one reply buffer; every
// reply (error replies included) is encoded in place into that buffer and
// sent from it. Pipelined frames are served in order out of one receive.
// Once the buffers have grown to the connection's largest message, the
// framing of a request allocates nothing; what the admission decision
// allocates (the admitted task and its plan) is the shard's.
//
// Per-request deadlines: every request carries a wall-clock budget (the
// daemon default, or AdmitRequest::deadline_ms). The budget covers both the
// shard-lock acquisition (deadline-bounded try_lock polling) and the handler
// itself, so one
// hung request - simulated by kDebugSleepRequest - times out with a kTimeout
// error reply instead of wedging a worker forever, and contenders queued on
// the same shard fail fast instead of piling up. Other shards are untouched.
//
// Crash recovery: DaemonConfig::restore_path rebuilds every shard from a
// snapshot file (svc/snapshot.hpp); the restored daemon's future admit
// decisions are bit-identical to the uninterrupted one. A path that is not
// a regular file, or a snapshot that holds no shard, fails with a typed
// error before any shard is built. stop() writes a final snapshot when
// snapshot_path is set, making SIGTERM lossless.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/metrics.hpp"
#include "util/annotations.hpp"
#include "svc/shard.hpp"

namespace rtdls::svc {

struct DaemonConfig {
  std::string socket_path;
  std::string algorithm = "EDF-DLT";
  cluster::ClusterParams params;
  std::size_t shards = 4;
  std::size_t workers = 4;
  bool record_ops = false;  ///< per-shard op logs (tests; unbounded memory)
  /// Default per-request wall-clock budget.
  std::uint32_t default_deadline_ms = 2000;
  /// Written by stop() (and by explicit snapshot requests with an empty
  /// path); empty disables the final snapshot.
  std::string snapshot_path;
  /// Non-empty: restore every shard from this snapshot file at start; its
  /// metadata overrides algorithm/params/shards.
  std::string restore_path;
};

class Daemon {
 public:
  /// Builds the shards (restoring from DaemonConfig::restore_path if set).
  /// Throws on invalid config or unusable snapshot. The socket is not
  /// touched until start().
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the socket and launches the accept thread and worker pool.
  void start();

  /// Asynchronous stop signal; safe from any thread, including a worker
  /// serving the shutdown request and a signal-handler-polling loop.
  void request_stop();

  /// True once a stop has been requested (shutdown request or signal path).
  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

  /// Joins everything, closes the socket, and writes the final snapshot (if
  /// configured). Idempotent; called by the destructor.
  void stop();

  /// Point-in-time snapshot of every shard to `path`, all shard locks held
  /// together so the captured states are mutually consistent. Returns the
  /// file size. Throws ShardError{kTimeout} when the locks cannot be had by
  /// `deadline`, std::runtime_error on I/O failure.
  std::size_t snapshot_to(const std::string& path,
                          std::chrono::steady_clock::time_point deadline);

  const DaemonConfig& config() const { return config_; }
  sim::ServiceCounters counters() const;
  std::size_t shard_count() const { return shards_.size(); }

  /// The daemon's private metrics registry (request latencies per shard,
  /// queue depth). Scraped by the kMetricsRequest op together with the
  /// process-global registry; exposed for tests and the storm harness.
  obs::Registry& metrics_registry() { return obs_; }

  /// Milliseconds since the daemon was constructed (monotonic clock).
  std::uint64_t uptime_ms() const;

  /// Direct shard access for in-process callers (tests, the storm bench's
  /// serial replay). The caller must hold shard_mutex(i).
  AdmissionShard& shard(std::size_t i) { return shards_[i]->shard; }
  std::timed_mutex& shard_mutex(std::size_t i) { return shards_[i]->shard_mutex; }

 private:
  struct ShardSlot {
    std::timed_mutex shard_mutex RTDLS_LOCK_LEVEL(20);
    AdmissionShard shard;
    ShardSlot(const std::string& algorithm, const ShardConfig& config)
        : shard(algorithm, config) {}
  };

  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);
  /// Dispatches one frame, encoding its reply into the connection's `out`
  /// buffer; returns false when the connection must close (frame-level
  /// protocol violation or shutdown).
  bool handle_frame(int fd, const Frame& frame, std::vector<std::uint8_t>& out);
  /// Error replies echo the requester's wire revision like any other reply.
  void send_error(int fd, std::vector<std::uint8_t>& out, std::uint64_t request_id,
                  std::uint16_t version, ErrorCode code, const std::string& message);
  bool send_all(int fd, const std::vector<std::uint8_t>& bytes);
  std::chrono::steady_clock::time_point deadline_for(std::uint32_t override_ms) const;

  /// Worker-shared mirror of sim::ServiceCounters, one relaxed atomic per
  /// field. The counters are independent monotonic event tallies with no
  /// cross-field invariant, so relaxed increments suffice; counters()
  /// materializes a plain snapshot for replies and logs. (Previously a
  /// plain struct under counters_mutex_ - a lock per bump on the request
  /// path, and the lock order was undeclared.)
  struct AtomicCounters {
    std::atomic<std::size_t> connections{0};
    std::atomic<std::size_t> requests{0};
    std::atomic<std::size_t> admits{0};
    std::atomic<std::size_t> commits{0};
    std::atomic<std::size_t> cancels{0};
    std::atomic<std::size_t> status_queries{0};
    std::atomic<std::size_t> snapshots{0};
    std::atomic<std::size_t> errors{0};
    std::atomic<std::size_t> timeouts{0};
    std::atomic<std::size_t> restores{0};
  };

  void bump(std::atomic<std::size_t> AtomicCounters::* field, std::size_t by = 1);

  DaemonConfig config_;
  std::string build_;  ///< util::build_description(), built once for status
  std::vector<std::unique_ptr<ShardSlot>> shards_;

  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex queue_mutex_ RTDLS_LOCK_LEVEL(10);
  std::condition_variable queue_cv_;
  std::vector<int> pending_fds_;

  AtomicCounters counters_;

  /// Per-daemon registry (NOT the process-global one): a test that runs
  /// several daemons must not see their latencies blended together.
  obs::Registry obs_;
  obs::Gauge queue_depth_;            ///< pending_fds_.size(), maintained at push/pop
  obs::Histogram request_latency_;    ///< all requests, end to end, microseconds
  std::vector<obs::Histogram> shard_latency_;  ///< indexed by shard
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace rtdls::svc
