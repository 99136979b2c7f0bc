// Per-destination pool of persistent client sockets (the sending half of
// the socket transports).
//
// A post borrows a keep-alive socket to the destination, writes one
// length-prefixed frame (header and payload coalesced into a single
// sendmsg), and returns the socket for reuse — MRU first, so the warmest
// socket is always next out. Idle sockets are reaped stalest-first on every
// pool touch. Sockets whose peer vanished reconnect exactly once, and a
// refused reconnect surfaces as kStaleBinding so the Section 4.1.4 repair
// loop fires — while fd exhaustion (EMFILE/ENFILE) is kUnavailable, never
// binding invalidation. The reactor kernel owns one pool, so both listener
// kinds share the same failure classification.
//
// How a destination becomes a socket is the listener kind's business: the
// pool keys connections by an opaque 64-bit id and dials through an
// injected `Dialer`. With loopback TCP listeners the key is the host
// listener's port; with Unix-domain listeners (ProcessRuntime) it is the
// endpoint id, dialled at the endpoint's socket path.
#pragma once

#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/mutex.hpp"
#include "base/status.hpp"
#include "base/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "rt/envelope.hpp"

namespace legion::rt {

struct TcpOptions {
  // Idle sockets cached per destination; a release beyond this closes
  // the socket instead, bounding fd usage per peer. 0 = dial, write one
  // frame and close on every send.
  std::size_t max_idle_per_peer = 4;
  // Idle sockets unused for longer than this are reaped, stalest first,
  // whenever the pool is touched.
  std::chrono::microseconds idle_reap{30'000'000};
  // listen(2) backlog for endpoint listeners. A connect storm from a
  // fleet-sized peer set overflows a small SYN queue and surfaces as
  // spurious Unavailable, so the default is the system maximum. <= 0 also
  // means SOMAXCONN.
  int listen_backlog = SOMAXCONN;
};

class ConnPool {
 public:
  // Maps a destination key to a freshly connected fd, classifying connect
  // errors (nothing-listens-there must be kStaleBinding, resource
  // exhaustion kUnavailable).
  using Dialer = std::function<Result<int>(std::uint64_t key)>;

  // TCP dialer: key = loopback port. ECONNREFUSED — nothing listens there
  // anymore — is the physical stale binding.
  static Dialer LoopbackDialer();
  // UDS dialer for the process transport: key = endpoint id, path =
  // `<dir>/ep-<key>.sock`. ENOENT/ECONNREFUSED — the socket file is gone or
  // orphaned — is the physical stale binding.
  static Dialer UnixDialer(std::string socket_dir);
  // The Unix-domain socket path UnixDialer(dir) connects to for `key`.
  static std::string UnixSocketPath(const std::string& socket_dir,
                                    std::uint64_t key);

  // `metric_prefix` namespaces the pool gauges ("rt.tcp" for the TCP
  // transport, "rt.proc.pool" for the process transport).
  ConnPool(const TcpOptions& options, obs::Registry& registry, Dialer dialer,
           const std::string& metric_prefix = "rt.tcp");
  ~ConnPool();

  ConnPool(const ConnPool&) = delete;
  ConnPool& operator=(const ConnPool&) = delete;

  // Writes `env` as one frame to the destination named by `key`, honoring
  // the reconnect-once contract described above.
  Status send(std::uint64_t key, const Envelope& env);

  // Closes every cached idle socket (runtime teardown).
  void close_all();

 private:
  // A checked-out client socket. Ownership is exclusive between acquire()
  // and release(), so no per-connection lock is needed.
  struct Connection {
    int fd = -1;
    // Borrowed from the pool: the peer may have vanished since the socket
    // was cached, so a failed write earns one reconnect.
    bool reused = false;
    std::chrono::steady_clock::time_point last_used;
  };

  Status dial(std::uint64_t key, Connection& out);
  Status acquire(std::uint64_t key, Connection& out);
  void release(std::uint64_t key, Connection conn);
  void close_conn(Connection& conn);
  bool write_frame(int fd, const Envelope& env);

  const TcpOptions options_;
  const Dialer dialer_;

  base::Mutex mutex_{base::lock_rank::kTcpPool};
  // Idle connections per destination, oldest first (release appends,
  // reaping pops from the front).
  std::unordered_map<std::uint64_t, std::vector<Connection>> pool_
      GUARDED_BY(mutex_);

  // Syscalls retried after an EINTR interruption (regression visibility for
  // the signal-mid-transfer case).
  obs::Counter& io_retries_;
  // Pool observability: dials (fresh connects), hits (reused sockets),
  // reconnects (dead keep-alive replaced), reaped (idle-timeout closes),
  // and the live count of client-side sockets (the soak test's fd bound).
  obs::Counter& dials_;
  obs::Counter& pool_hits_;
  obs::Counter& reconnects_;
  obs::Counter& reaped_;
  obs::Gauge& open_conns_;
};

}  // namespace legion::rt
