// Process runtime: one OS process per Legion object, envelopes over
// Unix-domain sockets.
//
// The paper's model made literal a second time over: where EpollRuntime
// proves the M:N scheduling story, this runtime proves the address-space
// story. A parent ("host") process runs the system objects; every object
// whose OPR names an executable is fork/exec'ed as its own worker process
// (rt/spawn_child.hpp) and serves its endpoint from there. A kill -9 on a
// worker destroys exactly one object — the host and every sibling keep
// running, which no in-process runtime can promise.
//
// Transport: this is EpollRuntime's kernel — one reactor, actor mailboxes,
// a work-stealing pool — with the Unix-domain listener kind. Each endpoint,
// in whichever process, listens on a socket whose path is a pure function
// of the endpoint id (ConnPool::UnixSocketPath: `<dir>/ep-<id>.sock`), so
// parent and children route to each other with zero coordination: posting
// to endpoint N means dialing ep-N.sock, whoever owns it. What this class
// adds is the socket directory, ProcessControl, the reaper and the table of
// calls in flight to each child.
//
// Failure surface: a dead worker's socket gives ECONNREFUSED/ENOENT =
// kStaleBinding on new sends, while requests already in flight to it are
// bounced kBounceUnavailable by the reaper thread the moment waitpid
// reports the death — callers get kUnavailable immediately instead of
// waiting out their deadline (see DeliveryKind::kBounceUnavailable).
//
// One class, two modes:
//   * parent (worker_endpoint_id == 0): the kernel with a
//     hardware_concurrency pool + ProcessControl (spawn/stop/kill/pause),
//     SIGCHLD-free per-pid reaping, fault-plan child injector, rt.proc.*
//     metrics.
//   * worker (worker_endpoint_id != 0): the kernel inside a child, with one
//     pool worker (spares cover nested waits); the first created endpoint
//     takes the id the parent assigned (so the binding the parent published
//     routes here), and process_control() is null — workers do not spawn
//     grandchildren.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "rt/epoll_runtime.hpp"

namespace legion::rt {

struct ProcessOptions {
  // Pool / backlog knobs, shared with EpollRuntime.
  TcpOptions tcp;
  // Directory holding every endpoint's socket plus the per-child OPR/handles
  // files. "" in parent mode = create (and own) a mkdtemp /tmp/legion.XXXXXX;
  // workers are always told the parent's directory.
  std::string socket_dir;
  // != 0 switches to worker mode: serve this parent-assigned endpoint id.
  std::uint64_t worker_endpoint_id = 0;
  // Ready-handshake deadline: how long spawn_object waits for the worker's
  // 'R' byte before declaring the spawn failed.
  SimTime spawn_timeout_us = 10'000'000;
  // stop_child grace: SIGTERM, this long to exit, then SIGKILL.
  SimTime stop_grace_us = 2'000'000;
  // Redirect each child's stderr to <dir>/child-<id>.stderr.log. "" = check
  // the LEGION_CHILD_LOG_DIR environment variable; unset = inherit stderr.
  std::string child_log_dir;
};

class ProcessRuntime final : public EpollRuntime, public ProcessControl {
 public:
  ProcessRuntime();
  explicit ProcessRuntime(ProcessOptions options);
  ~ProcessRuntime() override;

  // Child endpoints are not in the kernel's map: these consult the child
  // table for them.
  [[nodiscard]] bool endpoint_alive(EndpointId id) const override;
  [[nodiscard]] HostId host_of(EndpointId id) const override;
  Status post(Envelope env) override;

  [[nodiscard]] ProcessControl* process_control() override {
    return worker_mode() ? nullptr : this;
  }

  // --- ProcessControl -------------------------------------------------
  Result<SpawnInfo> spawn_object(const SpawnSpec& spec) override;
  Status stop_child(EndpointId endpoint) override;
  Status kill_child(EndpointId endpoint) override;
  Status pause_child(EndpointId endpoint) override;
  Status resume_child(EndpointId endpoint) override;
  [[nodiscard]] bool child_alive(EndpointId endpoint) const override;
  [[nodiscard]] std::vector<ChildInfo> children() const override;

  [[nodiscard]] const ProcessOptions& options() const { return options_; }
  [[nodiscard]] const std::string& socket_dir() const { return socket_dir_; }
  [[nodiscard]] bool worker_mode() const {
    return options_.worker_endpoint_id != 0;
  }

 private:
  // One spawned worker. `outstanding` maps the call_id of every Messenger
  // request posted to the child (and not yet answered) to the local caller
  // endpoint, so the reaper can bounce exactly those calls when the worker
  // dies. Bounded: a child with kMaxOutstanding in-flight calls refuses
  // further posts with kUnavailable rather than growing without limit.
  struct Child {
    EndpointId endpoint;
    std::int64_t pid = -1;
    std::string label;
    HostId host;
    bool alive = true;
    bool paused = false;
    std::unordered_map<std::uint64_t, EndpointId> outstanding;
  };
  static constexpr std::size_t kMaxOutstanding = 4096;

  // The socket directory and whether this runtime created (and so removes)
  // it.
  struct SocketDir {
    std::string path;
    bool owned = false;
  };
  // options.socket_dir, or "" in parent mode = mkdtemp.
  static SocketDir ResolveSocketDir(const ProcessOptions& options);
  ProcessRuntime(ProcessOptions options, SocketDir dir);

  // Worker mode: the first endpoint takes the parent-assigned id, later
  // ones ids no parent allocation collides with.
  std::uint64_t next_endpoint_id() REQUIRES(map_mutex_) override;

  // Replies crossing back from a worker settle its in-flight entry, so a
  // later crash only bounces calls that are genuinely unanswered.
  void enqueue(Envelope env) override;

  // Reaper thread (parent mode): per-pid waitpid(WNOHANG) — never wait(-1),
  // which would steal the exit status of a spawn_object racing us — then
  // bounce the dead child's outstanding calls as kBounceUnavailable.
  void reaper_loop();
  // Collects a dead child's outstanding calls in one phase (children lock,
  // rank 18) and delivers the bounces through the kernel's enqueue in a
  // second (endpoint map lock, rank 16, plus per-endpoint locks). The
  // children lock is fully released between phases because the map lock
  // ranks BELOW it — holding both would invert the order against
  // spawn_object, which allocates an endpoint id (map lock) before
  // registering the child (children lock).
  void mark_child_dead(std::uint64_t endpoint_value);

  const ProcessOptions options_;
  const bool owns_socket_dir_;
  std::string child_log_dir_;  // resolved from options/env

  // Worker mode's endpoint count; only next_endpoint_id() touches it, with
  // the kernel's map_mutex_ held.
  std::uint64_t next_local_endpoint_ = 0;

  mutable base::Mutex children_mutex_{base::lock_rank::kProcChildren};
  std::unordered_map<std::uint64_t, Child> children_
      GUARDED_BY(children_mutex_);
  // Labels ever spawned, to count respawns of the same logical object.
  std::unordered_map<std::string, std::uint64_t> spawn_counts_
      GUARDED_BY(children_mutex_);

  // Per-child process metrics (the rt.proc.* plane the CI lane asserts on):
  // live worker processes right now, spawns total, respawns of a label seen
  // before (reactivation landing on this parent again), zombies reaped, and
  // in-flight calls bounced kUnavailable by the reaper.
  obs::Gauge& live_children_{metrics_.gauge("rt.proc.live_children")};
  obs::Counter& spawns_{metrics_.counter("rt.proc.spawns")};
  obs::Counter& respawns_{metrics_.counter("rt.proc.respawns")};
  obs::Counter& zombie_reaps_{metrics_.counter("rt.proc.zombie_reaps")};
  obs::Counter& bounced_unavailable_{
      metrics_.counter("rt.proc.bounced_unavailable")};

  std::thread reaper_;
  std::atomic<bool> stopping_{false};
};

}  // namespace legion::rt
