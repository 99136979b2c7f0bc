// M:N event-driven runtime: one epoll reactor, a fixed work-stealing worker
// pool, and per-endpoint actor mailboxes.
//
// A thread per serviced endpoint (plus an acceptor and a reader thread per
// accepted connection) hits the kernel's thread ceiling orders of magnitude
// before the paper's "millions of objects" target. Here threads are
// decoupled from objects:
//
//   * A single *reactor* thread owns every socket. Listeners are accepted
//     and streams read with epoll; complete frames (rt/frame.hpp) are routed
//     to the destination endpoint's mailbox by the env.dst header field.
//     The class constructed fixes the listener kind: EpollRuntime binds one
//     nonblocking loopback TCP listener per HOST (ephemeral ports are ~28k;
//     per-endpoint ports cannot reach 1M objects); ProcessRuntime binds one
//     Unix-domain listener per endpoint at ConnPool::UnixSocketPath(dir, id),
//     so any process sharing the directory dials an endpoint by its id.
//   * A fixed pool of *workers* (default: hardware_concurrency) drains
//     mailboxes. Each endpoint is a tiny actor: kIdle until a message
//     arrives, then kScheduled on a run queue, then kRunning on exactly one
//     worker at a time — the same no-concurrent-handler guarantee a
//     thread per object gives, without the threads. Workers pop
//     their own deque LIFO, then the shared injector, then steal from
//     victims FIFO.
//   * A worker whose handler blocks in wait() (nested call chains:
//     object -> class -> magistrate -> host) announces itself blocked and
//     the pool spawns a bounded spare so mailbox draining never deadlocks
//     behind awaiting handlers — essential on small machines where the pool
//     may be a single worker.
//
// Sending goes through the shared ConnPool (MRU reuse, idle reap,
// reconnect-once, ECONNREFUSED/ENOENT -> kStaleBinding), which owns the
// failure classification the Section 4.1.4 repair loop depends on. The
// fault plan is consulted on post, so recovery experiments (host down,
// partitions, lossy classes) run unchanged over real sockets.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/mutex.hpp"
#include "base/rng.hpp"
#include "base/thread_annotations.hpp"
#include "rt/conn_pool.hpp"
#include "rt/runtime.hpp"

namespace legion::rt {

struct EpollOptions {
  // Client-socket pooling and listener tuning.
  TcpOptions tcp;
  // Fixed worker-pool size; 0 = std::thread::hardware_concurrency(). The
  // pool may temporarily exceed this with spares spawned while workers
  // block in wait() (bounded at 16x).
  std::size_t workers = 0;
  // Seed for the fault-plan RNG (drop-probability draws).
  std::uint64_t seed = Rng::kDefaultSeed;
};

class EpollRuntime : public Runtime {
 public:
  EpollRuntime();
  explicit EpollRuntime(EpollOptions options);
  ~EpollRuntime() override;

  EndpointId create_endpoint(HostId host, std::string label,
                             MessageHandler handler,
                             ExecutionMode mode) override;
  void close_endpoint(EndpointId id) override;
  [[nodiscard]] bool endpoint_alive(EndpointId id) const override;
  [[nodiscard]] HostId host_of(EndpointId id) const override;

  Status post(Envelope env) override;
  [[nodiscard]] SimTime now() const override;
  bool wait(EndpointId self, const std::function<bool()>& ready,
            SimTime timeout_us) override;
  void notify(EndpointId id) override;
  void run_until_idle() override;

  [[nodiscard]] RuntimeStats stats() const override;
  [[nodiscard]] EndpointStats endpoint_stats(EndpointId id) const override;
  [[nodiscard]] std::map<std::string, std::uint64_t> received_by_label()
      const override;
  [[nodiscard]] std::uint64_t max_received_with_label(
      const std::string& label) const override;
  void reset_stats() override;

  // The real TCP port an endpoint receives on — its HOST's listener port
  // (endpoints share their host's listener; frames are demultiplexed by the
  // dst header field).
  [[nodiscard]] std::uint16_t port_of(EndpointId id) const;

  [[nodiscard]] const TcpOptions& options() const { return options_.tcp; }

  // Threads the runtime currently owns: reactor + workers (spares
  // included). bench_epoll_scaling reports this against the endpoint count;
  // it is the whole point of the M:N design that it does not scale with
  // endpoints.
  [[nodiscard]] std::size_t runtime_threads() const;

 protected:
  // Empty for loopback TCP listeners.
  const std::string socket_dir_;

  mutable base::SharedMutex map_mutex_{base::lock_rank::kEndpointMap};

  // Unix-domain listeners, one per endpoint, in `socket_dir`; the pool
  // dials endpoint ids there (metrics "rt.proc.pool.*"), and a destination
  // not in this runtime is a peer process's endpoint, dialled rather than
  // refused.
  EpollRuntime(EpollOptions options, std::string socket_dir);

  // Stops the reactor, then the workers (draining what is queued). Called
  // by a derived destructor before its own members go, because the reactor
  // and the handlers call back into the derived object; idempotent.
  void shutdown();

  // Reactor -> mailbox handoff (and the path for locally made bounces):
  // stamp, count, and schedule if the mailbox was idle. Frames racing an
  // endpoint close are dropped.
  virtual void enqueue(Envelope env);

  // The id the next endpoint takes: sequential from 1.
  virtual std::uint64_t next_endpoint_id() REQUIRES(map_mutex_);

  // True when the fault plan drops a frame from `src` to `dst` (counted).
  bool dropped_by_faults(HostId src, HostId dst, net::LatencyClass cls);

  // RAII around a potentially-blocking region on a worker thread: tells the
  // pool so it can compensate with a spare and the system keeps draining.
  class BlockedScope {
   public:
    explicit BlockedScope(EpollRuntime* rt);
    ~BlockedScope();
    BlockedScope(const BlockedScope&) = delete;
    BlockedScope& operator=(const BlockedScope&) = delete;

   private:
    EpollRuntime* rt_ = nullptr;
  };

 private:
  // Actor mailbox lifecycle. Exactly one worker runs an endpoint at a time:
  //   kIdle --(first message)--> kScheduled --(worker pops)--> kRunning
  //   kRunning --(drained)--> kIdle, or --(budget left work)--> kScheduled.
  // Driver-mode endpoints stay kIdle forever; their owner drains them
  // inline from wait().
  enum class MailboxState : std::uint8_t { kIdle, kScheduled, kRunning };

  struct Endpoint {
    // Immutable after create_endpoint publishes the endpoint.
    HostId host;
    std::string label;
    MessageHandler handler;
    ExecutionMode mode = ExecutionMode::kServiced;
    std::uint16_t host_port = 0;  // the host listener this endpoint shares
    int listen_fd = -1;           // its own Unix-domain listener, if any
    EndpointId id;

    base::Mutex mutex{base::lock_rank::kEndpoint};
    base::CondVar cv;
    // FIFO as vector + head index: an idle endpoint holds no heap block
    // (libstdc++ deque allocates ~512B even when empty — real money at the
    // 1M-endpoint scale this runtime exists for).
    std::vector<Envelope> inbox GUARDED_BY(mutex);
    std::size_t inbox_head GUARDED_BY(mutex) = 0;
    bool stopping GUARDED_BY(mutex) = false;
    // Bumped by every wake source (enqueue, notify(), close) so wait()
    // sleeps through exactly the generations it has already seen.
    std::uint64_t wakeups GUARDED_BY(mutex) = 0;
    EndpointStats stats GUARDED_BY(mutex);
    MailboxState mstate GUARDED_BY(mutex) = MailboxState::kIdle;
    // Valid while mstate == kRunning: lets a nested wait() recognize "I am
    // the thread servicing this endpoint" and keep draining inline.
    std::thread::id running_thread GUARDED_BY(mutex);

    std::atomic<bool> alive{true};
  };
  using EndpointPtr = std::shared_ptr<Endpoint>;

  struct Worker {
    // Run queue: owner pops the back (LIFO, cache-warm), thieves and the
    // owner-after-own-work take the front (FIFO, oldest first).
    base::Mutex mutex{base::lock_rank::kScheduler};
    std::deque<EndpointPtr> queue GUARDED_BY(mutex);
    std::thread thread;
  };

  // Socket registrations handed to the reactor thread (it alone touches
  // epoll and closes listeners) alongside an eventfd kick.
  struct ControlOp {
    enum class Kind : std::uint8_t {
      kAddListener,
      kRemoveListener,  // closes the listener and the streams it accepted
      kStop,
    } kind;
    int fd = -1;
  };

  EndpointPtr find(EndpointId id) const;
  static bool pop_one(const EndpointPtr& ep, Envelope& out);

  // --- scheduler ---
  void schedule(const EndpointPtr& ep);  // endpoint must be kScheduled
  void worker_loop(Worker* self);
  EndpointPtr next_endpoint(Worker* self);
  void run_endpoint(const EndpointPtr& ep);
  void spawn_worker() REQUIRES(pool_mutex_);

  // --- reactor ---
  void reactor_loop();
  // Returns the op's ticket: the reactor has carried it out once
  // control_done_ reaches it.
  std::uint64_t post_control(ControlOp op);
  void close_listener(const Endpoint& ep);

  const EpollOptions options_;

  std::unordered_map<std::uint64_t, EndpointPtr> endpoints_
      GUARDED_BY(map_mutex_);
  std::uint64_t next_endpoint_ GUARDED_BY(map_mutex_) = 1;

  // One shared listener per host (lazily bound on the host's first
  // endpoint): HostId -> listener port, for stamping Endpoint::host_port.
  base::Mutex listeners_mutex_{base::lock_rank::kListeners};
  std::unordered_map<std::uint32_t, std::uint16_t> listener_ports_
      GUARDED_BY(listeners_mutex_);

  // Worker pool. `workers_` only grows (spares are kept until teardown);
  // elements are stable unique_ptrs so lock-free readers of a Worker* are
  // fine once they hold a pointer.
  mutable base::Mutex pool_mutex_{base::lock_rank::kWorkerPool};
  std::vector<std::unique_ptr<Worker>> workers_ GUARDED_BY(pool_mutex_);
  std::size_t blocked_workers_ GUARDED_BY(pool_mutex_) = 0;
  std::size_t target_workers_ = 0;  // immutable after construction

  // Injector queue for submissions from non-worker threads (the reactor,
  // external posters) plus the sleep/wake epoch for idle workers.
  base::Mutex sched_mutex_{base::lock_rank::kScheduler};
  base::CondVar sched_cv_;
  std::deque<EndpointPtr> injector_ GUARDED_BY(sched_mutex_);
  std::uint64_t sched_epoch_ GUARDED_BY(sched_mutex_) = 0;
  bool sched_stopping_ GUARDED_BY(sched_mutex_) = false;

  // Reactor control: ops + eventfd kick. The reactor drains ops whenever
  // the eventfd fires, then publishes the last ticket it carried out
  // (~0 once it has exited) for close_listener to wait on.
  base::Mutex reactor_mutex_{base::lock_rank::kReactorControl};
  base::CondVar control_cv_;
  std::vector<ControlOp> control_ops_ GUARDED_BY(reactor_mutex_);
  std::uint64_t control_posted_ GUARDED_BY(reactor_mutex_) = 0;
  std::uint64_t control_done_ GUARDED_BY(reactor_mutex_) = 0;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread reactor_;

  base::Mutex rng_mutex_{base::lock_rank::kRng};
  Rng rng_ GUARDED_BY(rng_mutex_);

  // Client-side connection pool: keyed by host listener port (TCP) or by
  // endpoint id (Unix-domain).
  ConnPool pool_;

  obs::Counter& io_retries_{metrics_.counter("rt.eintr_retries")};
  // accept() failures survived without deafening a listener (ECONNABORTED
  // retries, fd-exhaustion backoffs), Unix-domain listeners included.
  obs::Counter& accept_retries_{metrics_.counter("rt.tcp.accept_retries")};
  // Spare workers spawned to cover blocked ones (wakeups visible in tests
  // exercising deep nested call chains).
  obs::Counter& spares_spawned_{metrics_.counter("rt.epoll.spare_workers")};

  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace legion::rt
