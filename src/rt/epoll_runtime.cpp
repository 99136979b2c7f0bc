#include "rt/epoll_runtime.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <unordered_set>

#include "rt/frame.hpp"
#include "rt/socket_util.hpp"

namespace legion::rt {

namespace {

// Upper bound on one wait() sleep for predicates another thread may satisfy
// without waking this endpoint; deliveries and notify() wake it at once.
constexpr auto kForeignPredicateSlice = std::chrono::milliseconds(50);

// Messages one scheduled mailbox may drain before yielding the worker —
// bounds per-endpoint monopolization without giving up batching.
constexpr int kRunBudget = 32;

// How long a host listener stays parked (removed from epoll) after an
// fd-exhaustion accept failure before the reactor re-arms it.
constexpr auto kAcceptBackoff = std::chrono::milliseconds(5);

// Identifies worker threads (for work-stealing push targets and blocked
// compensation) and the endpoint a thread is currently servicing (so a
// nested wait() may keep draining that endpoint inline). Keyed by runtime
// pointer: multiple EpollRuntimes in one process must not cross wires.
struct WorkerTls {
  const void* runtime = nullptr;
  void* worker = nullptr;
  std::uint64_t current_endpoint = 0;
};
thread_local WorkerTls tl_worker;

}  // namespace

// Announces "this worker is about to block" to the pool, which spawns a
// bounded spare if the unblocked complement dropped below target. Spares
// are ordinary workers and persist until teardown — churn-free, and the
// steady-state thread count stays a small constant.
EpollRuntime::BlockedScope::BlockedScope(EpollRuntime* rt) {
  if (tl_worker.runtime != rt) return;  // external thread: nothing to cover
  rt_ = rt;
  base::MutexLock lock(rt->pool_mutex_);
  ++rt->blocked_workers_;
  const std::size_t cap = rt->target_workers_ * 16 + 8;
  if (rt->workers_.size() - rt->blocked_workers_ < rt->target_workers_ &&
      rt->workers_.size() < cap) {
    rt->spawn_worker();
    rt->spares_spawned_.inc();
  }
}

EpollRuntime::BlockedScope::~BlockedScope() {
  if (!rt_) return;
  base::MutexLock lock(rt_->pool_mutex_);
  --rt_->blocked_workers_;
}

EpollRuntime::EpollRuntime() : EpollRuntime(EpollOptions{}) {}

EpollRuntime::EpollRuntime(EpollOptions options)
    : EpollRuntime(options, std::string{}) {}

EpollRuntime::EpollRuntime(EpollOptions options, std::string socket_dir)
    : socket_dir_(std::move(socket_dir)),
      options_(options),
      rng_(options.seed),
      pool_(options_.tcp, metrics_,
            socket_dir_.empty() ? ConnPool::LoopbackDialer()
                                : ConnPool::UnixDialer(socket_dir_),
            socket_dir_.empty() ? "rt.tcp" : "rt.proc.pool"),
      epoch_(std::chrono::steady_clock::now()) {
  target_workers_ =
      options_.workers != 0
          ? options_.workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  reactor_ = std::thread([this] { reactor_loop(); });
  base::MutexLock lock(pool_mutex_);
  for (std::size_t i = 0; i < target_workers_; ++i) spawn_worker();
}

EpollRuntime::~EpollRuntime() {
  shutdown();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EpollRuntime::shutdown() {
  if (!reactor_.joinable()) return;
  // 1. Stop the reactor first: no mailbox grows after this, so the drains
  //    below terminate. The reactor closes every conn and listener it owns.
  post_control({ControlOp::Kind::kStop, -1});
  reactor_.join();

  // 2. Mark every endpoint stopping so blocked waiters wake promptly.
  std::vector<EndpointPtr> eps;
  {
    base::WriterMutexLock lock(map_mutex_);
    for (auto& [_, ep] : endpoints_) eps.push_back(ep);
    endpoints_.clear();
  }
  for (auto& ep : eps) {
    ep->alive.store(false);
    if (ep->listen_fd >= 0) {
      ::unlink(ConnPool::UnixSocketPath(socket_dir_, ep->id.value).c_str());
    }
    {
      base::MutexLock lock(ep->mutex);
      ep->stopping = true;
      ++ep->wakeups;
    }
    ep->cv.notify_all();
  }

  // 3. Stop the scheduler; workers drain whatever is still queued, then
  //    exit. Join outside pool_mutex_ (workers take it in BlockedScope).
  {
    base::MutexLock lock(sched_mutex_);
    sched_stopping_ = true;
    ++sched_epoch_;
  }
  sched_cv_.notify_all();
  std::vector<std::thread> threads;
  {
    base::MutexLock lock(pool_mutex_);
    for (auto& w : workers_) threads.push_back(std::move(w->thread));
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  pool_.close_all();
}

void EpollRuntime::spawn_worker() {
  auto w = std::make_unique<Worker>();
  Worker* wp = w.get();
  workers_.push_back(std::move(w));
  wp->thread = std::thread([this, wp] { worker_loop(wp); });
}

std::size_t EpollRuntime::runtime_threads() const {
  base::MutexLock lock(pool_mutex_);
  return workers_.size() + 1;  // + the reactor
}

EndpointId EpollRuntime::create_endpoint(HostId host, std::string label,
                                         MessageHandler handler,
                                         ExecutionMode mode) {
  assert(topology_.host(host) != nullptr && "endpoint on unknown host");
  auto ep = std::make_shared<Endpoint>();
  ep->host = host;
  ep->label = std::move(label);
  ep->handler = std::move(handler);
  ep->mode = mode;

  // Resolve (or lazily bind) the host's shared listener. Creating the
  // endpoint costs no thread and no fd beyond its host's one listener —
  // that is the whole 1M-objects-per-box argument.
  if (socket_dir_.empty()) {
    base::MutexLock lock(listeners_mutex_);
    auto it = listener_ports_.find(host.value);
    if (it != listener_ports_.end()) {
      ep->host_port = it->second;
    } else {
      const ListenerSocket listener =
          CreateLoopbackListener(0, options_.tcp.listen_backlog);
      if (listener.fd < 0) return EndpointId{};
      SetNonBlocking(listener.fd);
      listener_ports_.emplace(host.value, listener.port);
      ep->host_port = listener.port;
      post_control({ControlOp::Kind::kAddListener, listener.fd});
    }
  }

  EndpointId id;
  {
    base::WriterMutexLock lock(map_mutex_);
    id = EndpointId{next_endpoint_id()};
    if (!socket_dir_.empty()) {
      // Bound before the endpoint is published: a worker process tells its
      // parent it is dialable as soon as create_endpoint returns.
      ep->listen_fd =
          CreateUnixListener(ConnPool::UnixSocketPath(socket_dir_, id.value),
                             options_.tcp.listen_backlog);
      if (ep->listen_fd < 0) return EndpointId{};
      SetNonBlocking(ep->listen_fd);
    }
    ep->id = id;
    endpoints_.emplace(id.value, ep);
  }
  if (ep->listen_fd >= 0) {
    post_control({ControlOp::Kind::kAddListener, ep->listen_fd});
  }
  return id;
}

std::uint64_t EpollRuntime::next_endpoint_id() { return next_endpoint_++; }

void EpollRuntime::close_endpoint(EndpointId id) {
  EndpointPtr ep = find(id);
  if (!ep) return;
  {
    base::WriterMutexLock lock(map_mutex_);
    endpoints_.erase(id.value);
  }
  ep->alive.store(false);
  if (ep->listen_fd >= 0) close_listener(*ep);
  bool self_running = false;
  {
    base::MutexLock lock(ep->mutex);
    ep->stopping = true;
    ++ep->wakeups;
    self_running = ep->mstate == MailboxState::kRunning &&
                   ep->running_thread == std::this_thread::get_id();
  }
  ep->cv.notify_all();
  if (self_running) return;  // self-close from its own handler: no wait
  // Join-on-close: when close_endpoint returns, no handler for this
  // endpoint is running and none will start. A worker drains any queued
  // messages first (drain-then-exit).
  BlockedScope blocked(this);
  base::MutexLock lock(ep->mutex);
  while (ep->mstate != MailboxState::kIdle) ep->cv.wait(ep->mutex);
}

bool EpollRuntime::endpoint_alive(EndpointId id) const {
  EndpointPtr ep = find(id);
  return ep && ep->alive.load();
}

HostId EpollRuntime::host_of(EndpointId id) const {
  EndpointPtr ep = find(id);
  return ep ? ep->host : HostId{};
}

std::uint16_t EpollRuntime::port_of(EndpointId id) const {
  EndpointPtr ep = find(id);
  return ep ? ep->host_port : 0;
}

EpollRuntime::EndpointPtr EpollRuntime::find(EndpointId id) const {
  base::ReaderMutexLock lock(map_mutex_);
  auto it = endpoints_.find(id.value);
  return it == endpoints_.end() ? nullptr : it->second;
}

Status EpollRuntime::post(Envelope env) {
  EndpointPtr src = find(env.src);
  if (!src) return InternalError("post from unknown endpoint");
  EndpointPtr dst = find(env.dst);
  net::LatencyClass cls = net::LatencyClass::kSameHost;
  if (dst) {
    if (!dst->alive.load()) {
      return StaleBindingError("destination endpoint closed");
    }
    cls = topology_.classify(src->host, dst->host);
    // Fault checks need the shared RNG; skip the lock entirely on the
    // (common) fault-free configuration. Consulting the plan here lets
    // recovery/partition experiments run over real sockets.
    if (faults_.any_faults() && dropped_by_faults(src->host, dst->host, cls)) {
      return OkStatus();
    }
  } else if (socket_dir_.empty()) {
    return StaleBindingError("destination endpoint closed");
  }
  // An unknown Unix-domain destination is a peer process's endpoint: dial
  // it, and let ENOENT at its socket file classify as the stale binding it
  // is.

  Status st = pool_.send(socket_dir_.empty() ? dst->host_port : env.dst.value,
                         env);
  if (!st.ok()) return st;

  {
    base::MutexLock lock(src->mutex);
    src->stats.sent += 1;
    src->stats.bytes_sent += env.payload.size();
  }
  transport_.delivered.inc();
  if (dst) transport_.by_class[static_cast<std::size_t>(cls)]->inc();
  return OkStatus();
}

bool EpollRuntime::dropped_by_faults(HostId src, HostId dst,
                                     net::LatencyClass cls) {
  base::MutexLock lock(rng_mutex_);
  if (!faults_.should_drop(src, dst, cls, rng_)) return false;
  transport_.dropped.inc();
  return true;
}

void EpollRuntime::enqueue(Envelope env) {
  EndpointPtr ep = find(env.dst);
  if (!ep || !ep->alive.load()) return;
  bool sched = false;
  {
    base::MutexLock lock(ep->mutex);
    if (ep->stopping) return;
    ep->stats.received += 1;
    ep->stats.bytes_received += env.payload.size();
    env.queued_at = now();  // enqueue stamp: queue time = dequeue - this
    ep->inbox.push_back(std::move(env));
    ++ep->wakeups;
    if (ep->mode == ExecutionMode::kServiced &&
        ep->mstate == MailboxState::kIdle) {
      ep->mstate = MailboxState::kScheduled;
      sched = true;
    }
  }
  ep->cv.notify_all();
  if (sched) schedule(ep);
}

void EpollRuntime::schedule(const EndpointPtr& ep) {
  Worker* self = tl_worker.runtime == this
                     ? static_cast<Worker*>(tl_worker.worker)
                     : nullptr;
  if (self != nullptr) {
    base::MutexLock lock(self->mutex);
    self->queue.push_back(ep);
  } else {
    base::MutexLock lock(sched_mutex_);
    injector_.push_back(ep);
  }
  // Wake a sleeper either way: a busy worker's own pushes are stealable.
  {
    base::MutexLock lock(sched_mutex_);
    ++sched_epoch_;
  }
  sched_cv_.notify_one();
}

EpollRuntime::EndpointPtr EpollRuntime::next_endpoint(Worker* self) {
  {
    base::MutexLock lock(self->mutex);
    if (!self->queue.empty()) {
      EndpointPtr ep = std::move(self->queue.back());  // LIFO: cache-warm
      self->queue.pop_back();
      return ep;
    }
  }
  {
    base::MutexLock lock(sched_mutex_);
    if (!injector_.empty()) {
      EndpointPtr ep = std::move(injector_.front());
      injector_.pop_front();
      return ep;
    }
  }
  // Steal oldest-first from victims. Worker objects are stable (the vector
  // only grows and elements are unique_ptrs), so the snapshot stays valid
  // after pool_mutex_ is dropped.
  std::vector<Worker*> victims;
  {
    base::MutexLock lock(pool_mutex_);
    victims.reserve(workers_.size());
    for (auto& w : workers_) {
      if (w.get() != self) victims.push_back(w.get());
    }
  }
  for (Worker* v : victims) {
    base::MutexLock lock(v->mutex);
    if (!v->queue.empty()) {
      EndpointPtr ep = std::move(v->queue.front());
      v->queue.pop_front();
      return ep;
    }
  }
  return nullptr;
}

void EpollRuntime::worker_loop(Worker* self) {
  tl_worker = WorkerTls{this, self, 0};
  for (;;) {
    // Epoch before scan: any push completed after this read bumps the epoch
    // and aborts the sleep below, so no wakeup can be lost between "found
    // nothing" and "went to sleep".
    std::uint64_t seen;
    bool stopping;
    {
      base::MutexLock lock(sched_mutex_);
      seen = sched_epoch_;
      stopping = sched_stopping_;
    }
    EndpointPtr ep = next_endpoint(self);
    if (ep) {
      run_endpoint(ep);
      continue;
    }
    if (stopping) return;  // scanned everything empty after the stop signal
    base::MutexLock lock(sched_mutex_);
    while (sched_epoch_ == seen && !sched_stopping_) {
      sched_cv_.wait(sched_mutex_);
    }
  }
}

void EpollRuntime::run_endpoint(const EndpointPtr& ep) {
  {
    base::MutexLock lock(ep->mutex);
    ep->mstate = MailboxState::kRunning;
    ep->running_thread = std::this_thread::get_id();
  }
  int used = 0;
  for (;;) {
    Envelope env;
    if (!pop_one(ep, env)) break;
    if (ep->handler) {
      const std::uint64_t prev = tl_worker.current_endpoint;
      tl_worker.current_endpoint = ep->id.value;
      ep->handler(std::move(env));
      tl_worker.current_endpoint = prev;
    }
    if (++used >= kRunBudget) break;
  }
  bool resched = false;
  {
    base::MutexLock lock(ep->mutex);
    ep->running_thread = std::thread::id{};
    if (ep->inbox_head < ep->inbox.size()) {
      // Budget exhausted with work left: back of the queue, not kIdle —
      // other mailboxes get their turn (and close_endpoint's drain-then-
      // close contract still holds because stopping blocks new arrivals).
      ep->mstate = MailboxState::kScheduled;
      resched = true;
    } else {
      ep->mstate = MailboxState::kIdle;
      ++ep->wakeups;  // close_endpoint may be waiting for exactly this
    }
  }
  ep->cv.notify_all();
  if (resched) schedule(ep);
}

bool EpollRuntime::pop_one(const EndpointPtr& ep, Envelope& out) {
  base::MutexLock lock(ep->mutex);
  if (ep->inbox_head >= ep->inbox.size()) return false;
  out = std::move(ep->inbox[ep->inbox_head++]);
  if (ep->inbox_head == ep->inbox.size()) {
    ep->inbox.clear();
    ep->inbox_head = 0;
  }
  return true;
}

void EpollRuntime::notify(EndpointId id) {
  EndpointPtr ep = find(id);
  if (!ep) return;
  {
    base::MutexLock lock(ep->mutex);
    ++ep->wakeups;
  }
  ep->cv.notify_all();
}

SimTime EpollRuntime::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

bool EpollRuntime::wait(EndpointId self, const std::function<bool()>& ready,
                        SimTime timeout_us) {
  EndpointPtr ep = find(self);
  if (!ep) return ready();
  // Inline servicing is only safe on the thread that owns this endpoint's
  // execution right now: the driver thread for kDriver endpoints, or the
  // worker whose handler is nested beneath this wait. Any other thread
  // draining the mailbox would break the one-runner-at-a-time guarantee.
  const bool may_service =
      ep->mode == ExecutionMode::kDriver ||
      (tl_worker.runtime == this && tl_worker.current_endpoint == self.value);
  const auto deadline =
      timeout_us == kSimTimeNever
          ? std::chrono::steady_clock::time_point::max()
          : std::chrono::steady_clock::now() +
                std::chrono::microseconds(timeout_us);
  for (;;) {
    if (ready()) return true;
    if (may_service) {
      Envelope env;
      if (pop_one(ep, env)) {
        if (ep->handler) ep->handler(std::move(env));
        continue;
      }
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return ready();
    // About to block: if this thread is a worker, the pool compensates so
    // the mailboxes this waiter depends on keep draining.
    BlockedScope blocked(this);
    base::MutexLock lock(ep->mutex);
    if (may_service && ep->inbox_head < ep->inbox.size()) continue;
    const std::uint64_t seen = ep->wakeups;
    const auto cap = ep->stopping ? now + std::chrono::milliseconds(1)
                                  : now + kForeignPredicateSlice;
    const auto until = std::min(deadline, cap);
    while (ep->wakeups == seen) {
      if (ep->cv.wait_until(ep->mutex, until)) break;  // timed out
    }
  }
}

void EpollRuntime::run_until_idle() {
  // Best-effort settle: inboxes empty and every mailbox back to kIdle twice
  // in a row (in-flight frames land between probes).
  for (int calm = 0; calm < 2;) {
    bool busy = false;
    {
      base::ReaderMutexLock lock(map_mutex_);
      for (const auto& [_, ep] : endpoints_) {
        base::MutexLock elock(ep->mutex);
        if (ep->inbox_head < ep->inbox.size() ||
            (ep->mode == ExecutionMode::kServiced &&
             ep->mstate != MailboxState::kIdle)) {
          busy = true;
          break;
        }
      }
    }
    calm = busy ? 0 : calm + 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------------
// Reactor: the one thread that touches epoll, every listener, and every
// accepted stream.

std::uint64_t EpollRuntime::post_control(ControlOp op) {
  std::uint64_t ticket;
  {
    base::MutexLock lock(reactor_mutex_);
    control_ops_.push_back(op);
    ticket = ++control_posted_;
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  return ticket;
}

// Peers dialling a closed Unix-domain endpoint meet ENOENT, the UDS stale
// binding. The reactor alone closes the listener (an fd closed on another
// thread could be reused before the reactor drops it from epoll), and it
// closes every stream accepted on it before this returns: a peer's pooled
// socket then fails on its next write and redials into ENOENT, instead of
// writing frames nobody reads.
void EpollRuntime::close_listener(const Endpoint& ep) {
  ::unlink(ConnPool::UnixSocketPath(socket_dir_, ep.id.value).c_str());
  const std::uint64_t ticket =
      post_control({ControlOp::Kind::kRemoveListener, ep.listen_fd});
  base::MutexLock lock(reactor_mutex_);
  while (control_done_ < ticket) control_cv_.wait(reactor_mutex_);
}

void EpollRuntime::reactor_loop() {
  // Per-stream incremental frame parser. All of this state is owned by the
  // reactor thread alone — no locks anywhere on the read path.
  struct Conn {
    int listener = -1;     // the listener that accepted this stream
    std::size_t have = 0;  // bytes of the current header/payload read so far
    std::uint32_t payload_len = 0;
    bool in_payload = false;
    std::uint8_t header[kFrameHeaderBytes];
    std::vector<std::uint8_t> payload;
    Envelope env;
  };
  std::unordered_map<int, Conn> conns;
  std::unordered_set<int> listeners;
  std::vector<int> parked;  // listeners pulled from epoll under fd pressure
  auto rearm_at = std::chrono::steady_clock::time_point::max();

  // Reads every complete frame currently buffered in the socket; returns
  // false when the stream is finished (EOF, error, corrupt or hostile
  // frame).
  auto drain = [this](int fd, Conn& c) -> bool {
    for (;;) {
      std::uint8_t* buf;
      std::size_t want;
      if (!c.in_payload) {
        buf = c.header + c.have;
        want = kFrameHeaderBytes - c.have;
      } else {
        buf = c.payload.data() + c.have;
        want = c.payload_len - c.have;
      }
      const ssize_t got = ::read(fd, buf, want);
      if (got < 0) {
        if (errno == EINTR) {
          io_retries_.inc();
          continue;
        }
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      if (got == 0) return false;  // peer closed (pool reap, shutdown)
      c.have += static_cast<std::size_t>(got);
      if (c.have < (c.in_payload ? c.payload_len : kFrameHeaderBytes)) {
        continue;  // partial read: come back on the next EPOLLIN
      }
      if (!c.in_payload) {
        c.payload_len = DecodeFrameHeader(c.header, c.env);
        c.have = 0;
        // Only data frames travel on a wire: bounces are made locally, so a
        // peer sending one is forging another endpoint's failure.
        if (c.env.kind != DeliveryKind::kData ||
            c.payload_len > kMaxFrameBytes) {
          return false;
        }
        if (c.payload_len > 0) {
          c.payload.resize(c.payload_len);
          c.in_payload = true;
          continue;
        }
      } else {
        c.env.payload = Buffer{std::move(c.payload)};
        c.payload = std::vector<std::uint8_t>{};
        c.in_payload = false;
        c.have = 0;
      }
      enqueue(std::move(c.env));
      c.env = Envelope{};
    }
  };

  bool running = true;
  epoll_event events[128];
  while (running) {
    int timeout_ms = -1;
    if (!parked.empty()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= rearm_at) {
        for (int fd : parked) {
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = fd;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
        }
        parked.clear();
        rearm_at = std::chrono::steady_clock::time_point::max();
      } else {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            rearm_at - now);
        timeout_ms = std::max<int>(1, static_cast<int>(left.count()));
      }
    }
    const int n = ::epoll_wait(epoll_fd_, events, 128, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) {
        io_retries_.inc();
        continue;
      }
      break;  // epoll fd itself is broken: nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t v;
        while (::read(wake_fd_, &v, sizeof v) > 0) {
        }
        std::vector<ControlOp> ops;
        std::uint64_t batch;
        {
          base::MutexLock lock(reactor_mutex_);
          ops.swap(control_ops_);
          batch = control_posted_;
        }
        for (const ControlOp& op : ops) {
          switch (op.kind) {
            case ControlOp::Kind::kAddListener: {
              listeners.insert(op.fd);
              epoll_event ev{};
              ev.events = EPOLLIN;
              ev.data.fd = op.fd;
              ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, op.fd, &ev);
              break;
            }
            case ControlOp::Kind::kRemoveListener:
              listeners.erase(op.fd);
              std::erase(parked, op.fd);
              ::close(op.fd);  // close() also drops an fd from epoll
              std::erase_if(conns, [&](const auto& entry) {
                if (entry.second.listener != op.fd) return false;
                ::close(entry.first);
                return true;
              });
              break;
            case ControlOp::Kind::kStop:
              running = false;
              break;
          }
        }
        {
          base::MutexLock lock(reactor_mutex_);
          control_done_ = batch;
        }
        control_cv_.notify_all();
      } else if (listeners.contains(fd)) {
        // Accept everything queued. Transient failures must never deafen a
        // listener.
        for (;;) {
          const int conn =
              ::accept4(fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (conn < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) {
              io_retries_.inc();
              continue;
            }
            if (errno == ECONNABORTED) {
              accept_retries_.inc();
              continue;  // peer hung up while queued: their loss only
            }
            if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                errno == ENOMEM) {
              // fd pressure: park the listener and retry shortly. Pending
              // connections wait in the (deep) backlog meanwhile.
              accept_retries_.inc();
              ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
              parked.push_back(fd);
              rearm_at = std::min(
                  rearm_at, std::chrono::steady_clock::now() + kAcceptBackoff);
              break;
            }
            break;  // unexpected (listener shut down mid-poll)
          }
          if (socket_dir_.empty()) {
            const int one = 1;
            ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
          }
          conns[conn].listener = fd;
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = conn;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn, &ev);
        }
      } else {
        auto it = conns.find(fd);
        if (it == conns.end()) continue;  // already closed this round
        if (!drain(fd, it->second)) {
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
          ::close(fd);
          conns.erase(it);
        }
      }
    }
  }
  for (auto& [fd, _] : conns) ::close(fd);
  for (int fd : listeners) ::close(fd);  // parked ones included
  {
    base::MutexLock lock(reactor_mutex_);
    control_done_ = ~std::uint64_t{0};  // nothing further will be carried out
  }
  control_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Introspection.

RuntimeStats EpollRuntime::stats() const { return transport_.view(); }

EndpointStats EpollRuntime::endpoint_stats(EndpointId id) const {
  EndpointPtr ep = find(id);
  if (!ep) return EndpointStats{};
  base::MutexLock lock(ep->mutex);
  return ep->stats;
}

std::map<std::string, std::uint64_t> EpollRuntime::received_by_label() const {
  std::map<std::string, std::uint64_t> out;
  base::ReaderMutexLock lock(map_mutex_);
  for (const auto& [_, ep] : endpoints_) {
    base::MutexLock elock(ep->mutex);
    out[ep->label] += ep->stats.received;
  }
  return out;
}

std::uint64_t EpollRuntime::max_received_with_label(
    const std::string& label) const {
  std::uint64_t best = 0;
  base::ReaderMutexLock lock(map_mutex_);
  for (const auto& [_, ep] : endpoints_) {
    if (ep->label != label) continue;
    base::MutexLock elock(ep->mutex);
    best = std::max(best, ep->stats.received);
  }
  return best;
}

void EpollRuntime::reset_stats() {
  transport_.reset();
  base::ReaderMutexLock lock(map_mutex_);
  for (const auto& [_, ep] : endpoints_) {
    base::MutexLock elock(ep->mutex);
    ep->stats = EndpointStats{};
  }
}

}  // namespace legion::rt
