#include "rt/process_runtime.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "rt/spawn_child.hpp"

namespace legion::rt {
namespace {

// The first byte of a Messenger frame payload (Messenger's private
// FrameKind). The transport peeks it only to distinguish requests (tracked
// while in flight to a child, bounced on its death) from replies.
constexpr std::uint8_t kMessengerRequest = 1;
constexpr std::uint8_t kMessengerReply = 2;

// True, with the call id, when `env` is a Messenger frame of kind `want`.
bool PeekMessengerFrame(const Envelope& env, std::uint8_t want,
                        std::uint64_t& call_id) {
  if (env.kind != DeliveryKind::kData) return false;
  Reader r(env.payload);
  const std::uint8_t kind = r.u8();
  call_id = r.u64();
  return r.ok() && kind == want;
}

// A parent sizes its pool to the machine; a worker process serves one
// object, and spare workers already cover its nested waits.
EpollOptions KernelOptions(const ProcessOptions& options) {
  EpollOptions out;
  out.tcp = options.tcp;
  out.workers = options.worker_endpoint_id != 0 ? 1 : 0;
  return out;
}

bool WriteFile(const std::string& path, const Buffer& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const auto span = bytes.span();
  out.write(reinterpret_cast<const char*>(span.data()),
            static_cast<std::streamsize>(span.size()));
  return static_cast<bool>(out);
}

// Blocks until the worker writes its ready byte ('R') to the handshake
// pipe, the pipe closes (exec failed / worker died before binding), or the
// deadline passes. Any outcome but the ready byte is a failed spawn.
bool AwaitReadyByte(int fd, SimTime timeout_us) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // timed out
    char byte = 0;
    const ssize_t n = ::read(fd, &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    return n == 1 && byte == 'R';
  }
}

}  // namespace

ProcessRuntime::SocketDir ProcessRuntime::ResolveSocketDir(
    const ProcessOptions& options) {
  if (!options.socket_dir.empty()) return {options.socket_dir, false};
  // Keep the template short: every endpoint's `<dir>/ep-<id>.sock` must fit
  // sockaddr_un's ~107-byte path (socket_util.hpp).
  char tmpl[] = "/tmp/legion.XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) return {"/tmp", false};
  return {tmpl, true};
}

ProcessRuntime::ProcessRuntime() : ProcessRuntime(ProcessOptions{}) {}

ProcessRuntime::ProcessRuntime(ProcessOptions options)
    : ProcessRuntime(options, ResolveSocketDir(options)) {}

ProcessRuntime::ProcessRuntime(ProcessOptions options, SocketDir dir)
    : EpollRuntime(KernelOptions(options), std::move(dir.path)),
      options_(std::move(options)),
      owns_socket_dir_(dir.owned) {
  child_log_dir_ = options_.child_log_dir;
  if (child_log_dir_.empty()) {
    if (const char* env = std::getenv("LEGION_CHILD_LOG_DIR")) {
      child_log_dir_ = env;
    }
  }
  if (!worker_mode()) {
    // The fault plan's child faults act through us: kStop/kResume map to
    // SIGSTOP/SIGCONT (wedged-but-alive), kKill to kill -9 (the crash path:
    // no reap here — the reaper thread discovers the death).
    faults_.set_child_fault_injector(
        [this](std::uint64_t endpoint, net::ChildFault fault) -> Status {
          switch (fault) {
            case net::ChildFault::kKill:
              return kill_child(EndpointId{endpoint});
            case net::ChildFault::kStop:
              return pause_child(EndpointId{endpoint});
            case net::ChildFault::kResume:
              return resume_child(EndpointId{endpoint});
          }
          return InvalidArgumentError("unknown child fault");
        });
    reaper_ = std::thread([this] { reaper_loop(); });
  }
}

ProcessRuntime::~ProcessRuntime() {
  stopping_.store(true);
  if (reaper_.joinable()) reaper_.join();

  // Kill and reap every worker still alive. SIGKILL works on SIGSTOPped
  // children too, and the blocking waitpid tolerates ECHILD when the reaper
  // already collected the status.
  std::vector<std::int64_t> pids;
  {
    base::MutexLock lock(children_mutex_);
    for (auto& [_, child] : children_) {
      if (child.alive && child.pid > 0) {
        pids.push_back(child.pid);
        child.alive = false;
      }
    }
  }
  for (const std::int64_t pid : pids) {
    ::kill(static_cast<pid_t>(pid), SIGKILL);
    int status = 0;
    (void)::waitpid(static_cast<pid_t>(pid), &status, 0);
  }

  // The reactor and the handlers call back into this object (enqueue,
  // post): stop them while every member still lives.
  shutdown();
  if (owns_socket_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(socket_dir_, ec);
  }
}

std::uint64_t ProcessRuntime::next_endpoint_id() {
  if (!worker_mode()) return EpollRuntime::next_endpoint_id();
  // The first endpoint takes the id the parent assigned (its published
  // binding routes here); later ones get ids in a shifted namespace no
  // parent-side allocation collides with.
  const std::uint64_t n = next_local_endpoint_++;
  return n == 0 ? options_.worker_endpoint_id
                : (options_.worker_endpoint_id << 16) + n;
}

bool ProcessRuntime::endpoint_alive(EndpointId id) const {
  return EpollRuntime::endpoint_alive(id) || child_alive(id);
}

HostId ProcessRuntime::host_of(EndpointId id) const {
  const HostId local = EpollRuntime::host_of(id);
  if (local.valid()) return local;
  base::MutexLock lock(children_mutex_);
  auto it = children_.find(id.value);
  return it != children_.end() ? it->second.host : HostId{};
}

Status ProcessRuntime::post(Envelope env) {
  if (worker_mode()) return EpollRuntime::post(std::move(env));
  // A child's endpoint is not in the kernel's map, so the kernel dials it
  // unseen: the fault plan and the in-flight table are consulted here.
  const HostId src_host = faults_.any_faults() ? host_of(env.src) : HostId{};
  std::uint64_t call_id = 0;
  bool tracked = false;
  {
    base::MutexLock lock(children_mutex_);
    auto it = children_.find(env.dst.value);
    if (it != children_.end()) {
      Child& child = it->second;
      if (!child.alive) return StaleBindingError("worker process exited");
      if (src_host.valid() &&
          dropped_by_faults(src_host, child.host,
                            topology_.classify(src_host, child.host))) {
        return OkStatus();
      }
      if (PeekMessengerFrame(env, kMessengerRequest, call_id)) {
        if (child.outstanding.size() >= kMaxOutstanding) {
          return UnavailableError("worker call backlog full");
        }
        child.outstanding.emplace(call_id, env.src);
        tracked = true;
      }
    }
  }
  const EndpointId dst = env.dst;
  Status st = EpollRuntime::post(std::move(env));
  if (!st.ok() && tracked) {
    base::MutexLock lock(children_mutex_);
    auto it = children_.find(dst.value);
    if (it != children_.end()) it->second.outstanding.erase(call_id);
  }
  return st;
}

void ProcessRuntime::enqueue(Envelope env) {
  std::uint64_t call_id = 0;
  if (!worker_mode() && PeekMessengerFrame(env, kMessengerReply, call_id)) {
    base::MutexLock lock(children_mutex_);
    auto it = children_.find(env.src.value);
    if (it != children_.end()) it->second.outstanding.erase(call_id);
  }
  EpollRuntime::enqueue(std::move(env));
}

// --- ProcessControl ---------------------------------------------------

Result<SpawnInfo> ProcessRuntime::spawn_object(const SpawnSpec& spec) {
  if (worker_mode()) {
    return UnimplementedError("workers do not spawn grandchildren");
  }
  if (spec.executable.empty()) {
    return InvalidArgumentError("spawn spec names no executable");
  }
  if (::access(spec.executable.c_str(), X_OK) != 0) {
    return NotFoundError("worker executable not runnable: " + spec.executable);
  }

  // The child's endpoint id comes from the same allocator as local
  // endpoints, so ids never collide across the spawn/create interleaving.
  std::uint64_t id = 0;
  {
    base::WriterMutexLock lock(map_mutex_);
    id = next_endpoint_id();
  }

  // Stage the OPR and handles as files: the worker's whole activation input
  // is on disk, which is exactly the paper's claim — an executable plus a
  // persistent representation suffice to revive the object anywhere.
  const std::string stem = socket_dir_ + "/child-" + std::to_string(id);
  const std::string opr_path = stem + ".opr";
  const std::string handles_path = stem + ".handles";
  if (!WriteFile(opr_path, spec.opr_bytes) ||
      !WriteFile(handles_path, spec.handles_bytes)) {
    return UnavailableError("cannot stage worker inputs in " + socket_dir_);
  }

  int ready[2] = {-1, -1};
  if (::pipe2(ready, O_CLOEXEC) != 0) {
    return UnavailableError("pipe2 failed: errno " + std::to_string(errno));
  }

  SpawnChildArgs args;
  args.executable = spec.executable;
  args.argv = {spec.executable,
               "--socket-dir", socket_dir_,
               "--endpoint-id", std::to_string(id),
               "--opr", opr_path,
               "--handles", handles_path,
               "--ready-fd", "3"};
  args.ready_fd = ready[1];
  if (!child_log_dir_.empty()) {
    args.stderr_path =
        child_log_dir_ + "/child-" + std::to_string(id) + ".stderr.log";
  }

  Result<std::int64_t> spawned = SpawnChild(args);
  ::close(ready[1]);
  if (!spawned.ok()) {
    ::close(ready[0]);
    return spawned.status();
  }
  const std::int64_t pid = *spawned;

  // The worker writes 'R' to fd 3 only after its listener is bound, so a
  // successful handshake means the returned endpoint is immediately
  // dialable. EOF without the byte is how exec failure (_exit(127)) and
  // early crashes surface. A host object's handler runs this on a pool
  // worker, and the wait can take seconds: the pool covers it.
  BlockedScope blocked(this);
  const bool became_ready = AwaitReadyByte(ready[0], options_.spawn_timeout_us);
  ::close(ready[0]);
  if (!became_ready) {
    ::kill(static_cast<pid_t>(pid), SIGKILL);
    int status = 0;
    (void)::waitpid(static_cast<pid_t>(pid), &status, 0);
    return UnavailableError("worker failed ready handshake: " +
                            spec.executable);
  }

  bool respawn = false;
  {
    base::MutexLock lock(children_mutex_);
    Child child;
    child.endpoint = EndpointId{id};
    child.pid = pid;
    child.label = spec.label;
    child.host = spec.host;
    children_.insert_or_assign(id, std::move(child));
    respawn = ++spawn_counts_[spec.label] > 1;
  }
  live_children_.add(1);
  spawns_.inc();
  if (respawn) respawns_.inc();
  return SpawnInfo{EndpointId{id}, pid};
}

Status ProcessRuntime::stop_child(EndpointId endpoint) {
  std::int64_t pid = -1;
  bool paused = false;
  {
    base::MutexLock lock(children_mutex_);
    auto it = children_.find(endpoint.value);
    if (it == children_.end()) {
      return NotFoundError("no child serves endpoint " +
                           std::to_string(endpoint.value));
    }
    if (!it->second.alive) return OkStatus();  // already down and bounced
    pid = it->second.pid;
    paused = it->second.paused;
  }
  // A SIGSTOPped child cannot act on SIGTERM; continue it first so the
  // graceful phase is real rather than a guaranteed SIGKILL.
  if (paused) ::kill(static_cast<pid_t>(pid), SIGCONT);
  ::kill(static_cast<pid_t>(pid), SIGTERM);
  BlockedScope blocked(this);  // the grace loop below can take seconds
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(options_.stop_grace_us);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
    if (r == static_cast<pid_t>(pid) || (r < 0 && errno == ECHILD)) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(static_cast<pid_t>(pid), SIGKILL);
      (void)::waitpid(static_cast<pid_t>(pid), &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  mark_child_dead(endpoint.value);
  return OkStatus();
}

Status ProcessRuntime::kill_child(EndpointId endpoint) {
  std::int64_t pid = -1;
  {
    base::MutexLock lock(children_mutex_);
    auto it = children_.find(endpoint.value);
    if (it == children_.end()) {
      return NotFoundError("no child serves endpoint " +
                           std::to_string(endpoint.value));
    }
    if (!it->second.alive) return OkStatus();
    pid = it->second.pid;
  }
  // Deliberately no reap and no bookkeeping here: the process dies exactly
  // as a real crash would, and the reaper thread discovers it — the test
  // surface and the production surface are the same code path.
  ::kill(static_cast<pid_t>(pid), SIGKILL);
  return OkStatus();
}

Status ProcessRuntime::pause_child(EndpointId endpoint) {
  base::MutexLock lock(children_mutex_);
  auto it = children_.find(endpoint.value);
  if (it == children_.end() || !it->second.alive) {
    return NotFoundError("no live child serves endpoint " +
                         std::to_string(endpoint.value));
  }
  if (::kill(static_cast<pid_t>(it->second.pid), SIGSTOP) != 0) {
    return UnavailableError("SIGSTOP failed: errno " + std::to_string(errno));
  }
  it->second.paused = true;
  return OkStatus();
}

Status ProcessRuntime::resume_child(EndpointId endpoint) {
  base::MutexLock lock(children_mutex_);
  auto it = children_.find(endpoint.value);
  if (it == children_.end() || !it->second.alive) {
    return NotFoundError("no live child serves endpoint " +
                         std::to_string(endpoint.value));
  }
  if (::kill(static_cast<pid_t>(it->second.pid), SIGCONT) != 0) {
    return UnavailableError("SIGCONT failed: errno " + std::to_string(errno));
  }
  it->second.paused = false;
  return OkStatus();
}

bool ProcessRuntime::child_alive(EndpointId endpoint) const {
  base::MutexLock lock(children_mutex_);
  auto it = children_.find(endpoint.value);
  return it != children_.end() && it->second.alive;
}

std::vector<ChildInfo> ProcessRuntime::children() const {
  std::vector<ChildInfo> out;
  base::MutexLock lock(children_mutex_);
  out.reserve(children_.size());
  for (const auto& [_, child] : children_) {
    out.push_back(ChildInfo{child.endpoint, child.pid, child.label, child.host,
                            child.alive});
  }
  return out;
}

void ProcessRuntime::reaper_loop() {
  while (!stopping_.load()) {
    std::vector<std::pair<std::uint64_t, std::int64_t>> live;
    {
      base::MutexLock lock(children_mutex_);
      live.reserve(children_.size());
      for (const auto& [endpoint, child] : children_) {
        if (child.alive && child.pid > 0) live.emplace_back(endpoint, child.pid);
      }
    }
    for (const auto& [endpoint, pid] : live) {
      int status = 0;
      const pid_t r = ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
      if (r == static_cast<pid_t>(pid)) {
        // The zombie is collected and its calls bounce; a paused child
        // reports no state change (WUNTRACED unset) and stays alive here.
        zombie_reaps_.inc();
        mark_child_dead(endpoint);
      } else if (r < 0 && errno == ECHILD) {
        // A concurrent stop_child won the waitpid race; just bookkeep.
        mark_child_dead(endpoint);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void ProcessRuntime::mark_child_dead(std::uint64_t endpoint_value) {
  std::unordered_map<std::uint64_t, EndpointId> outstanding;
  {
    base::MutexLock lock(children_mutex_);
    auto it = children_.find(endpoint_value);
    if (it == children_.end() || !it->second.alive) return;
    it->second.alive = false;
    it->second.paused = false;
    outstanding.swap(it->second.outstanding);
  }
  live_children_.sub(1);
  // Phase 2 (children lock released): synthesize one kBounceUnavailable per
  // unanswered call, echoing the request prefix the Messenger's bounce
  // parser expects, so callers fail kUnavailable now instead of timing out.
  for (const auto& [call_id, caller] : outstanding) {
    Envelope bounce;
    bounce.src = EndpointId{endpoint_value};
    bounce.dst = caller;
    bounce.kind = DeliveryKind::kBounceUnavailable;
    Writer w(bounce.payload);
    w.u8(kMessengerRequest);
    w.u64(call_id);
    bounced_unavailable_.inc();
    transport_.bounced.inc();
    EpollRuntime::enqueue(std::move(bounce));
  }
}

}  // namespace legion::rt
