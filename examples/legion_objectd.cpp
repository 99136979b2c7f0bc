// legion_objectd: the worker binary ProcessRuntime fork/execs, one process
// per Legion object.
//
// This is the paper's activation story made literal: the parent hands over
// an OPR (implementation spec + saved state + this executable's own path)
// and the system handles, both staged as files, plus a socket directory and
// a parent-assigned endpoint id. The worker activates the object in its own
// address space, binds `<dir>/ep-<id>.sock`, and serves method calls until
// stopped (SIGTERM from stop_child) or killed (the kill -9 fault path). A
// magistrate that has never linked against the object's code can therefore
// start, checkpoint, kill, and revive it — everything needed travels in the
// OPR.
//
// Exit codes (surfaced through the parent's ready-handshake timeout or the
// child stderr logs CI collects):
//   2 = bad command line        4 = activation (restore/instantiate) failed
//   3 = inherited-fd leak       5 = cannot read staged input files
//   (127/126 come from rt/spawn_child.cpp: exec / dup2 failure.)

#include <dirent.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/active_object.hpp"
#include "core/implementation_registry.hpp"
#include "persist/opr.hpp"
#include "rt/process_runtime.hpp"
#include "sim/sample_objects.hpp"

namespace {

using namespace legion;

// Every legion socket is CLOEXEC by construction (rt/socket_util.hpp) and
// spawn_child dup2s exactly one descriptor — the ready pipe — onto fd 3. So
// a freshly exec'ed worker must see nothing but stdio and that pipe; any
// other inherited fd is a leak into an address-space-disjoint object (a
// sibling's socket, the parent's vault file) and grounds to refuse to run.
bool OnlyExpectedFdsInherited(int ready_fd) {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return true;  // no procfs: nothing to check
  const int scan_fd = ::dirfd(dir);
  bool clean = true;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const int fd = std::atoi(entry->d_name);
    if (fd <= 2 || fd == ready_fd || fd == scan_fd) continue;
    std::fprintf(stderr, "legion_objectd: unexpected inherited fd %d\n", fd);
    clean = false;
  }
  ::closedir(dir);
  return clean;
}

bool ReadFile(const std::string& path, Buffer& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  out = Buffer{std::move(bytes)};
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_dir;
  std::string opr_path;
  std::string handles_path;
  std::uint64_t endpoint_id = 0;
  int ready_fd = -1;

  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--socket-dir") {
      socket_dir = value;
    } else if (flag == "--endpoint-id") {
      endpoint_id = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--opr") {
      opr_path = value;
    } else if (flag == "--handles") {
      handles_path = value;
    } else if (flag == "--ready-fd") {
      ready_fd = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "legion_objectd: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (socket_dir.empty() || opr_path.empty() || handles_path.empty() ||
      endpoint_id == 0) {
    std::fprintf(stderr,
                 "usage: legion_objectd --socket-dir D --endpoint-id N "
                 "--opr F --handles F [--ready-fd N]\n");
    return 2;
  }

  // Before opening anything of our own: the inherited-fd audit (must run
  // first, while the fd table is exactly what exec left us).
  if (!OnlyExpectedFdsInherited(ready_fd)) return 3;

  // The parent may die without stopping us; a write to the ready pipe (or a
  // reply socket) must then error, not kill the worker.
  ::signal(SIGPIPE, SIG_IGN);

  Buffer opr_bytes;
  Buffer handles_bytes;
  if (!ReadFile(opr_path, opr_bytes) || !ReadFile(handles_path, handles_bytes)) {
    std::fprintf(stderr, "legion_objectd: cannot read staged inputs\n");
    return 5;
  }
  Result<persist::Opr> opr = persist::Opr::from_bytes(opr_bytes);
  if (!opr.ok()) {
    std::fprintf(stderr, "legion_objectd: bad OPR: %s\n",
                 opr.status().message().c_str());
    return 4;
  }
  Reader hr(handles_bytes);
  const core::SystemHandles handles = core::SystemHandles::Deserialize(hr);
  if (!hr.ok()) {
    std::fprintf(stderr, "legion_objectd: bad system handles\n");
    return 4;
  }

  // Worker-mode runtime: the first endpoint created takes the id the parent
  // assigned, so the binding the parent published routes straight here.
  rt::ProcessOptions options;
  options.socket_dir = socket_dir;
  options.worker_endpoint_id = endpoint_id;
  rt::ProcessRuntime runtime(options);
  const HostId host = runtime.topology().add_host("worker", {});

  core::ImplementationRegistry registry;
  if (Status st = sim::RegisterSampleObjects(registry); !st.ok()) {
    std::fprintf(stderr, "legion_objectd: registry: %s\n",
                 st.message().c_str());
    return 4;
  }
  Result<std::vector<std::unique_ptr<core::ObjectImpl>>> impls =
      registry.instantiate(opr->implementation);
  if (!impls.ok()) {
    std::fprintf(stderr, "legion_objectd: unknown implementation %s: %s\n",
                 opr->implementation.c_str(),
                 impls.status().message().c_str());
    return 4;
  }

  core::ActiveObjectConfig config;
  config.label = "worker-object";
  core::ActiveObject shell(runtime, host, opr->loid, std::move(*impls),
                           handles, std::move(config));
  if (shell.endpoint().value != endpoint_id) {
    std::fprintf(stderr, "legion_objectd: endpoint id mismatch\n");
    return 4;
  }
  if (Status st = shell.restore(opr->state); !st.ok()) {
    std::fprintf(stderr, "legion_objectd: restore failed: %s\n",
                 st.message().c_str());
    return 4;
  }

  // The listener is bound (create_endpoint is synchronous), the state is
  // restored: tell the parent we are dialable. Only now — a byte written
  // any earlier would let spawn_object publish a binding to a worker that
  // might still fail activation.
  if (ready_fd >= 0) {
    const char byte = 'R';
    if (::write(ready_fd, &byte, 1) != 1) {
      return 5;  // parent gone before we came up: nothing to serve
    }
    ::close(ready_fd);
  }

  // Serve until a signal ends the process: SIGTERM (graceful stop — the
  // parent already captured state via kSaveState), SIGKILL (fault
  // injection), or parent teardown. The runtime's reactor and its one pool
  // worker do the work; this thread just keeps main alive.
  for (;;) {
    std::this_thread::sleep_for(std::chrono::seconds(3600));
  }
}
