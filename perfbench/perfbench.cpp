// perfbench — the Legion invocation benchmark program.
//
// One process runs one workload for a fixed wall-clock budget and prints a
// single JSON line on stdout. run.py builds this binary, runs it, records
// the result with its build metadata and relays the line. README.md in this
// directory describes the workloads and every metric.
//
// Everything here is measured from outside the program: the benchmark times
// calls into each layer's public functions (LegionSystem, Client, ObjectRef,
// Resolver, Messenger, ProcessControl, VaultSet) and reads deltas of the
// counters the layers already publish in the runtime's obs::Registry.
//
// Two kinds of work run on a workload's own runtime and topology:
//   calls   closed-loop method calls on pre-created, pre-bound Workers;
//   cycles  create -> cold call from a client that never saw the object ->
//           3 warm calls -> [deactivate -> reactivating Get, one cycle in
//           8] -> delete.
// A call workload measures calls for the whole run, then a short fixed block
// of cycles, because every workload reports every end-to-end metric.
// object_churn measures cycles only; its calls are the invocations the
// cycles make.
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// reports the per-layer metrics: exact counters over a fixed window of
// operations, layer probes, and a traced phase whose spans are written to
// --out when the run ends.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/state_sections.hpp"
#include "core/system.hpp"
#include "core/well_known.hpp"
#include "core/wire.hpp"
#include "persist/opr.hpp"
#include "persist/vault.hpp"
#include "rt/epoll_runtime.hpp"
#include "rt/messenger.hpp"
#include "rt/process_runtime.hpp"
#include "rt/sim_runtime.hpp"
#include "sim/sample_objects.hpp"
#include "sim/workload.hpp"

// ---- heap allocations, counted in this binary as E16 does -----------------
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace legion::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using core::Binding;
namespace wire = core::wire;

constexpr SimTime kTimeoutUs = rt::Messenger::kDefaultTimeoutUs;
// The E17-gated production head-sampling rate.
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::size_t kEpollWorkers = 2;
constexpr std::size_t kEchoBytes = 4096;
constexpr std::size_t kEchoPayloads = 8;
constexpr double kEchoShare = 0.10;
constexpr double kZipfS = 0.9;
constexpr std::size_t kDeactivateEvery = 8;
constexpr std::int64_t kWarmCallsPerCycle = 3;
constexpr int kSetups = 5;  // setup_s is the median of this many set-ups
// The measured phase is cut into slices, and the metrics are taken over the
// slices with the least CPU steal (QuietSlices). A call slice is a fixed
// time; a cycle slice is a fixed count of cycles.
constexpr double kCallSliceSeconds = 0.25;
constexpr std::uint64_t kCyclesPerSlice = 250;
// Every cycle leaves its LOID interned in caches and tables (about 620 B
// each), so a run does a fixed number of cycles and rss_mb does not follow
// the machine's speed. object_churn runs this many per second of --seconds,
// which takes about --seconds on the 4-vCPU host; a call workload runs
// kCycleSlicesBesideCalls slices after its calls.
constexpr double kCyclesPerSecond = 600.0;
constexpr int kCycleSlicesBesideCalls = 24;
// Spans kept for the dump, per generator thread; aggregates cover them all.
constexpr std::size_t kSpansKept = 100'000;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::int64_t ReadI64(const Buffer& b) {
  Reader r(b);
  const std::int64_t v = r.i64();
  return r.ok() ? v : -1;
}

// A "Key: value" line of /proc/<pid>/status (VmRSS in kB, Threads).
long ProcStatus(const std::string& pid, const std::string& key) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string k;
  while (in >> k) {
    if (k == key) {
      long v = 0;
      in >> v;
      return v;
    }
    in.ignore(4096, '\n');
  }
  return 0;
}

// utime + stime of a live process, in microseconds.
double ProcCpuUs(std::int64_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const auto close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string f;
  double ticks = 0.0;
  // Fields after the command: state is field 3; utime/stime are 14 and 15.
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i >= 14) ticks += std::strtod(f.c_str(), nullptr);
  }
  return ticks * 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double RusageCpuUs(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

// Time the hypervisor gave this machine's vCPUs to other guests while they
// had work: the steal column of /proc/stat, summed over CPUs, in ticks.
std::uint64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};
  in >> cpu;
  for (std::uint64_t& f : fields) in >> f;
  return fields[7];
}

// The slices a metric is taken over: every slice with as little steal as
// the quietest eighth of them. Other guests' load comes and goes for
// seconds at a time, and a slice with steal ran up to three times slower;
// the code under test barely moves steal, so a regression that slows some
// slices stays in, where a rule ranking slices by their own speed would
// drop it.
std::vector<std::size_t> QuietSlices(const std::vector<std::uint64_t>& steal) {
  if (steal.empty()) return {};
  std::vector<std::uint64_t> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t most = sorted[(sorted.size() - 1) / 8];
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= most) kept.push_back(i);
  }
  return kept;
}

double ContextSwitches() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
}

// The CPUs the process may use, read once at start-up.
cpu_set_t g_all_cpus;

// Sets the CPU affinity of every thread of this process.
void SetProcessAffinity(const cpu_set_t& cpus) {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    (void)::sched_setaffinity(std::atoi(entry->d_name), sizeof cpus, &cpus);
  }
  ::closedir(dir);
}

// While alive, every thread of this process (reactor, workers, spare
// workers, generator) runs on the last CPU it may use. Cycles run inside
// one, so the lifecycle metrics are those of a one-CPU deployment. A cycle
// is one chain of blocking calls, so one CPU serves it; on four, each run's
// cycle latencies landed wherever the scheduler's thread placement put them
// (22 to 52 us for the same warm call).
class OneCpuScope {
 public:
  OneCpuScope() {
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &g_all_cpus)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    SetProcessAffinity(one);
  }
  ~OneCpuScope() { SetProcessAffinity(g_all_cpus); }
  OneCpuScope(const OneCpuScope&) = delete;
  OneCpuScope& operator=(const OneCpuScope&) = delete;
};

// ---- workloads ------------------------------------------------------------

enum class RuntimeKind { kEpoll, kProcess, kSim };

struct WorkloadSpec {
  std::string name;
  RuntimeKind runtime;
  std::size_t jurisdictions;
  std::size_t hosts_per_jurisdiction;
  std::size_t bas_per_jurisdiction = 1;
  std::size_t ba_fanout = 0;
  std::size_t residents;     // Workers created at set-up
  std::size_t clients;       // call-phase Legion clients
  std::size_t call_threads;  // generator threads of the call phase (0: none)
  bool echo = true;          // 10% 4 KiB Echo in the call mix
  bool zipf = false;         // Zipf(0.9) targets instead of uniform
  std::size_t stream_len;    // pre-generated call ops per thread (cycled)
  std::size_t warm_calls;    // call ops per thread run during set-up
  std::size_t window_calls;  // call ops per thread in the exact window
  std::size_t window_cycles;
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "warm_call", .runtime = RuntimeKind::kEpoll,
       .jurisdictions = 1, .hosts_per_jurisdiction = 4, .residents = 64,
       .clients = 2, .call_threads = 2, .stream_len = 1 << 16,
       .warm_calls = 4096, .window_calls = 4096, .window_cycles = 16},
      {.name = "object_churn", .runtime = RuntimeKind::kEpoll,
       .jurisdictions = 2, .hosts_per_jurisdiction = 2, .residents = 8,
       .clients = 0, .call_threads = 0, .stream_len = 0, .warm_calls = 0,
       .window_calls = 0, .window_cycles = 64},
      {.name = "process_call", .runtime = RuntimeKind::kProcess,
       .jurisdictions = 1, .hosts_per_jurisdiction = 4, .residents = 4,
       .clients = 2, .call_threads = 2, .stream_len = 1 << 16,
       .warm_calls = 4096, .window_calls = 4096, .window_cycles = 16},
      {.name = "sim_scale", .runtime = RuntimeKind::kSim, .jurisdictions = 8,
       .hosts_per_jurisdiction = 4, .bas_per_jurisdiction = 2,
       .ba_fanout = 4, .residents = 10'000, .clients = 16,
       .call_threads = 1, .echo = false, .zipf = true,
       .stream_len = 1 << 20, .warm_calls = 65'536,
       .window_calls = 65'536, .window_cycles = 16},
  };
  return specs;
}

// ---- seeded inputs, generated before anything is timed --------------------

enum class CallKind : std::uint8_t { kIncrement, kEcho };

struct CallOp {
  std::uint32_t client;
  std::uint32_t target;  // index into Deployment::residents
  CallKind kind;
  std::uint8_t payload;  // Echo payload index
};

struct Inputs {
  std::vector<std::vector<CallOp>> calls;  // one stream per generator thread
  std::vector<bool> deactivate;            // per lifecycle cycle (cycled)
  std::vector<Buffer> echo_payloads;
  std::vector<Buffer> echo_args;  // the payloads, serialized as Echo args
};

// Generator thread t owns the residents i with i % call_threads == t, so each
// thread alone knows its targets' expected counts.
Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  for (std::size_t p = 0; p < kEchoPayloads; ++p) {
    std::vector<std::uint8_t> bytes(kEchoBytes);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    Buffer payload{std::move(bytes)};
    Buffer args;
    Writer w(args);
    w.buffer(payload);
    in.echo_payloads.push_back(std::move(payload));
    in.echo_args.push_back(std::move(args));
  }

  // Which cycle of each block of kDeactivateEvery deactivates.
  Rng cycles = rng.fork(0xC1C1E);
  in.deactivate.assign(4096, false);
  for (std::size_t block = 0; block < in.deactivate.size();
       block += kDeactivateEvery) {
    in.deactivate[block + cycles.below(kDeactivateEvery)] = true;
  }

  if (spec.call_threads == 0) return in;
  const std::size_t owned = spec.residents / spec.call_threads;
  // Zipf ranks land on a seeded permutation of the objects, so the hot set
  // moves with the seed while the popularity curve stays fixed.
  std::vector<std::uint32_t> perm(owned);
  std::iota(perm.begin(), perm.end(), 0u);
  Rng shuffle = rng.fork(0x5EED);
  for (std::size_t i = owned; i > 1; --i) {
    std::swap(perm[i - 1], perm[shuffle.below(i)]);
  }
  const sim::ZipfSampler zipf(owned, kZipfS);
  for (std::size_t t = 0; t < spec.call_threads; ++t) {
    Rng r = rng.fork(t + 1);
    std::vector<CallOp> ops(spec.stream_len);
    for (CallOp& op : ops) {
      const std::size_t local = spec.zipf ? perm[zipf.sample(r)] : r.below(owned);
      op.target = static_cast<std::uint32_t>(t + local * spec.call_threads);
      op.client = static_cast<std::uint32_t>(
          spec.call_threads == 1 ? r.below(spec.clients) : t);
      op.kind = spec.echo && r.chance(kEchoShare) ? CallKind::kEcho
                                                  : CallKind::kIncrement;
      op.payload = static_cast<std::uint8_t>(r.below(kEchoPayloads));
    }
    in.calls.push_back(std::move(ops));
  }
  return in;
}

// ---- spans ----------------------------------------------------------------

enum Layer : std::uint8_t {
  kOp,           // one Legion invocation, as its caller sees it
  kResolve,      // Resolver::resolve (core: binding cache, Binding Agent)
  kCallBinding,  // Resolver::call_binding (core dispatch + rt round trip)
  kStaleLoop,    // Resolver::call through the stale-binding loop, unsplit
  kMsgCall,      // bare Messenger::call to a null dispatcher (rt alone)
  kLayers
};
constexpr const char* kLayerNames[kLayers] = {"op", "resolve", "call_binding",
                                              "stale_loop", "msg_call"};

struct Span {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t op;
  Layer layer;
};

// One generator thread's spans: every span feeds the per-layer sums, the
// first kSpansKept are kept for the dump.
class SpanLog {
 public:
  SpanLog() { kept_.reserve(kSpansKept); }

  void record(Layer layer, std::int64_t start, std::int64_t end,
              std::uint64_t op) {
    sum_ns_[layer] += end - start;
    ++count_[layer];
    if (kept_.size() < kSpansKept) kept_.push_back({start, end, op, layer});
  }
  void merge(const SpanLog& other) {
    for (int l = 0; l < kLayers; ++l) {
      sum_ns_[l] += other.sum_ns_[l];
      count_[l] += other.count_[l];
    }
  }

  [[nodiscard]] double sum_us(Layer l) const { return sum_ns_[l] / 1e3; }
  [[nodiscard]] std::uint64_t count(Layer l) const { return count_[l]; }
  [[nodiscard]] const std::vector<Span>& kept() const { return kept_; }

 private:
  std::int64_t sum_ns_[kLayers] = {};
  std::uint64_t count_[kLayers] = {};
  std::vector<Span> kept_;
};

// Splits each invocation into the halves of Resolver::call's first attempt,
// and follows it with a bare Messenger round trip on the same runtime.
class Tracer {
 public:
  Tracer(rt::Messenger& bare, EndpointId null_server, std::uint64_t op_base)
      : bare_(bare), null_server_(null_server), next_op_(op_base) {}

  Result<Buffer> invoke(core::Client& c, const Loid& target,
                        std::string_view method, Buffer args, bool stale_loop,
                        double& us) {
    const std::uint64_t op = ++next_op_;
    const std::int64_t t0 = NowNs();
    Result<Buffer> out = InternalError("unreached");
    if (stale_loop) {
      out = c.ref(target).call(method, std::move(args));
      log_.record(kStaleLoop, t0, NowNs(), op);
    } else {
      Result<Binding> binding = c.resolver().resolve(target, kTimeoutUs);
      const std::int64_t t1 = NowNs();
      log_.record(kResolve, t0, t1, op);
      if (binding.ok()) {
        out = c.resolver().call_binding(*binding, method, args, c.env(),
                                        kTimeoutUs);
        log_.record(kCallBinding, t1, NowNs(), op);
      } else {
        out = binding.status();
      }
    }
    const std::int64_t t2 = NowNs();
    log_.record(kOp, t0, t2, op);
    us = static_cast<double>(t2 - t0) / 1e3;

    const std::int64_t b0 = NowNs();
    if (!bare_.call(null_server_, "Noop", Buffer{}, rt::EnvTriple::System(),
                    kTimeoutUs)
             .ok()) {
      ++bare_failures_;
    }
    log_.record(kMsgCall, b0, NowNs(), op);
    return out;
  }

  [[nodiscard]] const SpanLog& log() const { return log_; }
  [[nodiscard]] std::uint64_t bare_failures() const { return bare_failures_; }

 private:
  rt::Messenger& bare_;
  EndpointId null_server_;
  std::uint64_t next_op_;
  std::uint64_t bare_failures_ = 0;
  SpanLog log_;
};

// One Legion invocation through the full Section 4.1 path. Untraced, it is
// exactly what every client does: ObjectRef::call.
Result<Buffer> Invoke(core::Client& c, const Loid& target,
                      std::string_view method, Buffer args, Tracer* tracer,
                      double& us, bool stale_loop = false) {
  if (tracer != nullptr) {
    return tracer->invoke(c, target, method, std::move(args), stale_loop, us);
  }
  const std::int64_t t0 = NowNs();
  Result<Buffer> out = c.ref(target).call(method, std::move(args));
  us = static_cast<double>(NowNs() - t0) / 1e3;
  return out;
}

// ---- deployment -------------------------------------------------------------

// Members are destroyed bottom-up: messengers and clients before the system,
// the system before its runtime.
struct Deployment {
  std::unique_ptr<rt::Runtime> runtime;
  std::unique_ptr<core::LegionSystem> system;
  std::vector<std::vector<HostId>> hosts;  // per jurisdiction
  std::vector<HostId> flat_hosts;
  Loid worker_class;
  // The class the cycles create and delete. On ProcessRuntime it is an
  // in-process class: a child's SIGTERM-and-poll exit would make every
  // delete's latency depend on the scheduler, not on the control plane.
  Loid lifecycle_class;
  Loid lifecycle_magistrate;
  std::vector<Loid> residents;
  std::vector<std::int64_t> expected;  // per resident: Increments so far
  std::vector<std::size_t> cursor;     // per generator thread: next op
  std::size_t next_cycle = 0;
  std::unique_ptr<core::Client> creator;  // creates residents and cycles
  std::unique_ptr<core::Client> cold;     // the cycle's cold caller
  std::vector<std::unique_ptr<core::Client>> clients;
  std::unique_ptr<rt::Messenger> null_server;
  std::vector<std::unique_ptr<rt::Messenger>> bare;  // per generator thread
};

struct Failures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first;

  void ok() { ++attempted; }
  void fail(const std::string& what) {
    ++attempted;
    ++failed;
    if (first.empty()) first = what;
  }
  void merge(const Failures& o) {
    attempted += o.attempted;
    failed += o.failed;
    if (first.empty()) first = o.first;
  }
};

std::unique_ptr<rt::Runtime> MakeRuntime(const WorkloadSpec& spec,
                                         std::uint64_t seed,
                                         const std::string& socket_dir) {
  switch (spec.runtime) {
    case RuntimeKind::kEpoll: {
      rt::EpollOptions options;
      options.workers = kEpollWorkers;
      options.seed = seed;
      return std::make_unique<rt::EpollRuntime>(options);
    }
    case RuntimeKind::kProcess: {
      rt::ProcessOptions options;
      options.socket_dir = socket_dir;
      return std::make_unique<rt::ProcessRuntime>(options);
    }
    case RuntimeKind::kSim:
      return std::make_unique<rt::SimRuntime>(seed);
  }
  return nullptr;
}

// Latency samples of one kind, in microseconds. The untraced run sizes and
// writes the storage before set-up, so recording while it measures adds
// nothing to rss_mb.
class SampleLog {
 public:
  void preallocate(std::size_t capacity) {
    data_.assign(capacity, 0.0f);
    size_ = 0;
  }
  void add(double us) {
    if (size_ == data_.size()) data_.push_back(0.0f);
    data_[size_++] = static_cast<float>(us);
  }
  [[nodiscard]] std::size_t size() const { return size_; }
  // Appends samples [from, to) to `out`.
  void copy(std::size_t from, std::size_t to, std::vector<double>& out) const {
    out.insert(out.end(), data_.begin() + static_cast<std::ptrdiff_t>(from),
               data_.begin() + static_cast<std::ptrdiff_t>(to));
  }
  [[nodiscard]] std::vector<double> all() const {
    std::vector<double> out;
    copy(0, size_, out);
    return out;
  }

 private:
  std::vector<float> data_;
  std::size_t size_ = 0;
};

// One generator thread's call results.
struct CallTally {
  SampleLog lat_us;
  std::uint64_t ops = 0;
  Failures failures;
};

// The lifecycle cycles' results, one log per kind of invocation.
struct CycleTally {
  enum Kind { kCreate, kCold, kWarm, kDelete, kDeactivate, kReactivate, kAll,
              kKinds };
  SampleLog us[kKinds];
  std::uint64_t cycles = 0;
  std::uint64_t invocations = 0;
  Failures failures;
};

// Stops a loop after a number of operations or at a deadline.
struct Budget {
  std::uint64_t max_ops = UINT64_MAX;
  std::int64_t deadline_ns = INT64_MAX;

  static Budget Ops(std::uint64_t n) { return Budget{n, INT64_MAX}; }
  static Budget Seconds(double s) {
    return Budget{UINT64_MAX, NowNs() + static_cast<std::int64_t>(s * 1e9)};
  }
  [[nodiscard]] bool done(std::uint64_t n) const {
    return n >= max_ops || (deadline_ns != INT64_MAX && NowNs() >= deadline_ns);
  }
};

// Runs generator thread t's op stream; every reply is checked.
void RunCalls(Deployment& d, const Inputs& in, std::size_t t, Budget budget,
              Tracer* tracer, CallTally& out) {
  const std::vector<CallOp>& ops = in.calls[t];
  for (std::uint64_t n = 0; !budget.done(n); ++n) {
    const CallOp& op = ops[d.cursor[t]++ % ops.size()];
    core::Client& client = *d.clients[op.client];
    const bool echo = op.kind == CallKind::kEcho;
    double us = 0.0;
    Result<Buffer> reply =
        Invoke(client, d.residents[op.target], echo ? "Echo" : "Increment",
               echo ? in.echo_args[op.payload] : Buffer{}, tracer, us);
    out.lat_us.add(us);
    ++out.ops;
    if (!reply.ok()) {
      out.failures.fail("call: " + reply.status().to_string());
    } else if (echo ? !(*reply == in.echo_payloads[op.payload])
                    : ReadI64(*reply) != ++d.expected[op.target]) {
      out.failures.fail(echo ? "Echo returned other bytes"
                             : "Increment returned a wrong count");
    } else {
      out.failures.ok();
    }
  }
}

// The call phase: every generator thread on its own OS thread, each adding
// to its own tally.
void RunCallPhase(Deployment& d, const Inputs& in, Budget budget,
                  std::vector<std::unique_ptr<Tracer>>* tracers,
                  std::vector<CallTally>& tallies, double& elapsed_s) {
  const std::size_t threads = in.calls.size();
  tallies.resize(threads);
  const std::int64_t t0 = NowNs();
  auto run = [&](std::size_t t) {
    RunCalls(d, in, t, budget, tracers ? (*tracers)[t].get() : nullptr,
             tallies[t]);
  };
  if (threads == 1) {
    run(0);
  } else {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(run, t);
    for (auto& th : pool) th.join();
  }
  elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
}

std::uint64_t TotalOps(const std::vector<CallTally>& tallies) {
  std::uint64_t n = 0;
  for (const CallTally& t : tallies) n += t.ops;
  return n;
}

std::vector<double> AllLatencies(const std::vector<CallTally>& tallies) {
  std::vector<double> out;
  for (const CallTally& t : tallies) t.lat_us.copy(0, t.lat_us.size(), out);
  return out;
}

void MergeFailures(const std::vector<CallTally>& tallies, Failures& into) {
  for (const CallTally& t : tallies) into.merge(t.failures);
}

bool RunCycle(Deployment& d, bool deactivate, Tracer* tracer,
              CycleTally& out) {
  core::Client& creator = *d.creator;
  double us = 0.0;
  auto invoke = [&](core::Client& c, const Loid& target,
                    std::string_view method, Buffer args,
                    bool stale_loop = false) {
    ++out.invocations;
    Result<Buffer> r =
        Invoke(c, target, method, std::move(args), tracer, us, stale_loop);
    out.us[CycleTally::kAll].add(us);
    return r;
  };
  auto fail = [&](const std::string& what) {
    out.failures.fail(what);
    return false;
  };
  auto expect_count = [&](const Result<Buffer>& r, std::int64_t want,
                          const char* what) {
    if (!r.ok()) return fail(std::string(what) + ": " + r.status().to_string());
    if (ReadI64(*r) != want) {
      return fail(std::string(what) + " returned count " +
                  std::to_string(ReadI64(*r)) + ", want " +
                  std::to_string(want));
    }
    return true;
  };

  wire::CreateRequest create;
  create.init_state = sim::WorkerInit(0, 0);
  create.candidate_magistrates = {d.lifecycle_magistrate};
  Result<Buffer> raw =
      invoke(creator, d.lifecycle_class, core::methods::kCreate,
             create.to_buffer());
  if (!raw.ok()) return fail("create: " + raw.status().to_string());
  auto reply = wire::CreateReply::from_buffer(*raw);
  if (!reply.ok()) return fail("create reply: " + reply.status().to_string());
  out.us[CycleTally::kCreate].add(us);
  creator.resolver().add_binding(reply->binding);  // as Client::create does
  const Loid loid = reply->loid;

  if (!expect_count(invoke(*d.cold, loid, "Increment", Buffer{}), 1,
                    "cold Increment")) {
    return false;
  }
  out.us[CycleTally::kCold].add(us);
  for (std::int64_t k = 1; k <= kWarmCallsPerCycle; ++k) {
    if (!expect_count(invoke(creator, loid, "Increment", Buffer{}), 1 + k,
                      "warm Increment")) {
      return false;
    }
    out.us[CycleTally::kWarm].add(us);
  }

  const wire::LoidRequest target{loid};
  if (deactivate) {
    raw = invoke(creator, d.lifecycle_magistrate, core::methods::kDeactivate,
                 target.to_buffer());
    if (!raw.ok()) return fail("deactivate: " + raw.status().to_string());
    out.us[CycleTally::kDeactivate].add(us);
    // The Get finds the creator's binding stale, refreshes it through the
    // Binding Agent, and lands on the object reactivated from its vault.
    if (!expect_count(invoke(creator, loid, "Get", Buffer{}, true),
                      1 + kWarmCallsPerCycle, "Get after reactivation")) {
      return false;
    }
    out.us[CycleTally::kReactivate].add(us);
  }

  raw = invoke(creator, d.lifecycle_class, core::methods::kDelete,
               target.to_buffer());
  if (!raw.ok()) return fail("delete: " + raw.status().to_string());
  out.us[CycleTally::kDelete].add(us);
  ++out.cycles;
  out.failures.ok();
  return true;
}

void RunCyclePhase(Deployment& d, const Inputs& in, Budget budget,
                   Tracer* tracer, CycleTally& out, double& elapsed_s) {
  const std::int64_t t0 = NowNs();
  for (std::uint64_t n = 0; !budget.done(n); ++n) {
    RunCycle(d, in.deactivate[d.next_cycle++ % in.deactivate.size()], tracer,
             out);
  }
  elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
}

// Boots the workload's system, creates its residents and clients, and warms
// every cache, connection and spare worker the measured phases will use.
std::unique_ptr<Deployment> SetUp(const WorkloadSpec& spec, const Inputs& in,
                                  std::uint64_t seed,
                                  const std::string& socket_dir,
                                  Failures& failures, std::string& error) {
  auto d = std::make_unique<Deployment>();
  d->runtime = MakeRuntime(spec, seed, socket_dir);
  d->runtime->sampler().set_every(kSampleEvery);
  auto& topo = d->runtime->topology();
  std::vector<JurisdictionId> jurisdictions;
  for (std::size_t j = 0; j < spec.jurisdictions; ++j) {
    jurisdictions.push_back(topo.add_jurisdiction("j" + std::to_string(j)));
    d->hosts.emplace_back();
    for (std::size_t h = 0; h < spec.hosts_per_jurisdiction; ++h) {
      const HostId host = topo.add_host(
          "j" + std::to_string(j) + "-h" + std::to_string(h),
          {jurisdictions.back()}, 1e9);
      d->hosts.back().push_back(host);
      d->flat_hosts.push_back(host);
    }
  }

  core::SystemConfig config;
  config.seed = seed;
  config.binding_agents_per_jurisdiction = spec.bas_per_jurisdiction;
  config.ba_tree_fanout = spec.ba_fanout;
  d->system = std::make_unique<core::LegionSystem>(*d->runtime, config);
  Status st = sim::RegisterSampleObjects(d->system->registry());
  if (st.ok()) st = d->system->bootstrap();
  if (!st.ok()) {
    error = "bootstrap: " + st.to_string();
    return nullptr;
  }

  d->creator = d->system->make_client(d->flat_hosts.front(), "creator");
  // The cold caller sits on another host (in another jurisdiction when
  // there is one), behind a Binding Agent that never saw the object.
  const HostId cold_host = spec.jurisdictions > 1 ? d->hosts.back().front()
                                                  : d->flat_hosts[1];
  d->cold = d->system->make_client(cold_host, "cold");
  d->lifecycle_magistrate = d->system->magistrate_of(jurisdictions.front());

  wire::DeriveRequest derive;
  derive.name = "Worker";
  derive.instance_impl = std::string(sim::WorkerImpl::kName);
  derive.extra_interface = sim::WorkerImpl{}.interface();
  if (spec.runtime == RuntimeKind::kProcess) {
    derive.instance_executable = PERFBENCH_OBJECTD_PATH;
  }
  auto derived = d->creator->derive(core::LegionObjectLoid(), derive);
  if (!derived.ok()) {
    error = "derive: " + derived.status().to_string();
    return nullptr;
  }
  d->worker_class = derived->loid;
  d->lifecycle_class = d->worker_class;
  if (!derive.instance_executable.empty()) {
    derive.name = "ChurnWorker";
    derive.instance_executable.clear();
    derived = d->creator->derive(core::LegionObjectLoid(), derive);
    if (!derived.ok()) {
      error = "derive: " + derived.status().to_string();
      return nullptr;
    }
    d->lifecycle_class = derived->loid;
  }

  for (std::size_t i = 0; i < spec.residents; ++i) {
    const std::size_t j = i % spec.jurisdictions;
    const Loid host =
        spec.runtime == RuntimeKind::kProcess
            ? d->system->host_object_of(d->flat_hosts[i % d->flat_hosts.size()])
            : Loid{};
    auto created = d->creator->create(d->worker_class, sim::WorkerInit(0, 0),
                                      {d->system->magistrate_of(jurisdictions[j])},
                                      host);
    if (!created.ok()) {
      error = "create resident: " + created.status().to_string();
      return nullptr;
    }
    d->residents.push_back(created->loid);
  }
  d->expected.assign(d->residents.size(), 0);

  for (std::size_t c = 0; c < spec.clients; ++c) {
    d->clients.push_back(d->system->make_client(
        d->flat_hosts[c * d->flat_hosts.size() / spec.clients],
        "client" + std::to_string(c)));
  }
  d->null_server = std::make_unique<rt::Messenger>(
      *d->runtime, d->hosts.front().back(), "null-server",
      rt::ExecutionMode::kServiced,
      [](rt::ServerContext&, Reader&) -> Result<Buffer> { return Buffer{}; });
  const std::size_t threads = std::max<std::size_t>(1, spec.call_threads);
  for (std::size_t t = 0; t < threads; ++t) {
    const HostId host = t < d->clients.size()
                            ? d->clients[t]->messenger().host()
                            : d->flat_hosts.front();
    d->bare.push_back(std::make_unique<rt::Messenger>(
        *d->runtime, host, "bare-client", rt::ExecutionMode::kDriver,
        nullptr));
  }
  d->cursor.assign(spec.call_threads, 0);

  // Warm-up: bind and dial every resident a call client owns, exercise the
  // bare messengers, run the op streams, and run lifecycle cycles so the
  // control plane's connections and the pool's spare workers exist.
  if (spec.runtime != RuntimeKind::kSim) {
    for (std::size_t i = 0; i < d->residents.size() && spec.call_threads > 0;
         ++i) {
      core::Client& c = *d->clients[i % spec.call_threads];
      auto r = c.ref(d->residents[i]).call("Get", Buffer{});
      if (!r.ok() || ReadI64(*r) != 0) {
        error = "warm-up Get failed";
        return nullptr;
      }
    }
  }
  for (auto& bare : d->bare) {
    for (int k = 0; k < 256; ++k) {
      if (!bare->call(d->null_server->endpoint(), "Noop", Buffer{},
                      rt::EnvTriple::System(), kTimeoutUs)
               .ok()) {
        error = "warm-up bare call failed";
        return nullptr;
      }
    }
  }
  double s = 0.0;
  if (spec.call_threads > 0) {
    std::vector<CallTally> calls;
    RunCallPhase(*d, in, Budget::Ops(spec.warm_calls), nullptr, calls, s);
    MergeFailures(calls, failures);
  }
  CycleTally cycles;
  RunCyclePhase(*d, in, Budget::Ops(2 * kDeactivateEvery), nullptr, cycles, s);
  failures.merge(cycles.failures);
  return d;
}

// ---- exact counters over a fixed window ------------------------------------

struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t hist_records = 0;
  std::map<std::string, std::uint64_t> by_label;
  std::uint64_t client_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t allocs = 0;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  // Sum of every counter whose name ends with `suffix` (rt.tcp.dials,
  // rt.proc.pool.dials, ...).
  [[nodiscard]] std::uint64_t counters_ending(const std::string& suffix) const {
    std::uint64_t sum = 0;
    for (const auto& [name, v] : counters) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        sum += v;
      }
    }
    return sum;
  }
};

Snapshot Take(Deployment& d, const std::vector<core::Client*>& clients) {
  Snapshot s;
  for (const obs::MetricRow& row : d.runtime->metrics().rows()) {
    if (row.kind == obs::MetricKind::kCounter) s.counters[row.name] = row.count;
    if (row.kind == obs::MetricKind::kHistogram) s.hist_records += row.count;
  }
  s.by_label = d.runtime->received_by_label();
  for (core::Client* c : clients) {
    const rt::EndpointStats es =
        d.runtime->endpoint_stats(c->messenger().endpoint());
    s.client_bytes += es.bytes_sent + es.bytes_received;
    const core::BindingCacheStats cs = c->resolver().cache().stats();
    s.cache_hits += cs.hits;
    s.cache_lookups += cs.hits + cs.misses;
  }
  s.allocs = g_allocs.load(std::memory_order_relaxed);
  return s;
}

// Returns once no message has been delivered for 50 ms, or after 2 s.
void Quiesce(Deployment& d) {
  auto delivered = [&] {
    for (const obs::MetricRow& row : d.runtime->metrics().rows()) {
      if (row.name == "rt.delivered") return row.count;
    }
    return std::uint64_t{0};
  };
  std::uint64_t last = delivered();
  for (int i = 0; i < 40; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t now = delivered();
    if (now == last) return;
    last = now;
  }
}

// ---- layer probes (medians of many timed calls) -----------------------------

template <typename F>
double MedianUs(int reps, F&& f) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = NowNs();
    f(i);
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Quantile(std::move(us), 0.5);
}

rt::SpawnSpec WorkerSpawnSpec(HostId host, const Loid& worker_class,
                              std::uint64_t n) {
  persist::Opr opr;
  opr.loid = Loid{worker_class.class_id(), n};
  opr.implementation = std::string(sim::WorkerImpl::kName);
  opr.state = core::WrapPrimaryState(sim::WorkerInit(0, 0));
  opr.executable = PERFBENCH_OBJECTD_PATH;
  rt::SpawnSpec spec;
  spec.executable = opr.executable;
  spec.host = host;
  spec.label = "probe-" + std::to_string(n);
  spec.opr_bytes = opr.to_bytes();
  Writer hw(spec.handles_bytes);
  core::SystemHandles{}.Serialize(hw);
  return spec;
}


struct Probes {
  double msg_call_us = 0.0;
  double resolve_hit_us = 0.0;
  double resolve_miss_us = 0.0;
  double call_binding_us = 0.0;
  double vault_store_us = 0.0;
  double spawn_us = 0.0;
  Failures failures;
};

// Times each layer's public entry point alone, on the probing client's own
// pre-bound residents: `reps` scales with how cheap one call is.
Probes RunProbes(Deployment& d, const WorkloadSpec& spec,
                 const std::string& spawn_dir) {
  Probes p;
  const bool sim = spec.runtime == RuntimeKind::kSim;
  const int reps = sim ? 20'000 : 2'000;
  core::Client& c = spec.call_threads > 0 ? *d.clients[0] : *d.creator;
  const std::size_t stride = std::max<std::size_t>(1, spec.call_threads);
  std::vector<Loid> targets;
  for (std::size_t i = 0; i < d.residents.size() && targets.size() < 16;
       i += stride) {
    targets.push_back(d.residents[i]);
  }
  auto check = [&](bool ok, const char* what) {
    if (ok) {
      p.failures.ok();
    } else {
      p.failures.fail(std::string("probe ") + what + " failed");
    }
  };

  core::Resolver& resolver = c.resolver();
  for (const Loid& t : targets) {
    check(resolver.resolve(t, kTimeoutUs).ok(), "resolve");
  }
  constexpr int kBatch = 100;
  p.resolve_hit_us = MedianUs(reps / 10, [&](int i) {
                       const Loid& t = targets[static_cast<std::size_t>(i) %
                                               targets.size()];
                       for (int k = 0; k < kBatch; ++k) {
                         check(resolver.resolve(t, kTimeoutUs).ok(),
                               "resolve hit");
                       }
                     }) /
                     kBatch;

  std::vector<double> miss_us;
  for (int i = 0; i < reps / 2; ++i) {
    const Loid& t = targets[static_cast<std::size_t>(i) % targets.size()];
    resolver.invalidate(t);
    const std::int64_t t0 = NowNs();
    check(resolver.resolve(t, kTimeoutUs).ok(), "resolve miss");
    miss_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  p.resolve_miss_us = Quantile(std::move(miss_us), 0.5);

  // A Noop through call_binding, interleaved with a bare Messenger::call
  // from the client's host to a null dispatcher on the target's host: the
  // difference of the two medians is the core's share of a dispatched call.
  Result<Binding> binding = resolver.resolve(targets.front(), kTimeoutUs);
  check(binding.ok(), "resolve");
  if (binding.ok()) {
    const HostId target_host = d.runtime->host_of(
        binding->address.elements().front().sim_endpoint());
    rt::Messenger server(
        *d.runtime, target_host, "probe-null", rt::ExecutionMode::kServiced,
        [](rt::ServerContext&, Reader&) -> Result<Buffer> { return Buffer{}; });
    rt::Messenger bare(*d.runtime, c.messenger().host(), "probe-bare",
                       rt::ExecutionMode::kDriver, nullptr);
    std::vector<double> msg_us;
    std::vector<double> cb_us;
    for (int i = -reps / 10; i < reps; ++i) {  // the first tenth warms up
      const std::int64_t t0 = NowNs();
      check(bare.call(server.endpoint(), "Noop", Buffer{},
                      rt::EnvTriple::System(), kTimeoutUs)
                .ok(),
            "Messenger::call");
      const std::int64_t t1 = NowNs();
      check(resolver.call_binding(*binding, "Noop", Buffer{}, c.env(),
                                  kTimeoutUs)
                .ok(),
            "call_binding");
      const std::int64_t t2 = NowNs();
      if (i >= 0) {
        msg_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        cb_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      }
    }
    p.msg_call_us = Quantile(std::move(msg_us), 0.5);
    p.call_binding_us = Quantile(std::move(cb_us), 0.5);
  }

  // The OPR a lifecycle create stores: the Worker's state as the class
  // wraps it, under a fresh LOID of the Worker class.
  persist::VaultSet vaults;
  vaults.add_vault("probe-disk");
  persist::Opr opr;
  opr.implementation = std::string(sim::WorkerImpl::kName);
  opr.state = core::WrapPrimaryState(sim::WorkerInit(0, 0));
  if (spec.runtime == RuntimeKind::kProcess) {
    opr.executable = PERFBENCH_OBJECTD_PATH;
  }
  p.vault_store_us = MedianUs(reps, [&](int i) {
    opr.loid = Loid{d.worker_class.class_id(),
                    0x9000'0000ull + static_cast<std::uint64_t>(i)};
    check(vaults.store(opr).ok(), "VaultSet::store");
  });

  // Spawns run on a runtime of their own, so every workload reports the
  // same ProcessControl path whatever runtime it measures.
  rt::ProcessOptions options;
  options.socket_dir = spawn_dir;
  rt::ProcessRuntime spawner(options);
  const auto j = spawner.topology().add_jurisdiction("spawn");
  const HostId host = spawner.topology().add_host("spawn-h", {j}, 1e9);
  rt::ProcessControl* pc = spawner.process_control();
  p.spawn_us = MedianUs(8, [&](int i) {
    check(pc->spawn_object(WorkerSpawnSpec(host, d.worker_class,
                                           static_cast<std::uint64_t>(i) + 1))
              .ok(),
          "ProcessControl::spawn_object");
  });
  return p;
}

// ---- process-wide readings ---------------------------------------------------

std::vector<std::int64_t> LiveChildren(Deployment& d) {
  std::vector<std::int64_t> pids;
  if (rt::ProcessControl* pc = d.runtime->process_control()) {
    for (const rt::ChildInfo& child : pc->children()) {
      if (child.alive && child.pid > 0) pids.push_back(child.pid);
    }
  }
  return pids;
}

double RssMb(Deployment& d) {
  long kb = ProcStatus("self", "VmRSS:");
  for (std::int64_t pid : LiveChildren(d)) {
    kb += ProcStatus(std::to_string(pid), "VmRSS:");
  }
  return static_cast<double>(kb) / 1024.0;
}

// CPU of this process, of reaped children, and of the live ones by pid.
struct CpuReading {
  double self_and_reaped_us = 0.0;
  std::map<std::int64_t, double> live_us;
};

CpuReading ReadCpu(Deployment& d) {
  CpuReading r;
  r.self_and_reaped_us =
      RusageCpuUs(RUSAGE_SELF) + RusageCpuUs(RUSAGE_CHILDREN);
  for (std::int64_t pid : LiveChildren(d)) r.live_us[pid] = ProcCpuUs(pid);
  return r;
}

double CpuDeltaUs(const CpuReading& a, const CpuReading& b) {
  double us = b.self_and_reaped_us - a.self_and_reaped_us;
  for (const auto& [pid, v] : b.live_us) {
    auto it = a.live_us.find(pid);
    us += v - (it == a.live_us.end() ? 0.0 : it->second);
  }
  return us;
}

// ListInstances must name exactly the residents (every cycle's object was
// deleted), and every resident must hold its expected count.
void CheckEndState(Deployment& d, Failures& failures) {
  auto check_instances = [&](const Loid& cls, const std::vector<Loid>& want) {
    auto raw = d.creator->ref(cls).call(core::methods::kListInstances);
    auto listed = raw.ok() ? wire::LoidListReply::from_buffer(*raw)
                           : Result<wire::LoidListReply>(raw.status());
    if (!listed.ok()) {
      failures.fail("ListInstances: " + listed.status().to_string());
    } else if (listed->loids.size() != want.size() ||
               std::set<Loid>(listed->loids.begin(), listed->loids.end()) !=
                   std::set<Loid>(want.begin(), want.end())) {
      failures.fail("ListInstances names " +
                    std::to_string(listed->loids.size()) + " instances, not " +
                    std::to_string(want.size()));
    } else {
      failures.ok();
    }
  };
  check_instances(d.worker_class, d.residents);
  if (d.lifecycle_class != d.worker_class) check_instances(d.lifecycle_class, {});
  for (std::size_t i = 0; i < d.residents.size(); ++i) {
    auto r = d.creator->ref(d.residents[i]).call("Get", Buffer{});
    if (!r.ok() || ReadI64(*r) != d.expected[i]) {
      failures.fail("resident " + d.residents[i].to_string() +
                    " lost Increments");
    } else {
      failures.ok();
    }
  }
}

// ---- output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

void WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  out << "span_id,parent_id,op,name,start_ns,end_ns\n";
  for (const SpanLog* log : logs) {
    for (const Span& s : log->kept()) {
      const std::uint64_t id = s.op * kLayers + s.layer;
      const std::uint64_t parent =
          s.layer == kOp || s.layer == kMsgCall ? 0 : s.op * kLayers + kOp;
      out << id << ',' << parent << ',' << s.op << ','
          << kLayerNames[s.layer] << ',' << s.start_ns << ',' << s.end_ns
          << '\n';
    }
  }
}

// ---- the run ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string run_dir = ".";
};

bool OptimizedBuild() {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#else
  return std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") ==
         std::string::npos;
#endif
}

double PerOp(double v, double ops) { return ops > 0 ? v / ops : 0.0; }

// The end-to-end metrics of an untraced run.
std::vector<Metric> MeasureEndToEnd(const WorkloadSpec& spec, const Args& args,
                                    const Inputs& in, Deployment& d,
                                    const std::vector<double>& setup_s,
                                    Failures& failures, std::ostream& info) {
  const bool has_calls = spec.call_threads > 0;
  const int call_slices =
      has_calls ? std::max(1, static_cast<int>(std::lround(
                                  args.seconds / kCallSliceSeconds)))
                : 0;
  const int cycle_slices =
      has_calls ? kCycleSlicesBesideCalls
                : std::max(1, static_cast<int>(std::lround(
                                  args.seconds * kCyclesPerSecond /
                                  static_cast<double>(kCyclesPerSlice))));
  // Sample storage sized for the fastest runtime this machine shows.
  const bool sim = spec.runtime == RuntimeKind::kSim;
  std::vector<CallTally> calls(in.calls.size());
  for (CallTally& t : calls) {
    t.lat_us.preallocate(
        static_cast<std::size_t>(args.seconds * (sim ? 250'000 : 50'000)));
  }
  CycleTally cycles;
  for (int k = 0; k < CycleTally::kKinds; ++k) {
    const std::uint64_t per_cycle =
        k == CycleTally::kAll ? 8 : k == CycleTally::kWarm ? 3 : 1;
    cycles.us[k].preallocate(static_cast<std::size_t>(
        cycle_slices * kCyclesPerSlice * per_cycle));
  }

  // A call slice holds thousands of calls, so each call metric is the median
  // of the kept slices' own values.
  std::vector<std::uint64_t> call_steal;
  std::vector<double> call_rate;
  std::vector<double> call_p50;
  std::vector<double> call_p99;
  std::vector<std::size_t> call_from(calls.size(), 0);
  const std::uint64_t steal0 = StealTicks();
  for (int i = 0; i < call_slices; ++i) {
    double s = 0.0;
    const std::uint64_t slice_steal0 = StealTicks();
    RunCallPhase(d, in, Budget::Seconds(kCallSliceSeconds), nullptr, calls, s);
    call_steal.push_back(StealTicks() - slice_steal0);
    std::vector<double> lat;
    for (std::size_t t = 0; t < calls.size(); ++t) {
      calls[t].lat_us.copy(call_from[t], calls[t].lat_us.size(), lat);
      call_from[t] = calls[t].lat_us.size();
    }
    call_rate.push_back(PerOp(static_cast<double>(lat.size()), s));
    call_p50.push_back(Quantile(lat, 0.50));
    call_p99.push_back(Quantile(lat, 0.99));
  }

  // A cycle slice holds too few cycles for a p99 of its own, so cycle
  // percentiles are over the pooled samples of the kept slices.
  std::vector<std::uint64_t> cycle_steal;
  std::vector<double> cycle_rate;
  std::vector<double> invocation_rate;
  std::vector<std::size_t> slice_start[CycleTally::kKinds];
  {
    const OneCpuScope one_cpu;
    // On a host slowed several times over, the run stops short of its
    // cycle count rather than overrun its time.
    const Budget cap = Budget::Seconds(
        3.0 * static_cast<double>(cycle_slices * kCyclesPerSlice) /
        kCyclesPerSecond);
    for (int i = 0; i < cycle_slices && !cap.done(0); ++i) {
      for (int k = 0; k < CycleTally::kKinds; ++k) {
        slice_start[k].push_back(cycles.us[k].size());
      }
      const std::uint64_t cycles0 = cycles.cycles;
      const std::uint64_t invocations0 = cycles.invocations;
      double s = 0.0;
      const std::uint64_t slice_steal0 = StealTicks();
      RunCyclePhase(d, in, Budget::Ops(kCyclesPerSlice), nullptr, cycles, s);
      cycle_steal.push_back(StealTicks() - slice_steal0);
      cycle_rate.push_back(
          PerOp(static_cast<double>(cycles.cycles - cycles0), s));
      invocation_rate.push_back(
          PerOp(static_cast<double>(cycles.invocations - invocations0), s));
    }
  }
  const double rss_mb = RssMb(d);
  const std::uint64_t steal_ticks = StealTicks() - steal0;
  MergeFailures(calls, failures);
  failures.merge(cycles.failures);
  CheckEndState(d, failures);

  const std::vector<std::size_t> quiet_calls = QuietSlices(call_steal);
  const std::vector<std::size_t> quiet_cycles = QuietSlices(cycle_steal);
  auto median = [](const std::vector<double>& v,
                   const std::vector<std::size_t>& slices) {
    std::vector<double> kept;
    for (std::size_t i : slices) kept.push_back(v[i]);
    return Quantile(std::move(kept), 0.5);
  };
  // Quantile q of one kind of invocation over the kept cycle slices.
  auto cycle_q = [&](int kind, double q) {
    const std::vector<std::size_t>& start = slice_start[kind];
    std::vector<double> v;
    for (std::size_t i : quiet_cycles) {
      const std::size_t end =
          i + 1 < start.size() ? start[i + 1] : cycles.us[kind].size();
      cycles.us[kind].copy(start[i], end, v);
    }
    return Quantile(std::move(v), q);
  };
  // object_churn's calls are every invocation its cycles make, and its call
  // latency is that of the warm calls.
  const double calls_per_s = has_calls ? median(call_rate, quiet_calls)
                                       : median(invocation_rate, quiet_cycles);
  const double call_p50_us = has_calls ? median(call_p50, quiet_calls)
                                       : cycle_q(CycleTally::kWarm, 0.50);
  const double call_p99_us = has_calls ? median(call_p99, quiet_calls)
                                       : cycle_q(CycleTally::kWarm, 0.99);
  info << "\"call_slices\": " << call_slices
       << ", \"cycle_slices\": " << cycle_steal.size()
       << ", \"call_samples\": "
       << std::accumulate(call_from.begin(), call_from.end(), std::size_t{0})
       << ", \"cycles\": " << cycles.cycles << ", \"reactivate_samples\": "
       << cycles.us[CycleTally::kReactivate].size()
       << ", \"steal_ticks\": " << steal_ticks << ", \"quiet_call_slices\": "
       << quiet_calls.size() << ", \"quiet_cycle_slices\": "
       << quiet_cycles.size() << ", \"setups_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    info << (i ? ", " : "") << Num(setup_s[i]);
  }
  info << "]";
  return {
      {"calls_per_s", calls_per_s, "1/s"},
      {"call_p50_us", call_p50_us, "us"},
      {"call_p99_us", call_p99_us, "us"},
      {"cycles_per_s", median(cycle_rate, quiet_cycles), "1/s"},
      {"create_p50_us", cycle_q(CycleTally::kCreate, 0.50), "us"},
      {"create_p99_us", cycle_q(CycleTally::kCreate, 0.99), "us"},
      {"cold_call_p50_us", cycle_q(CycleTally::kCold, 0.50), "us"},
      {"cold_call_p99_us", cycle_q(CycleTally::kCold, 0.99), "us"},
      {"delete_p50_us", cycle_q(CycleTally::kDelete, 0.50), "us"},
      {"reactivate_p50_us", cycle_q(CycleTally::kReactivate, 0.50), "us"},
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"rss_mb", rss_mb, "MB"},
  };
}

// The per-layer metrics of a traced run: exact counters over a fixed window,
// process-wide costs over an untraced timed phase, layer probes, then the
// traced phase whose spans are written to --out.
std::vector<Metric> MeasurePerLayer(const WorkloadSpec& spec, const Args& args,
                                    const Inputs& in, Deployment& d,
                                    Failures& failures, std::ostream& info) {
  const bool has_calls = spec.call_threads > 0;
  // The timed phases run the workload's own operations for half the run
  // each: calls, or on object_churn cycles.
  auto run_timed = [&](std::vector<std::unique_ptr<Tracer>>* tracers,
                       Tracer* cycle_tracer, std::vector<CallTally>& calls,
                       CycleTally& cycles) {
    double s = 0.0;
    const Budget budget = Budget::Seconds(args.seconds / 2);
    if (has_calls) {
      RunCallPhase(d, in, budget, tracers, calls, s);
    } else {
      const OneCpuScope one_cpu;
      RunCyclePhase(d, in, budget, cycle_tracer, cycles, s);
    }
  };

  // 1. Exact counters over a fixed window of operations.
  std::vector<core::Client*> measured;
  if (has_calls) {
    for (auto& c : d.clients) measured.push_back(c.get());
  } else {
    measured = {d.creator.get(), d.cold.get()};
  }
  // Each snapshot waits for the runtime to go quiet first, so messages still
  // in flight from earlier work (a one-way fan-out, a delivery counted just
  // after its caller woke) land in the window they belong to. Allocations
  // are counted inside the windows only.
  auto snapshot = [&] {
    g_count_allocs.store(false);
    Quiesce(d);
    Snapshot snap = Take(d, measured);
    g_count_allocs.store(true);
    return snap;
  };
  double s = 0.0;
  const Snapshot s0 = snapshot();
  std::vector<CallTally> wcalls;
  if (has_calls) {
    RunCallPhase(d, in, Budget::Ops(spec.window_calls), nullptr, wcalls, s);
  }
  const Snapshot s1 = snapshot();
  CycleTally wcycles;
  {
    const OneCpuScope one_cpu;
    RunCyclePhase(d, in, Budget::Ops(spec.window_cycles), nullptr, wcycles,
                  s);
  }
  const Snapshot s2 = snapshot();
  g_count_allocs.store(false);
  MergeFailures(wcalls, failures);
  failures.merge(wcycles.failures);
  // Per-op counters come from the call window; object_churn's ops are
  // the cycles' invocations.
  const Snapshot& a = has_calls ? s0 : s1;
  const Snapshot& b = has_calls ? s1 : s2;
  const double ops = has_calls ? static_cast<double>(TotalOps(wcalls))
                               : static_cast<double>(wcycles.invocations);
  auto delta = [&](const std::string& name) {
    return static_cast<double>(b.counter(name) - a.counter(name));
  };
  auto per_cycle = [&](const std::string& label) {
    auto get = [&](const Snapshot& snap) {
      auto it = snap.by_label.find(label);
      return it == snap.by_label.end() ? 0.0
                                       : static_cast<double>(it->second);
    };
    return PerOp(get(s2) - get(s1), static_cast<double>(wcycles.cycles));
  };

  // 2. Untraced timed phase: process-wide costs per operation.
  const CpuReading cpu0 = ReadCpu(d);
  const double ctx0 = ContextSwitches();
  const Snapshot t0 = Take(d, measured);
  std::vector<CallTally> calls;
  CycleTally cycles;
  run_timed(nullptr, nullptr, calls, cycles);
  const CpuReading cpu1 = ReadCpu(d);
  const double ctx1 = ContextSwitches();
  const Snapshot t1 = Take(d, measured);
  const double threads = static_cast<double>(ProcStatus("self", "Threads:"));
  MergeFailures(calls, failures);
  failures.merge(cycles.failures);
  const double timed_ops =
      static_cast<double>(TotalOps(calls) + cycles.invocations);
  const double untraced_mean =
      Mean(has_calls ? AllLatencies(calls) : cycles.us[CycleTally::kAll].all());

  // 3. Layer probes.
  const std::string spawn_dir = args.run_dir + "/spawn";
  ::mkdir(spawn_dir.c_str(), 0755);
  Probes probes = RunProbes(d, spec, spawn_dir);
  failures.merge(probes.failures);

  // 4. Traced phase: the same op streams, each op split into spans.
  std::vector<std::unique_ptr<Tracer>> tracers;
  for (std::size_t t = 0; t < in.calls.size(); ++t) {
    tracers.push_back(std::make_unique<Tracer>(
        *d.bare[t], d.null_server->endpoint(),
        static_cast<std::uint64_t>(t) << 40));
  }
  Tracer cycle_tracer(*d.bare[0], d.null_server->endpoint(),
                      std::uint64_t{0xFF} << 40);
  std::vector<CallTally> tcalls;
  CycleTally tcycles;
  run_timed(&tracers, &cycle_tracer, tcalls, tcycles);
  MergeFailures(tcalls, failures);
  failures.merge(tcycles.failures);
  CheckEndState(d, failures);

  // The report covers the workload's operations: the calls, or for
  // object_churn the cycles' invocations. Every span goes to the dump.
  SpanLog all;
  std::vector<const SpanLog*> logs;
  std::uint64_t bare_failures = cycle_tracer.bare_failures();
  for (auto& t : tracers) {
    all.merge(t->log());
    logs.push_back(&t->log());
    bare_failures += t->bare_failures();
  }
  if (!has_calls) all.merge(cycle_tracer.log());
  logs.push_back(&cycle_tracer.log());
  for (std::uint64_t i = 0; i < bare_failures; ++i) {
    failures.fail("traced bare Messenger::call failed");
  }
  // Per-op self times: resolve, call_binding and the stale loop are the
  // op span's children; the bare round trip stands in for the rt part of
  // each call_binding.
  const double n = static_cast<double>(std::max<std::uint64_t>(1, all.count(kOp)));
  const double op_us = all.sum_us(kOp) / n;
  const double resolve_us = all.sum_us(kResolve) / n;
  const double call_binding_us = all.sum_us(kCallBinding) / n;
  const double stale_us = all.sum_us(kStaleLoop) / n;
  const double msg_us =
      PerOp(all.sum_us(kMsgCall), static_cast<double>(all.count(kMsgCall))) *
      static_cast<double>(all.count(kCallBinding)) / n;
  const double gap_us = op_us - resolve_us - call_binding_us - stale_us;
  const double traced_lat = Mean(
      has_calls ? AllLatencies(tcalls) : tcycles.us[CycleTally::kAll].all());

  const std::vector<Metric> trace_metrics = {
      {"trace.op_us", op_us, "us"},
      {"trace.self_us.core_resolve", resolve_us, "us"},
      {"trace.self_us.core_dispatch", call_binding_us - msg_us, "us"},
      {"trace.self_us.core_stale_loop", stale_us, "us"},
      {"trace.self_us.rt", msg_us, "us"},
      {"trace.closure_gap_us", gap_us, "us"},
      {"trace.closure_gap_pct", PerOp(100.0 * gap_us, op_us), "%"},
      {"bench.trace_overhead_pct",
       PerOp(100.0 * (traced_lat - untraced_mean), untraced_mean), "%"},
  };
  WriteSpans(args.out_dir + "/" + spec.name + ".spans.csv", logs);
  std::ofstream report(args.out_dir + "/" + spec.name + "-seed" +
                       std::to_string(args.seed) + ".trace-report.json");
  report << "{\"workload\": " << Quote(spec.name)
         << ", \"seed\": " << args.seed
         << ", \"traced_ops\": " << all.count(kOp)
         << ", \"spans_file\": " << Quote(spec.name + ".spans.csv")
         << ", \"metrics\": " << MetricsJson(trace_metrics) << "}\n";
  info << "\"window_ops\": " << Num(ops) << ", \"window_cycles\": "
       << wcycles.cycles << ", \"traced_ops\": " << all.count(kOp);

  std::vector<Metric> metrics = {
      {"rt.msg_call_us", probes.msg_call_us, "us"},
      {"rt.wire_bytes_per_call",
       PerOp(static_cast<double>(b.client_bytes - a.client_bytes), ops), "B"},
      {"rt.msgs_per_op", PerOp(delta("rt.delivered"), ops), "count"},
      {"rt.dials",
       static_cast<double>(t1.counters_ending(".dials") -
                           t0.counters_ending(".dials")),
       "count"},
      {"rt.spawn_us", probes.spawn_us, "us"},
      {"core.resolve_hit_us", probes.resolve_hit_us, "us"},
      {"core.resolve_miss_us", probes.resolve_miss_us, "us"},
      {"core.dispatch_us", probes.call_binding_us - probes.msg_call_us, "us"},
      {"core.client_cache_hit_ratio",
       PerOp(static_cast<double>(b.cache_hits - a.cache_hits),
             static_cast<double>(b.cache_lookups - a.cache_lookups)),
       "ratio"},
      {"core.ba_consults_per_op", PerOp(delta("resolver.consults"), ops),
       "count"},
      {"core.msgs_per_cycle.class", per_cycle("class"), "count"},
      {"core.msgs_per_cycle.magistrate", per_cycle("magistrate"), "count"},
      {"core.msgs_per_cycle.host", per_cycle("host"), "count"},
      {"core.msgs_per_cycle.binding-agent", per_cycle("binding-agent"),
       "count"},
      {"core.stale_retries_per_op", PerOp(delta("resolver.stale_retries"), ops),
       "count"},
      {"persist.vault_store_us", probes.vault_store_us, "us"},
      {"obs.hist_records_per_op",
       PerOp(static_cast<double>(b.hist_records - a.hist_records), ops),
       "count"},
      {"process.cpu_us_per_op", PerOp(CpuDeltaUs(cpu0, cpu1), timed_ops),
       "us"},
      {"process.ctx_switches_per_op", PerOp(ctx1 - ctx0, timed_ops), "count"},
      {"process.allocs_per_op",
       PerOp(static_cast<double>(b.allocs - a.allocs), ops), "count"},
      {"process.threads", threads, "count"},
  };
  metrics.insert(metrics.end(), trace_metrics.begin(), trace_metrics.end());
  metrics.push_back({"error_rate",
                     PerOp(static_cast<double>(failures.failed),
                           static_cast<double>(failures.attempted)),
                     "ratio"});
  return metrics;
}

int Run(const Args& args) {
  const WorkloadSpec* found = nullptr;
  for (const WorkloadSpec& s : Workloads()) {
    if (s.name == args.workload) found = &s;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const Inputs in = MakeInputs(spec, args.seed);

  Failures failures;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    d.reset();
    const std::string socket_dir = args.run_dir + "/s" + std::to_string(k);
    ::mkdir(socket_dir.c_str(), 0755);
    std::string error;
    const std::int64_t t0 = NowNs();
    d = SetUp(spec, in, args.seed, socket_dir, failures, error);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (d == nullptr) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
  }

  std::ostringstream info;
  const std::vector<Metric> metrics =
      args.trace ? MeasurePerLayer(spec, args, in, *d, failures, info)
                 : MeasureEndToEnd(spec, args, in, *d, setup_s, failures, info);

  const bool correct = failures.failed == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: %llu of %llu operations failed; first: %s\n",
                 static_cast<unsigned long long>(failures.failed),
                 static_cast<unsigned long long>(failures.attempted),
                 failures.first.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s, \"info\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"build_type\": %s, \"cxx_flags\": %s, \"compiler\": %s, "
      "\"nproc\": %u, \"epoll_workers\": %zu, \"sample_every\": %llu, %s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(failures.attempted),
      static_cast<unsigned long long>(failures.failed),
      MetricsJson(metrics).c_str(), Quote(spec.name).c_str(),
      static_cast<unsigned long long>(args.seed), Num(args.seconds).c_str(),
      args.trace ? 1 : 0, Quote(PERFBENCH_BUILD_TYPE).c_str(),
      Quote(PERFBENCH_CXX_FLAGS).c_str(), Quote(PERFBENCH_COMPILER).c_str(),
      std::thread::hardware_concurrency(),
      spec.runtime == RuntimeKind::kEpoll ? kEpollWorkers : std::size_t{0},
      static_cast<unsigned long long>(kSampleEvery), info.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace legion::perfbench

int main(int argc, char** argv) {
  using legion::perfbench::Args;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else if (flag == "--run-dir") {
      args.run_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--run-dir DIR]\n");
    return 2;
  }
  CPU_ZERO(&legion::perfbench::g_all_cpus);
  if (::sched_getaffinity(0, sizeof legion::perfbench::g_all_cpus,
                          &legion::perfbench::g_all_cpus) != 0) {
    std::fprintf(stderr, "perfbench: cannot read the CPU affinity\n");
    return 2;
  }
  if (!legion::perfbench::OptimizedBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure an unoptimised or sanitizer "
                 "build (%s, flags '%s')\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
    return 3;
  }
  return legion::perfbench::Run(args);
}
