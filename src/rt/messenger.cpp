#include "rt/messenger.hpp"

#include <utility>

#include "obs/monitor.hpp"

namespace legion::rt {

Messenger::Messenger(Runtime& runtime, HostId host, std::string label,
                     ExecutionMode mode, RequestDispatcher dispatcher)
    : runtime_(runtime),
      host_(host),
      dispatcher_(std::move(dispatcher)),
      invokes_(runtime.metrics().counter("msg.invokes")),
      requests_(runtime.metrics().counter("msg.requests")),
      timeouts_(runtime.metrics().counter("msg.timeouts")),
      unreachables_(runtime.metrics().counter("msg.unreachable")),
      pending_gauge_(runtime.metrics().gauge("msg.pending")),
      queue_us_(runtime.metrics().histogram("msg.queue_us")),
      service_us_(runtime.metrics().histogram("msg.service_us")),
      host_requests_(runtime.metrics().counter(
          "msg.requests" + obs::MetricHostSuffix(host.value))),
      host_queue_us_(runtime.metrics().histogram(
          "msg.queue_us" + obs::MetricHostSuffix(host.value))),
      host_service_us_(runtime.metrics().histogram(
          "msg.service_us" + obs::MetricHostSuffix(host.value))),
      host_pending_(runtime.metrics().gauge(
          "msg.pending" + obs::MetricHostSuffix(host.value))) {
  endpoint_ = runtime_.create_endpoint(
      host, std::move(label), [this](Envelope&& env) { on_message(std::move(env)); },
      mode);
}

Messenger::~Messenger() { close(); }

void Messenger::close() {
  if (closed_.exchange(true)) return;
  runtime_.close_endpoint(endpoint_);
  // Fail anything still pending: replies can no longer arrive. Swap the map
  // out under the lock so a racing invoke()/handle_reply() either sees the
  // entry here (failed exactly once below) or not at all.
  std::unordered_map<std::uint64_t, Promise<ReplyMsg>> orphans;
  {
    base::MutexLock lock(pending_mutex_);
    orphans.swap(pending_);
  }
  pending_gauge_.sub(static_cast<std::int64_t>(orphans.size()));
  host_pending_.sub(static_cast<std::int64_t>(orphans.size()));
  for (auto& [_, promise] : orphans) {
    promise.set(ReplyMsg{AbortedError("messenger closed"), Buffer{}});
  }
  // A thread blocked in await() on this endpoint saw no delivery; wake it so
  // it observes the failed future immediately.
  runtime_.notify(endpoint_);
}

Future<ReplyMsg> Messenger::invoke(EndpointId dst, std::string_view method,
                                   Buffer args, const EnvTriple& env) {
  Promise<ReplyMsg> promise;
  Future<ReplyMsg> future = promise.future();

  // Stamp the causal trace. Sampled roots mint a fresh trace and a root
  // span; nested invocations (env propagated from an inbound request)
  // advance the hop count and open a child span beneath the span they are
  // serving. Unsampled roots stay at trace_id == 0 end to end: the whole
  // call tree is either traced at full fidelity or not at all.
  EnvTriple traced = env;
  if (traced.trace_id == 0) {
    if (traced.hop != EnvTriple::kHopNotSampled && runtime_.sampler().sample()) {
      traced.trace_id = obs::NextTraceId();
      traced.hop = 0;
      traced.parent_span_id = 0;
      traced.span_id = obs::NextSpanId();
    } else {
      // The head decision (here or at the true root upstream) was "no";
      // stamp the verdict so calls nested under this one stay untraced too.
      traced.hop = EnvTriple::kHopNotSampled;
    }
  } else {
    traced.hop += 1;
    traced.parent_span_id = traced.span_id;
    traced.span_id = obs::NextSpanId();
  }

  std::uint64_t call_id;
  {
    base::MutexLock lock(pending_mutex_);
    if (closed_.load(std::memory_order_relaxed)) {
      // Lost the race with close(): resolve locally, exactly once.
      promise.set(ReplyMsg{AbortedError("messenger closed"), Buffer{}});
      return future;
    }
    call_id = next_call_id_++;
    pending_.emplace(call_id, promise);
  }
  pending_gauge_.add(1);
  host_pending_.add(1);
  invokes_.inc();

  Buffer payload;
  Writer w(payload);
  w.u8(static_cast<std::uint8_t>(FrameKind::kRequest));
  w.u64(call_id);
  traced.Serialize(w);
  w.str(method);
  w.buffer(args);

  Envelope envelope{endpoint_, dst, DeliveryKind::kData, std::move(payload)};
  envelope.trace_id = traced.trace_id;
  envelope.hop = traced.hop;
  envelope.span_id = traced.span_id;
  envelope.parent_span_id = traced.parent_span_id;
  record_hop(obs::HopKind::kInvoke, envelope, method);

  const Status sent = runtime_.post(std::move(envelope));
  if (!sent.ok()) {
    fail_pending(call_id, sent);
  }
  return future;
}

Result<Buffer> Messenger::await(Future<ReplyMsg> future, SimTime timeout_us) {
  const bool ok = runtime_.wait(
      endpoint_, [&future] { return future.ready(); }, timeout_us);
  if (!ok || !future.ready()) {
    if (runtime_.quiescent()) {
      // The runtime proved no event can ever resolve this future (the
      // request or its reply was dropped): the peer is unreachable, not
      // merely slow. Retry loops treat both the same, but failure-detection
      // sweeps distinguish a dead host from a congested one.
      unreachables_.inc();
      return UnavailableError("no reply and no further progress possible");
    }
    timeouts_.inc();
    return TimeoutError("no reply before deadline");
  }
  ReplyMsg reply = future.take();
  if (!reply.status.ok()) return reply.status;
  return std::move(reply.result);
}

Result<Buffer> Messenger::await_any(std::vector<Future<ReplyMsg>>& futures,
                                    SimTime timeout_us) {
  const SimTime deadline = timeout_us == kSimTimeNever
                               ? kSimTimeNever
                               : runtime_.now() + timeout_us;
  Status last = UnavailableError("no pending futures");
  for (;;) {
    bool any_pending = false;
    for (auto& future : futures) {
      if (!future.valid()) continue;
      if (!future.ready()) {
        any_pending = true;
        continue;
      }
      ReplyMsg reply = future.take();
      if (reply.status.ok()) return std::move(reply.result);
      last = std::move(reply.status);
    }
    if (!any_pending) return last;

    SimTime remaining = kSimTimeNever;
    if (deadline != kSimTimeNever) {
      const SimTime now = runtime_.now();
      if (now >= deadline) {
        timeouts_.inc();
        return TimeoutError("no reply before deadline");
      }
      remaining = deadline - now;
    }
    const bool woke = runtime_.wait(
        endpoint_,
        [&futures] {
          for (const auto& f : futures) {
            if (f.valid() && f.ready()) return true;
          }
          return false;
        },
        remaining);
    if (!woke) {
      // Deadline passed — or, in the sim, the event queue drained with
      // nothing left that could ever resolve us. Scan once more before
      // reporting the timeout.
      bool ready_now = false;
      for (const auto& f : futures) {
        if (f.valid() && f.ready()) ready_now = true;
      }
      if (!ready_now) {
        if (runtime_.quiescent()) {
          unreachables_.inc();
          return UnavailableError("no reply and no further progress possible");
        }
        timeouts_.inc();
        return TimeoutError("no reply before deadline");
      }
    }
  }
}

Result<Buffer> Messenger::call(EndpointId dst, std::string_view method,
                               Buffer args, const EnvTriple& env,
                               SimTime timeout_us) {
  return await(invoke(dst, method, std::move(args), env), timeout_us);
}

bool Messenger::wait(const std::function<bool()>& ready, SimTime timeout_us) {
  return runtime_.wait(endpoint_, ready, timeout_us);
}

void Messenger::fail_pending(std::uint64_t call_id, Status status) {
  Promise<ReplyMsg> promise;
  {
    base::MutexLock lock(pending_mutex_);
    auto it = pending_.find(call_id);
    if (it == pending_.end()) return;
    promise = it->second;
    pending_.erase(it);
  }
  pending_gauge_.sub(1);
  host_pending_.sub(1);
  promise.set(ReplyMsg{std::move(status), Buffer{}});
  // The promise may satisfy another thread's await() predicate without any
  // message delivery; make sure that waiter wakes.
  runtime_.notify(endpoint_);
}

void Messenger::record_hop(obs::HopKind kind, const Envelope& env,
                           std::string_view method, std::uint32_t queue_us,
                           std::uint32_t service_us) {
  if (env.trace_id == 0) return;
  obs::TraceRing& ring = runtime_.traces();
  if (!ring.enabled()) return;
  obs::TraceHop hop;
  hop.trace_id = env.trace_id;
  hop.hop = env.hop;
  hop.at = runtime_.now();
  hop.src = env.src.value;
  hop.dst = env.dst.value;
  hop.kind = kind;
  hop.span_id = env.span_id;
  hop.parent_span_id = env.parent_span_id;
  hop.host = host_.value;
  hop.queue_us = queue_us;
  hop.service_us = service_us;
  if (!method.empty()) hop.set_method(method);
  ring.record(hop);
}

obs::Histogram& Messenger::method_service_hist(std::string_view method) {
  std::string key(method);
  auto it = method_hists_.find(key);
  if (it != method_hists_.end()) return *it->second;
  obs::Histogram& hist = runtime_.metrics().histogram(
      "msg.method_us." + key + obs::MetricHostSuffix(host_.value));
  method_hists_.emplace(std::move(key), &hist);
  return hist;
}

void Messenger::on_message(Envelope&& env) {
  Reader r(env.payload);
  if (env.kind == DeliveryKind::kBounce ||
      env.kind == DeliveryKind::kBounceUnavailable) {
    record_hop(obs::HopKind::kBounce, env, {});
    handle_bounce(r, env.kind);
    return;
  }
  const auto kind = static_cast<FrameKind>(r.u8());
  switch (kind) {
    case FrameKind::kRequest:
      // The kRequest hop is recorded inside handle_request, once the frame
      // is parsed: that hop carries the method label and the queue split.
      handle_request(std::move(env), r);
      break;
    case FrameKind::kReply:
      record_hop(obs::HopKind::kReply, env, {});
      handle_reply(r);
      break;
    default:
      break;  // malformed frame: drop
  }
}

void Messenger::handle_request(Envelope&& env, Reader& r) {
  const SimTime dequeued_at = runtime_.now();
  requests_.inc();
  host_requests_.inc();
  CallInfo info;
  info.call_id = r.u64();
  info.env = EnvTriple::Deserialize(r);
  info.method = r.str();
  Buffer args = r.buffer();
  info.reply_to = env.src;
  if (!r.ok()) return;  // malformed: drop

  // Queue time: inbox-entry stamp (set by the runtime at enqueue) to this
  // dequeue. The sim dispatches inline at delivery, so its queue time is a
  // true zero; the real-clock runtimes measure real mailbox residency.
  std::uint64_t queue_us = 0;
  if (env.queued_at > 0 && dequeued_at > env.queued_at) {
    queue_us = static_cast<std::uint64_t>(dequeued_at - env.queued_at);
  }
  queue_us_.record(queue_us);
  host_queue_us_.record(queue_us);
  record_hop(obs::HopKind::kRequest, env, info.method,
             static_cast<std::uint32_t>(queue_us), 0);

  Result<Buffer> result = [&]() -> Result<Buffer> {
    if (!dispatcher_) {
      return UnimplementedError("endpoint accepts no requests");
    }
    ServerContext ctx{*this, info};
    Reader args_reader(args);
    return dispatcher_(ctx, args_reader);
  }();

  // Service time: dequeue to reply post, nested awaits included (they are
  // part of serving this call).
  const SimTime done_at = runtime_.now();
  const std::uint64_t service_us =
      done_at > dequeued_at ? static_cast<std::uint64_t>(done_at - dequeued_at)
                            : 0;
  service_us_.record(service_us);
  host_service_us_.record(service_us);
  method_service_hist(info.method).record(service_us);

  Buffer payload;
  Writer w(payload);
  w.u8(static_cast<std::uint8_t>(FrameKind::kReply));
  w.u64(info.call_id);
  const Status status = result.status();
  w.u8(static_cast<std::uint8_t>(status.code()));
  w.str(status.message());
  w.buffer(result.ok() ? result.value() : Buffer{});
  Envelope reply{endpoint_, info.reply_to, DeliveryKind::kData,
                 std::move(payload)};
  reply.trace_id = info.env.trace_id;
  reply.hop = info.env.hop + 1;
  // The reply closes the same span the request opened: both sides of the
  // call edge carry one span_id.
  reply.span_id = info.env.span_id;
  reply.parent_span_id = info.env.parent_span_id;
  record_hop(obs::HopKind::kServe, reply, info.method,
             static_cast<std::uint32_t>(queue_us),
             static_cast<std::uint32_t>(service_us));
  // A failed reply post means the caller is gone; nothing useful to do.
  (void)runtime_.post(std::move(reply));
}

void Messenger::handle_reply(Reader& r) {
  const std::uint64_t call_id = r.u64();
  const auto code = static_cast<StatusCode>(r.u8());
  std::string message = r.str();
  Buffer result = r.buffer();
  if (!r.ok()) return;

  Promise<ReplyMsg> promise;
  {
    base::MutexLock lock(pending_mutex_);
    auto it = pending_.find(call_id);
    if (it == pending_.end()) return;  // late reply for a timed-out call
    promise = it->second;
    pending_.erase(it);
  }
  pending_gauge_.sub(1);
  host_pending_.sub(1);
  promise.set(ReplyMsg{Status{code, std::move(message)}, std::move(result)});
}

void Messenger::handle_bounce(Reader& r, DeliveryKind kind_of_bounce) {
  // The payload is one of *our own* frames returned undelivered. Only
  // bounced requests matter: fail the pending call so the object's
  // communication layer reacts — kStaleBinding (refresh the binding and
  // retry) for an endpoint that no longer exists, kUnavailable for a worker
  // process that exited with the request in flight (the binding was valid;
  // the address space behind it died — retry after reactivation, and never
  // burn a full timeout discovering it).
  const auto kind = static_cast<FrameKind>(r.u8());
  if (kind != FrameKind::kRequest) return;
  const std::uint64_t call_id = r.u64();
  if (!r.ok()) return;
  if (kind_of_bounce == DeliveryKind::kBounceUnavailable) {
    fail_pending(call_id,
                 UnavailableError("request bounced: worker process exited"));
    return;
  }
  fail_pending(call_id, StaleBindingError("request bounced: endpoint gone"));
}

}  // namespace legion::rt
