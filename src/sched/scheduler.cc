#include "sched/scheduler.h"

#include <algorithm>

#include "trace/trace.h"

namespace bridgecl::sched {

Scheduler::Scheduler(simgpu::Device& device, const char* layer)
    : device_(device), layer_(layer) {
  queues_[kDefaultQueue] = QueueRec{};  // in-order, always present
}

uint64_t Scheduler::CreateQueue(bool out_of_order) {
  uint64_t id = next_queue_++;
  QueueRec q;
  q.ooo = out_of_order;
  queues_[id] = std::move(q);
  return id;
}

bool Scheduler::HasQueue(uint64_t queue) const {
  return queues_.count(queue) != 0;
}

Status Scheduler::ReleaseQueue(uint64_t queue) {
  if (queue == kDefaultQueue)
    return InvalidArgumentError("the default queue cannot be released");
  auto it = queues_.find(queue);
  if (it == queues_.end())
    return NotFoundError("unknown command queue/stream");
  RollClockTo(it->second.max_end);
  Status pending = TakePending(it->second);
  queues_.erase(it);
  return pending;
}

Status Scheduler::Enqueue(const CommandSpec& spec, bool blocking,
                          double queued_us,
                          const std::function<Status()>& exec,
                          uint64_t* event) {
  if (event != nullptr) *event = 0;
  QueueRec* q = Find(spec.queue);
  if (q == nullptr) return NotFoundError("unknown command queue/stream");
  // A blocking command is a synchronization point for its queue: a parked
  // deferred error surfaces here, *before* new side effects run.
  if (blocking && !q->pending.ok()) return TakePending(*q);

  const double now = device_.now_us();
  double ready = std::max(now, q->barrier_end);
  if (!q->ooo) ready = std::max(ready, q->last_end);
  for (uint64_t ev : spec.wait_events) {
    auto it = events_.find(ev);
    if (it == events_.end())
      return NotFoundError("unknown event in wait list");
    ready = std::max(ready, it->second.times.end_us);
  }
  // A marker with an empty wait list on an out-of-order queue waits for
  // everything enqueued so far (OpenCL 1.2 clEnqueueMarkerWithWaitList).
  if (spec.kind == CommandKind::kMarker && q->ooo && spec.wait_events.empty())
    ready = std::max(ready, q->max_end);

  double start = ready, end = ready;
  Status cmd_status;
  switch (spec.kind) {
    case CommandKind::kMarker:
      break;
    case CommandKind::kBarrier:
      start = end = std::max(ready, q->max_end);
      q->barrier_end = end;
      break;
    default: {
      // Run the side effects now; capture the time they would have cost
      // and place that window on the command's engine.
      device_.BeginCapture();
      cmd_status = exec();
      const double dur = device_.EndCapture();
      const simgpu::EngineId engine = spec.kind == CommandKind::kKernel
                                          ? simgpu::EngineId::kCompute
                                          : simgpu::EngineId::kCopy;
      start = device_.ReserveEngine(engine, ready, dur);
      end = start + dur;
      if (trace::TraceRecorder* t = device_.tracer();
          t != nullptr && dur > 0) {
        const bool compute = engine == simgpu::EngineId::kCompute;
        t->AppendCompleted(compute ? trace::TraceKind::kDeviceCompute
                                   : trace::TraceKind::kDeviceCopy,
                           layer_, compute ? "compute-engine" : "copy-engine",
                           start, end, /*lane=*/compute ? 2 : 1, spec.queue,
                           spec.bytes, spec.kernel, !cmd_status.ok());
      }
      break;
    }
  }
  q->last_end = end;
  q->max_end = std::max(q->max_end, end);

  const uint64_t id = next_event_++;
  if (event != nullptr) {
    events_[id] = EventRec{EventTimes{queued_us, start, end}, cmd_status};
    *event = id;
  }

  if (blocking) {
    RollClockTo(end);
    return cmd_status;
  }
  if (!cmd_status.ok() && q->pending.ok())
    q->pending = std::move(cmd_status);  // surfaces at the next sync point
  return OkStatus();
}

Status Scheduler::Synchronize(uint64_t queue) {
  QueueRec* q = Find(queue);
  if (q == nullptr) return NotFoundError("unknown command queue/stream");
  RollClockTo(q->max_end);
  return TakePending(*q);
}

Status Scheduler::SynchronizeAll() {
  Status first;
  for (auto& [id, q] : queues_) {
    RollClockTo(q.max_end);
    Status st = TakePending(q);
    if (!st.ok() && first.ok()) first = std::move(st);
  }
  return first;
}

Status Scheduler::WaitForEvents(std::span<const uint64_t> events) {
  double horizon = device_.now_us();
  Status first;
  for (uint64_t ev : events) {
    auto it = events_.find(ev);
    if (it == events_.end())
      return NotFoundError("unknown event in wait list");
    horizon = std::max(horizon, it->second.times.end_us);
    if (!it->second.status.ok() && first.ok()) first = it->second.status;
  }
  RollClockTo(horizon);
  return first;
}

Status Scheduler::StreamWaitEvent(uint64_t queue, uint64_t event) {
  QueueRec* q = Find(queue);
  if (q == nullptr) return NotFoundError("unknown command queue/stream");
  auto it = events_.find(event);
  if (it == events_.end()) return NotFoundError("unknown event");
  const double end = it->second.times.end_us;
  // In-order queues serialize through last_end; out-of-order queues only
  // respect barriers, so the wait becomes a barrier-like horizon.
  if (q->ooo)
    q->barrier_end = std::max(q->barrier_end, end);
  else
    q->last_end = std::max(q->last_end, end);
  return OkStatus();
}

Status Scheduler::EventSynchronize(uint64_t event) {
  auto it = events_.find(event);
  if (it == events_.end()) return NotFoundError("unknown event");
  RollClockTo(it->second.times.end_us);
  return it->second.status;
}

bool Scheduler::KnowsEvent(uint64_t event) const {
  return events_.count(event) != 0;
}

StatusOr<EventTimes> Scheduler::TimesOf(uint64_t event) const {
  auto it = events_.find(event);
  if (it == events_.end()) return NotFoundError("unknown event");
  return it->second.times;
}

bool Scheduler::ReleaseEvent(uint64_t event) {
  return events_.erase(event) != 0;
}

Scheduler::QueueRec* Scheduler::Find(uint64_t queue) {
  auto it = queues_.find(queue);
  return it == queues_.end() ? nullptr : &it->second;
}

const Scheduler::QueueRec* Scheduler::Find(uint64_t queue) const {
  auto it = queues_.find(queue);
  return it == queues_.end() ? nullptr : &it->second;
}

void Scheduler::RollClockTo(double end_us) {
  const double now = device_.now_us();
  if (end_us > now) device_.AdvanceUs(end_us - now);
}

Status Scheduler::TakePending(QueueRec& q) {
  Status st = std::move(q.pending);
  q.pending = OkStatus();
  return st;
}

}  // namespace bridgecl::sched
