// Deferred-execution command scheduler shared by both mini-runtimes
// (docs/CONCURRENCY.md). Each native runtime owns one Scheduler per
// device; CL command queues and CUDA streams both map onto scheduler
// queues, which is what makes the paper's queue<->stream translation
// (§3) a handle-passing exercise for the wrappers instead of a semantic
// re-implementation.
//
// Execution model: command side effects run *eagerly* at enqueue time,
// in deterministic enqueue order, while the time they cost is captured
// (Device::BeginCapture) instead of advancing the host clock. The
// captured duration is then placed on one of the device's two engines
// (copy or compute) no earlier than the command's dependency horizon:
//   ready = max(host clock at enqueue,
//               previous command's end      [in-order queues],
//               last barrier's end,
//               every wait-list event's end)
//   start = max(ready, engine free time)
//   end   = start + duration
// Blocking commands roll the host clock to `end`; non-blocking commands
// leave the clock alone so later independent commands can be placed on
// the other engine inside the same window — copy/compute overlap.
//
// Errors from non-blocking commands are parked on the owning queue and
// surface, sticky, at the next synchronization point (Synchronize,
// ReleaseQueue, or a blocking command on the same queue), preserving
// whatever per-entry-point error code the failing command's closure
// sealed. Events record queued/start/end times and the command's final
// status *by value*, so they remain queryable after their queue is
// released (clReleaseCommandQueue must not invalidate event objects).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "simgpu/device.h"
#include "support/status.h"

namespace bridgecl::sched {

/// Queue handle of the default queue. It always exists, is in-order, and
/// cannot be released; it backs the CL default command queue and the CUDA
/// default (null) stream.
inline constexpr uint64_t kDefaultQueue = 0;

enum class CommandKind {
  kCopyH2D,
  kCopyD2H,
  kCopyD2D,
  kKernel,
  kMarker,   // completes when its dependencies complete; zero duration
  kBarrier,  // completes when *everything* enqueued so far on the queue
             // has completed, and orders all later commands after it
};

struct CommandSpec {
  CommandKind kind = CommandKind::kMarker;
  uint64_t queue = kDefaultQueue;
  std::vector<uint64_t> wait_events;  // explicit event dependencies
  uint64_t bytes = 0;                 // copies: payload size (for traces)
  std::string kernel;                 // kernel launches: name (for traces)
};

/// Timestamps of a completed command, in simulated microseconds.
/// `queued_us` is the host clock when the API entry point was entered
/// (CL_PROFILING_COMMAND_QUEUED); `start_us`/`end_us` are the engine
/// execution window.
struct EventTimes {
  double queued_us = 0;
  double start_us = 0;
  double end_us = 0;
};

class Scheduler {
 public:
  /// `layer` is the static layer tag device-engine trace spans are
  /// recorded under ("mocl" or "mcuda").
  Scheduler(simgpu::Device& device, const char* layer);

  // -- queues ---------------------------------------------------------------
  /// Creates a queue and returns its handle (handles start at 1, so a
  /// handle is never null when smuggled through a cudaStream_t pointer).
  uint64_t CreateQueue(bool out_of_order);
  bool HasQueue(uint64_t queue) const;
  /// Implicit Finish, then removal. Surfaces the queue's parked error.
  /// The default queue cannot be released. Events outlive their queue.
  Status ReleaseQueue(uint64_t queue);

  // -- enqueue --------------------------------------------------------------
  /// Enqueues one command. `queued_us` is the host clock captured at the
  /// API entry (before its ChargeApiCall). `exec` runs the command's side
  /// effects and must return a Status already sealed with the entry
  /// point's error code; it is skipped for markers/barriers. For blocking
  /// commands a parked queue error is returned (and cleared) *instead* of
  /// executing, and the host clock rolls to the command's end. For
  /// non-blocking commands a failure parks on the queue and the call
  /// reports success. Wait-list events must exist (KnowsEvent).
  ///
  /// Every enqueued command takes the next event handle, but only a
  /// caller that passes `event` gets it, and only then is an event
  /// recorded, to be dropped by ReleaseEvent. `*event` is 0 if the
  /// enqueue failed.
  Status Enqueue(const CommandSpec& spec, bool blocking, double queued_us,
                 const std::function<Status()>& exec,
                 uint64_t* event = nullptr);

  // -- synchronization ------------------------------------------------------
  /// clFinish(queue) / cudaStreamSynchronize: rolls the host clock to the
  /// end of everything enqueued on `queue`; returns its parked error.
  Status Synchronize(uint64_t queue);
  /// cudaDeviceSynchronize: Synchronize over every live queue (in handle
  /// order); returns the first parked error found.
  Status SynchronizeAll();
  /// clWaitForEvents: rolls the clock to the latest end among `events`;
  /// returns the first event's recorded failure, if any. Unknown events
  /// are NotFound (callers map to CL_INVALID_EVENT / cudaError handles).
  Status WaitForEvents(std::span<const uint64_t> events);
  /// cudaStreamWaitEvent: all commands enqueued on `queue` *after* this
  /// call start no earlier than the event's end.
  Status StreamWaitEvent(uint64_t queue, uint64_t event);
  /// cudaEventSynchronize: rolls the clock to the event's end and returns
  /// the recorded status of its command.
  Status EventSynchronize(uint64_t event);

  // -- events ---------------------------------------------------------------
  bool KnowsEvent(uint64_t event) const;
  StatusOr<EventTimes> TimesOf(uint64_t event) const;
  /// Drops the event record. Returns false if the event is unknown.
  bool ReleaseEvent(uint64_t event);
  /// Live event records (leak check for the sanitize suite).
  size_t LiveEvents() const { return events_.size(); }

 private:
  struct QueueRec {
    bool ooo = false;
    double last_end = 0;     // end of the previously enqueued command
    double barrier_end = 0;  // end of the last barrier
    double max_end = 0;      // completion horizon of the whole queue
    Status pending;          // first deferred failure, cleared at sync
  };
  struct EventRec {
    EventTimes times;
    Status status;
  };

  QueueRec* Find(uint64_t queue);
  const QueueRec* Find(uint64_t queue) const;
  void RollClockTo(double end_us);
  Status TakePending(QueueRec& q);

  simgpu::Device& device_;
  const char* layer_;
  // std::map: deterministic iteration order for SynchronizeAll.
  std::map<uint64_t, QueueRec> queues_;
  std::map<uint64_t, EventRec> events_;
  uint64_t next_queue_ = 1;
  // Event handles live in their own bit-space so stale handles from other
  // subsystems can never alias a live event.
  uint64_t next_event_ = 0x5000'0000'0000'0001ULL;
};

}  // namespace bridgecl::sched
