// Virtual-time timer service used by protocol code.
//
// TCP retransmission and connection timers inside a guest must run on *guest
// virtual time*: when a transparent checkpoint freezes the guest, its RTO
// timers freeze with it, which is precisely why a checkpoint causes no
// spurious retransmissions (Section 7.1). Protocol code therefore never
// touches the Simulator directly; it schedules through a TimerHost, which the
// guest kernel implements on top of its (virtualized) clock.

#ifndef TCSIM_SRC_NET_TIMER_HOST_H_
#define TCSIM_SRC_NET_TIMER_HOST_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace tcsim {

class TimerHost;

// Shared cancellation state for a virtual timer. A timer may be migrated
// across simulator events when its host is checkpointed and resumed; the
// handle stays valid throughout. While the timer is registered with a host
// that drops cancelled timers (GuestKernel), `host` links back to it under
// `id`, so Cancel erases the timer and its simulator event at once instead
// of leaving a dead event to surface at the deadline. The host clears the
// link whenever it lets go of the timer (fire, restore, destruction), so a
// handle never reaches a host that no longer holds its timer.
struct TimerState {
  bool cancelled = false;
  bool fired = false;
  TimerHost* host = nullptr;
  uint64_t id = 0;
};

// Cancellable handle to a virtual timer.
class TimerHandle {
 public:
  TimerHandle() = default;
  explicit TimerHandle(std::shared_ptr<TimerState> state) : state_(std::move(state)) {}

  // Cancels the timer if it has not fired. Safe on empty handles and
  // repeated calls.
  void Cancel();

  bool pending() const { return state_ != nullptr && !state_->cancelled && !state_->fired; }

 private:
  std::shared_ptr<TimerState> state_;
};

// Scheduling surface exposed to protocol and application code.
class TimerHost {
 public:
  virtual ~TimerHost() = default;

  // Current virtual time as observed by code running on this host.
  virtual SimTime VirtualNow() const = 0;

  // Schedules `fn` to run after `delay` of *virtual* time. If the host is
  // suspended in between, the remaining delay is preserved across the
  // suspension (transparent mode) or elapses during it (baseline mode).
  virtual TimerHandle ScheduleVirtual(SimTime delay, std::function<void()> fn) = 0;

  // Re-creates a timer captured in a checkpoint image at an absolute virtual
  // deadline. Checkpointable hosts override this to re-register the timer as
  // frozen (their resume pass arms it); the default arms it directly.
  virtual TimerHandle RestoreTimerAtVirtual(SimTime deadline, std::function<void()> fn) {
    const SimTime now = VirtualNow();
    return ScheduleVirtual(deadline > now ? deadline - now : 0, std::move(fn));
  }

 protected:
  friend class TimerHandle;

  // Drops timer `id` and its simulator event; called once, by the first
  // Cancel of a handle whose TimerState links to this host. Hosts that never
  // set the link keep the default, and their timers check the flag instead.
  virtual void CancelTimer(uint64_t /*id*/) {}
};

inline void TimerHandle::Cancel() {
  if (state_ == nullptr) {
    return;
  }
  state_->cancelled = true;
  if (TimerHost* host = std::exchange(state_->host, nullptr)) {
    host->CancelTimer(state_->id);
  }
}

// TimerHost running directly on physical simulator time. Used for components
// that are never checkpointed (Emulab servers) and for protocol unit tests.
class PhysicalTimerHost : public TimerHost {
 public:
  explicit PhysicalTimerHost(Simulator* sim) : sim_(sim) {}

  SimTime VirtualNow() const override { return sim_->Now(); }

  TimerHandle ScheduleVirtual(SimTime delay, std::function<void()> fn) override {
    auto state = std::make_shared<TimerState>();
    sim_->Schedule(delay, [state, fn = std::move(fn)] {
      if (state->cancelled) {
        return;
      }
      state->fired = true;
      fn();
    });
    return TimerHandle(state);
  }

 private:
  Simulator* sim_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_NET_TIMER_HOST_H_
