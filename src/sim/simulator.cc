#include "src/sim/simulator.h"

#include <utility>

namespace tcsim {

EventHandle Simulator::Schedule(SimTime delay, EventFn&& fn) {
  if (delay < 0) {
    delay = 0;
  }
  return queue_.Push(now_ + delay, std::move(fn));
}

EventHandle Simulator::ScheduleAt(SimTime t, EventFn&& fn) {
  if (t < now_) {
    t = now_;
  }
  return queue_.Push(t, std::move(fn));
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(SimTime t) {
  while (!queue_.Empty() && queue_.NextTime() <= t) {
    Step();
  }
  if (now_ < t) {
    now_ = t;
  }
}

void Simulator::ResetForRestore(SimTime t) {
  queue_.Clear();
  now_ = t;
}

bool Simulator::Step() {
  if (queue_.Empty()) {
    return false;
  }
  SimTime t = 0;
  EventFn fn = queue_.Pop(&t);
  now_ = t;
  ++events_processed_;
  if (fn) {
    fn();
  }
  return true;
}

}  // namespace tcsim
