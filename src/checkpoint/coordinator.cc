#include "src/checkpoint/coordinator.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <sstream>
#include <unordered_set>
#include <utility>

namespace tcsim {

SimTime DistributedCheckpointRecord::SuspendSkew() const {
  if (locals.empty()) {
    return 0;
  }
  SimTime lo = locals.front().suspended_at;
  SimTime hi = lo;
  for (const LocalCheckpointRecord& rec : locals) {
    lo = std::min(lo, rec.suspended_at);
    hi = std::max(hi, rec.suspended_at);
  }
  return hi - lo;
}

uint64_t DistributedCheckpointRecord::TotalImageBytes() const {
  uint64_t total = 0;
  for (const LocalCheckpointRecord& rec : locals) {
    total += rec.image_bytes;
  }
  return total;
}

std::vector<std::string> AuditCheckpointRecord(const DistributedCheckpointRecord& record,
                                               SimTime scheduled_skew_bound) {
  std::vector<std::string> violations;
  if (record.expected_participants > 0 &&
      record.locals.size() != record.expected_participants) {
    std::ostringstream out;
    out << "barrier collected " << record.locals.size() << " locals, expected "
        << record.expected_participants;
    violations.push_back(out.str());
  }
  std::unordered_set<std::string> seen;
  for (const LocalCheckpointRecord& local : record.locals) {
    if (!seen.insert(local.participant).second) {
      violations.push_back("participant counted twice at the barrier: " + local.participant);
    }
  }
  if (scheduled_skew_bound > 0 && record.scheduled_local_time != 0 &&
      record.SuspendSkew() > scheduled_skew_bound) {
    std::ostringstream out;
    out << "scheduled checkpoint suspend skew " << ToMicroseconds(record.SuspendSkew())
        << " us exceeds bound " << ToMicroseconds(scheduled_skew_bound) << " us";
    violations.push_back(out.str());
  }
  return violations;
}

DistributedCoordinator::DistributedCoordinator(Simulator* sim, NotificationBus* bus,
                                               HardwareClock* boss_clock)
    : sim_(sim),
      bus_(bus),
      boss_clock_(boss_clock),
      rounds_counter_(
          obs::MetricsRegistry::Global().FindCounter("checkpoint.coordinator.rounds")),
      duplicate_done_counter_(obs::MetricsRegistry::Global().FindCounter(
          "checkpoint.coordinator.duplicate_done")) {
  bus_->SetServerHandler([this](const CheckpointControlMessage& msg) {
    if (msg.type == CheckpointControlMessage::Type::kDone) {
      OnDone(msg.record);
    }
  });
}

void DistributedCoordinator::BeginRound(
    std::function<void(const DistributedCheckpointRecord&)> done, bool hold) {
  assert(!in_progress_);
  in_progress_ = true;
  hold_ = hold;
  held_ = false;
  current_ = DistributedCheckpointRecord{};
  done_participants_.clear();
  done_cb_ = std::move(done);
  // The barrier counts the *live* subscriber set at round start: participants
  // subscribing after the coordinator was built (or between rounds) must be
  // waited for, or the barrier completes early and resumes a half-suspended
  // experiment.
  expected_ = expected_override_ > 0 ? expected_override_ : bus_->subscriber_count();
  current_.expected_participants = expected_;

  obs::TraceSession& trace = obs::TraceSession::Global();
  epoch_span_ = trace.BeginSpan("coordinator", hold ? "ckpt.epoch.hold" : "ckpt.epoch",
                                sim_->Now());
  trace.AddSpanArg(epoch_span_, "expected", static_cast<double>(expected_));
  quiesce_span_ = trace.BeginSpan("coordinator", "ckpt.quiesce", sim_->Now());
  barrier_span_ = 0;
  resume_span_ = 0;
}

void DistributedCoordinator::CheckpointScheduled(
    SimTime lead, std::function<void(const DistributedCheckpointRecord&)> done) {
  BeginRound(std::move(done), /*hold=*/false);

  auto msg = std::make_shared<CheckpointControlMessage>();
  msg->type = CheckpointControlMessage::Type::kCheckpointAt;
  msg->local_time = boss_clock_->LocalNow() + lead;
  current_.scheduled_local_time = msg->local_time;
  bus_->Publish(std::move(msg));
}

void DistributedCoordinator::CheckpointImmediate(
    std::function<void(const DistributedCheckpointRecord&)> done) {
  BeginRound(std::move(done), /*hold=*/false);

  auto msg = std::make_shared<CheckpointControlMessage>();
  msg->type = CheckpointControlMessage::Type::kCheckpointNow;
  bus_->Publish(std::move(msg));
}

void DistributedCoordinator::OnDone(const LocalCheckpointRecord& record) {
  if (!in_progress_) {
    return;
  }
  if (!done_participants_.insert(record.participant).second) {
    // A duplicate kDone (retransmission, confused daemon) must not count
    // toward the barrier — it would complete the round while some
    // participant is still saving. Record it as an audit violation rather
    // than silently finishing early.
    ++duplicate_done_count_;
    duplicate_done_counter_->Increment();
    if (invariants_ != nullptr) {
      invariants_->ReportViolation(
          "checkpoint.barrier", "duplicate kDone from participant " + record.participant);
    }
    return;
  }
  if (current_.locals.size() >= expected_) {
    // The barrier already completed (possible when the expected count is
    // pinned below the live subscriber set): a straggler reporting during the
    // resume window must not mutate the completed round's record.
    obs::TraceSession::Global().Instant("coordinator", "ckpt.straggler_done", sim_->Now());
    return;
  }
  if (current_.locals.empty()) {
    // First participant has saved: quiescing is over, the barrier collects.
    obs::TraceSession& trace = obs::TraceSession::Global();
    trace.EndSpan(quiesce_span_, sim_->Now());
    quiesce_span_ = 0;
    barrier_span_ = trace.BeginSpan("coordinator", "ckpt.barrier", sim_->Now());
  }
  current_.locals.push_back(record);
  if (current_.locals.size() >= expected_) {
    FinishRound();
  }
}

void DistributedCoordinator::CheckpointScheduledAndHold(
    SimTime lead, std::function<void(const DistributedCheckpointRecord&)> saved) {
  BeginRound(std::move(saved), /*hold=*/true);

  auto msg = std::make_shared<CheckpointControlMessage>();
  msg->type = CheckpointControlMessage::Type::kCheckpointAt;
  msg->local_time = boss_clock_->LocalNow() + lead;
  current_.scheduled_local_time = msg->local_time;
  bus_->Publish(std::move(msg));
}

void DistributedCoordinator::ResumeAll(std::function<void()> resumed) {
  assert(held_);
  held_ = false;
  current_.resume_local_time = boss_clock_->LocalNow() + kResumeMargin;
  auto msg = std::make_shared<CheckpointControlMessage>();
  msg->type = CheckpointControlMessage::Type::kResumeAt;
  msg->local_time = current_.resume_local_time;
  bus_->Publish(std::move(msg));

  resume_span_ = obs::TraceSession::Global().BeginSpan("coordinator", "ckpt.resume",
                                                       sim_->Now());
  boss_clock_->ScheduleAtLocal(current_.resume_local_time + kMillisecond,
                               [this, resumed = std::move(resumed)] {
                                 in_progress_ = false;
                                 history_.push_back(current_);
                                 EndEpochSpans();
                                 if (resumed) {
                                   resumed();
                                 }
                               });
}

void DistributedCoordinator::EndEpochSpans() {
  obs::TraceSession& trace = obs::TraceSession::Global();
  trace.EndSpan(resume_span_, sim_->Now());
  trace.AddSpanArg(epoch_span_, "collected",
                   static_cast<double>(history_.back().locals.size()));
  trace.EndSpan(epoch_span_, sim_->Now());
  resume_span_ = 0;
  epoch_span_ = 0;
}

void DistributedCoordinator::FinishRound() {
  rounds_counter_->Increment();
  obs::TraceSession& trace = obs::TraceSession::Global();
  trace.AddSpanArg(barrier_span_, "expected", static_cast<double>(expected_));
  trace.AddSpanArg(barrier_span_, "collected",
                   static_cast<double>(current_.locals.size()));
  trace.AddSpanArg(barrier_span_, "duplicate_done",
                   static_cast<double>(duplicate_done_count_));
  trace.EndSpan(barrier_span_, sim_->Now());
  barrier_span_ = 0;

  if (hold_) {
    // Stateful swap-out: leave everything suspended; the caller resumes
    // later (possibly much later) via ResumeAll.
    held_ = true;
    if (done_cb_) {
      auto cb = std::move(done_cb_);
      cb(current_);
    }
    return;
  }
  // Barrier complete: schedule the synchronized resume.
  current_.resume_local_time = boss_clock_->LocalNow() + kResumeMargin;
  auto msg = std::make_shared<CheckpointControlMessage>();
  msg->type = CheckpointControlMessage::Type::kResumeAt;
  msg->local_time = current_.resume_local_time;
  bus_->Publish(std::move(msg));

  resume_span_ = trace.BeginSpan("coordinator", "ckpt.resume", sim_->Now());
  // Report shortly after the resume instant, once everyone is running again.
  boss_clock_->ScheduleAtLocal(current_.resume_local_time + kMillisecond, [this] {
    in_progress_ = false;
    history_.push_back(current_);
    EndEpochSpans();
    if (done_cb_) {
      auto cb = std::move(done_cb_);
      cb(history_.back());
    }
  });
}

void DistributedCoordinator::RegisterInvariants(InvariantRegistry* reg,
                                                SimTime scheduled_skew_bound) {
  invariants_ = reg;
  // Each completed record is audited exactly once (the history only grows),
  // so a bad round is reported once rather than on every subsequent pass.
  auto audited = std::make_shared<size_t>(0);
  reg->Register("checkpoint.barrier",
                [this, scheduled_skew_bound, audited](AuditReport& report) {
    if (in_progress_ && current_.locals.size() > expected_) {
      std::ostringstream out;
      out << "in-progress round holds " << current_.locals.size()
          << " locals, more than the expected " << expected_;
      report.Fail(out.str());
    }
    for (; *audited < history_.size(); ++*audited) {
      for (std::string& violation :
           AuditCheckpointRecord(history_[*audited], scheduled_skew_bound)) {
        report.Fail(std::move(violation));
      }
    }
  });
}

}  // namespace tcsim
