#include "src/dummynet/delay_node.h"

#include <cassert>
#include <utility>

namespace tcsim {

DelayNode::DelayNode(Simulator* sim, Rng rng, std::string name, ClockParams clock_params)
    : sim_(sim), rng_(rng), name_(std::move(name)), clock_(sim, rng_.Fork(), clock_params) {
  // Delay nodes participate in scheduled checkpoints by their own clocks,
  // so they run NTP like every other testbed node.
  clock_.StartNtp();
}

void DelayNode::Shape(const PipeConfig& cfg, PacketHandler* toward_a,
                      PacketHandler* toward_b) {
  pipe_ab_ = std::make_unique<Pipe>(sim_, rng_.Fork(), cfg, toward_b);
  pipe_ba_ = std::make_unique<Pipe>(sim_, rng_.Fork(), cfg, toward_a);
}

void DelayNode::Suspend() {
  assert(pipe_ab_ && pipe_ba_);
  pipe_ab_->Suspend();
  pipe_ba_->Suspend();
}

void DelayNode::Resume() {
  pipe_ab_->Resume();
  pipe_ba_->Resume();
}

std::vector<uint8_t> DelayNode::SaveState() const {
  ArchiveWriter w;
  SaveState(&w);
  return w.Take();
}

void DelayNode::SaveState(ArchiveWriter* w) const {
  // The clock is a nested blob so the in-place resume path can skip it:
  // the node's clock keeps running during a suspension, and rewinding its
  // NTP discipline would break local-clock monotonicity.
  ArchiveWriter clock_chunk;
  clock_.SaveState(&clock_chunk);
  w->WriteVector(clock_chunk.data());
  const bool has_pipes = pipe_ab_ != nullptr && pipe_ba_ != nullptr;
  w->Write<uint8_t>(has_pipes ? 1 : 0);
  if (has_pipes) {
    pipe_ab_->Save(w);
    pipe_ba_->Save(w);
  }
}

void DelayNode::RestoreState(ArchiveReader& r) {
  ArchiveReader clock_reader = r.ReadNested();
  clock_.RestoreState(clock_reader);
  const bool has_pipes = r.Read<uint8_t>() != 0;
  if (has_pipes && pipe_ab_ && pipe_ba_ && r.ok()) {
    pipe_ab_->ResetForRestore();
    pipe_ab_->Restore(r, /*credit_ingress=*/true);
    pipe_ba_->ResetForRestore();
    pipe_ba_->Restore(r, /*credit_ingress=*/true);
  }
}

void DelayNode::ApplyImageInPlace(ArchiveReader& r) {
  r.ReadNested();  // clock chunk: the live clock stays authoritative
  const bool has_pipes = r.Read<uint8_t>() != 0;
  if (has_pipes && pipe_ab_ && pipe_ba_ && r.ok()) {
    pipe_ab_->ResetForRestore();
    pipe_ab_->Restore(r, /*credit_ingress=*/false);
    pipe_ba_->ResetForRestore();
    pipe_ba_->Restore(r, /*credit_ingress=*/false);
  }
}

void DelayNode::RegisterInvariants(InvariantRegistry* reg) {
  clock_.RegisterInvariants(reg, "clock.monotonic." + name_);
  if (pipe_ab_) {
    pipe_ab_->RegisterInvariants(reg, "net.conservation." + name_ + ".ab");
  }
  if (pipe_ba_) {
    pipe_ba_->RegisterInvariants(reg, "net.conservation." + name_ + ".ba");
  }
}

size_t DelayNode::PacketsHeld() const {
  size_t held = 0;
  if (pipe_ab_) {
    held += pipe_ab_->PacketsHeld();
  }
  if (pipe_ba_) {
    held += pipe_ba_->PacketsHeld();
  }
  return held;
}

}  // namespace tcsim
