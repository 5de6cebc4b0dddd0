// A delay node: a dedicated traffic-shaping element interposed on a link.

#ifndef TCSIM_SRC_DUMMYNET_DELAY_NODE_H_
#define TCSIM_SRC_DUMMYNET_DELAY_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/clock/hardware_clock.h"
#include "src/dummynet/pipe.h"
#include "src/sim/archive.h"
#include "src/sim/checkpointable.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace tcsim {

// Emulab interposes a delay node on each shaped link; the links between the
// delay node and the endpoints are zero-delay (Section 4.4), so the
// bandwidth-delay-product packets of the emulated link live inside this
// node's two pipes. The delay node participates in the coordinated
// checkpoint like any other node — it has its own NTP-disciplined clock and
// suspends at the scheduled instant — but checkpoints only its Dummynet
// state rather than a whole VM image.
class DelayNode : public Checkpointable {
 public:
  DelayNode(Simulator* sim, Rng rng, std::string name, ClockParams clock_params);

  DelayNode(const DelayNode&) = delete;
  DelayNode& operator=(const DelayNode&) = delete;

  // Configures duplex shaping: traffic entering via ingress_a() is shaped by
  // `cfg` and delivered to `toward_b`, and symmetrically for ingress_b().
  void Shape(const PipeConfig& cfg, PacketHandler* toward_a, PacketHandler* toward_b);

  // Ingress port for packets travelling A -> B.
  PacketHandler* ingress_a() { return pipe_ab_.get(); }

  // Ingress port for packets travelling B -> A.
  PacketHandler* ingress_b() { return pipe_ba_.get(); }

  // Freezes both pipes (the delay-node live checkpoint).
  void Suspend();

  // Unfreezes both pipes, compensating packet deadlines for the downtime.
  void Resume();

  // Serializes the Dummynet state — the delay-node checkpoint image.
  std::vector<uint8_t> SaveState() const;

  // Checkpointable: the node's NTP-disciplined clock plus both pipe
  // directions. RestoreState targets a freshly built node (ingress is
  // credited for the reconstructed packets); ApplyImageInPlace re-applies a
  // held image to this same node on resume, where the packets were already
  // counted at original ingress.
  std::string checkpoint_id() const override { return "dummynet." + name_; }
  void SaveState(ArchiveWriter* w) const override;
  void RestoreState(ArchiveReader& r) override;
  void ApplyImageInPlace(ArchiveReader& r);

  // In-flight packets currently captured in the node.
  size_t PacketsHeld() const;

  const std::string& name() const { return name_; }
  HardwareClock& clock() { return clock_; }
  Pipe* pipe_ab() { return pipe_ab_.get(); }
  Pipe* pipe_ba() { return pipe_ba_.get(); }

  // Registers packet conservation for both pipe directions and local-clock
  // monotonicity, all named under this node's name.
  void RegisterInvariants(InvariantRegistry* reg);

 private:
  Simulator* sim_;
  Rng rng_;
  std::string name_;
  HardwareClock clock_;
  std::unique_ptr<Pipe> pipe_ab_;
  std::unique_ptr<Pipe> pipe_ba_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_DUMMYNET_DELAY_NODE_H_
