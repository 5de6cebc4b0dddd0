// The simulated Emulab facility: node pool, control network, boss and fs
// servers, and experiment lifecycle management.

#ifndef TCSIM_SRC_EMULAB_TESTBED_H_
#define TCSIM_SRC_EMULAB_TESTBED_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/checkpoint/coordinator.h"
#include "src/checkpoint/delay_node_participant.h"
#include "src/checkpoint/local_checkpoint.h"
#include "src/checkpoint/notification_bus.h"
#include "src/clock/hardware_clock.h"
#include "src/dummynet/delay_node.h"
#include "src/emulab/experiment_spec.h"
#include "src/guest/node.h"
#include "src/net/lan.h"
#include "src/net/stack.h"
#include "src/net/timer_host.h"
#include "src/repo/checkpoint_repo.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace tcsim {

class Experiment;

// Facility-wide configuration.
struct TestbedConfig {
  ClockParams node_clock;
  DiskParams node_disk;
  uint64_t control_bandwidth_bps = 100'000'000;  // dedicated 100 Mbps LAN
  SimTime control_port_delay = 100 * kMicrosecond;

  // Swap-in timing (Section 7.2): booting from a cached golden image, and
  // the extra Frisbee download when the image is not cached.
  SimTime base_boot_time = 8 * kSecond;
  SimTime golden_download_time = 60 * kSecond;

  CheckpointPolicy checkpoint_policy;
};

// Well-known control-network addresses.
inline constexpr NodeId kBossAddr = 0x20000;
inline constexpr NodeId kFsAddr = 0x20001;
inline constexpr NodeId kDelayDaemonBase = 0x30000;

class Testbed {
 public:
  Testbed(Simulator* sim, uint64_t seed, TestbedConfig config = {});
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  // Maps an experiment description onto testbed resources: allocates nodes,
  // interposes delay nodes on shaped links, configures VLANs and the control
  // network, and wires the checkpoint plane. The experiment starts in the
  // created (not swapped-in) state.
  Experiment* CreateExperiment(const ExperimentSpec& spec);

  Simulator* sim() { return sim_; }
  const TestbedConfig& config() const { return config_; }
  Rng* rng() { return &rng_; }

  NetworkStack& boss_stack() { return *boss_stack_; }
  NetworkStack& fs_stack() { return *fs_stack_; }
  HardwareClock& boss_clock() { return *boss_clock_; }
  Lan& control_lan() { return *control_lan_; }

  // Allocates a fresh guest NodeId.
  NodeId AllocateNodeId() { return next_node_id_++; }

  // Attaches the fs server's durable checkpoint repository. With one
  // attached, stateful swap-out puts every node's checkpoint image into it
  // (retiring the previous swap generation) and stateful swap-in reads the
  // images back, verifying them byte-for-byte against the engines' stores.
  // Not owned; pass null to detach.
  void AttachRepository(CheckpointRepo* repo) { repo_ = repo; }
  CheckpointRepo* repo() { return repo_; }

 private:
  Simulator* sim_;
  TestbedConfig config_;
  Rng rng_;
  std::unique_ptr<PhysicalTimerHost> server_timers_;
  std::unique_ptr<HardwareClock> boss_clock_;
  std::unique_ptr<NetworkStack> boss_stack_;
  std::unique_ptr<NetworkStack> fs_stack_;
  std::unique_ptr<Lan> control_lan_;
  NodeId next_node_id_ = 1;
  CheckpointRepo* repo_ = nullptr;
  std::vector<std::unique_ptr<Experiment>> experiments_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_EMULAB_TESTBED_H_
