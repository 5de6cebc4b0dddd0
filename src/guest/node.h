// A physical experiment node: hypervisor + guest VM + clocks + disks + NICs.
//
// Matches the evaluation setup (Section 7): a pc3000-class machine with two
// local disks (one hosting the guest's logical disk, one for checkpoint
// snapshots), an experimental-network NIC, a control-network NIC, an
// NTP-disciplined clock, a Xen hypervisor, and a single paravirtualized
// Linux guest running on a three-level branching store.

#ifndef TCSIM_SRC_GUEST_NODE_H_
#define TCSIM_SRC_GUEST_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/clock/hardware_clock.h"
#include "src/guest/kernel.h"
#include "src/net/stack.h"
#include "src/net/timer_host.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/storage/branch_store.h"
#include "src/storage/disk.h"
#include "src/storage/mirror_volume.h"
#include "src/xen/hypervisor.h"

namespace tcsim {

// Static configuration of one node.
struct NodeConfig {
  // How the guest's logical disk is backed. kBranch is the deployed system;
  // kRaw (a plain partition) and the BranchStore's kReadBeforeWrite mode are
  // the Figure 8 baselines.
  enum class StorageMode { kBranch, kRaw };

  std::string name = "node";
  NodeId id = 1;
  DomainConfig domain;
  ClockParams clock;
  DiskParams disk;
  uint64_t disk_blocks = 6ull * 1024 * 1024 * 1024 / kBlockSize;  // 6 GB image
  BranchStore::WriteMode write_mode = BranchStore::WriteMode::kRedoLog;
  StorageMode storage_mode = StorageMode::kBranch;
  // Control-network path to the Emulab file server (100 Mbps LAN).
  uint64_t fs_channel_bandwidth_bytes_per_sec = 12'500'000;
  SimTime fs_channel_rtt = 500 * kMicrosecond;
  MirrorParams mirror;
};

class ExperimentNode {
 public:
  ExperimentNode(Simulator* sim, Rng rng, NodeConfig config);

  ExperimentNode(const ExperimentNode&) = delete;
  ExperimentNode& operator=(const ExperimentNode&) = delete;

  const std::string& name() const { return config_.name; }
  NodeId id() const { return config_.id; }
  const NodeConfig& config() const { return config_; }

  HardwareClock& clock() { return clock_; }
  Hypervisor& hypervisor() { return hypervisor_; }
  Domain& domain() { return *domain_; }
  GuestKernel& kernel() { return *kernel_; }
  NetworkStack& net() { return *net_; }

  // NIC on the experimental network (VLAN / shaped links).
  Nic* experimental_nic() { return experimental_nic_; }

  // Guest NIC on the Emulab control network (for NFS/DNS/event traffic from
  // inside the experiment; suspended with the guest).
  Nic* control_nic() { return control_nic_; }

  // Dom0's own control-network presence: the checkpoint daemon's stack. It
  // is never suspended — a fully suspended node could otherwise not hear the
  // coordinator's resume notification.
  NetworkStack& dom0_stack() { return *dom0_stack_; }
  Nic* dom0_control_nic() { return dom0_control_nic_; }

  // NodeId used by dom0 on the control network.
  NodeId dom0_id() const { return config_.id + kDom0IdOffset; }

  static constexpr NodeId kDom0IdOffset = 0x10000;

  // Registers this node's audits: clock monotonicity, per-NIC packet
  // conservation, suspended-guest quiescence, frozen-domain virtual-clock
  // stasis, and zero inside-firewall leakage while engaged.
  void RegisterInvariants(InvariantRegistry* reg);

  // Appends this node's checkpointable components in restore order. Order
  // matters: the kernel clears its timer table and job queues before the
  // layers that re-register timers (network stack, workloads) are restored.
  void AppendCheckpointables(std::vector<Checkpointable*>* out);

  BranchStore& store() { return store_; }
  MirrorVolume& mirror() { return mirror_; }
  TransferChannel& fs_channel() { return fs_channel_; }

 private:
  Simulator* sim_;
  NodeConfig config_;
  Rng rng_;
  HardwareClock clock_;
  Hypervisor hypervisor_;
  Domain* domain_;
  std::unique_ptr<GuestKernel> kernel_;
  NetworkStack* net_;
  Nic* experimental_nic_;
  Nic* control_nic_;
  PhysicalTimerHost dom0_timers_;
  std::unique_ptr<NetworkStack> dom0_stack_;
  Nic* dom0_control_nic_;
  Disk data_disk_;
  Disk snapshot_disk_;
  BranchStore store_;
  std::unique_ptr<RawDisk> raw_disk_;  // only for StorageMode::kRaw
  TransferChannel fs_channel_;
  MirrorVolume mirror_;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_GUEST_NODE_H_
