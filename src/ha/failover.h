// Transparent failover: restore a crashed partition from its last committed
// micro-checkpoint and splice it back into the running system.

#ifndef TCSIM_SRC_HA_FAILOVER_H_
#define TCSIM_SRC_HA_FAILOVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/ha/output_buffer.h"
#include "src/net/topology.h"
#include "src/obs/metrics.h"
#include "src/sim/time.h"

namespace tcsim {
namespace ha {

// One committed epoch's restore tier: the serialized per-partition images
// retained in memory by the MicroCheckpointer. Epoch 0 is the bootstrap
// capture at t = 0, so a restore target always exists.
struct CommittedEpoch {
  uint64_t epoch = 0;  // 0 = bootstrap; k = barrier at k * period
  SimTime at = 0;
  bool durable = false;  // the epoch's repo batch committed (true if no repo)
  std::vector<std::shared_ptr<const std::vector<uint8_t>>> images;
};

// What one recovery did, for tests and the failover bench.
struct RecoveryRecord {
  uint32_t partition = 0;
  SimTime killed_at = 0;
  SimTime restored_to = 0;
  uint64_t epoch = 0;   // restore target
  bool ok = false;      // image parsed and every component restored
  double wall_ms = 0.0; // discard + reset + restore + replay, wall clock:
                        // the "failover" ledger stamp's duration
  size_t discarded = 0; // victim's unreleased held output dropped
  size_t replayed = 0;  // released inbound deliveries re-injected
};

// Executes the kill/restore/replay protocol (DESIGN.md §14):
//  1. discard the victim's unreleased buffered output (its replay will
//     regenerate exactly those sends),
//  2. wipe the victim's event queue and move its clock to the restore point
//     (Simulator::ResetForRestore),
//  3. restore every component from the committed image — components re-arm
//     their pending events DMTCP-style as they restore,
//  4. re-inject the released inbound deliveries the wipe lost,
//  5. let the conservative scheduler run the victim forward; it catches up
//     to the survivors by the next epoch barrier.
// Runs on the coordinator thread at a quiescent point; survivors are never
// touched.
class FailoverManager {
 public:
  FailoverManager(GeneratedTopology* topo, OutputCommitBuffer* buffer);

  // Kills `victim` at `now` (every partition quiesced at `now`) and restores
  // it from `target`. `buffer` may be null only in setups with no
  // cross-partition traffic.
  RecoveryRecord KillAndRestore(uint32_t victim, SimTime now,
                                const CommittedEpoch& target);

  const std::vector<RecoveryRecord>& recoveries() const { return recoveries_; }

 private:
  GeneratedTopology* topo_;
  OutputCommitBuffer* buffer_;
  std::vector<RecoveryRecord> recoveries_;
  obs::Counter* failovers_counter_;
  obs::Histogram* recovery_ms_;
  obs::Histogram* rollback_us_;
};

}  // namespace ha
}  // namespace tcsim

#endif  // TCSIM_SRC_HA_FAILOVER_H_
