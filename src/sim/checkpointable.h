// The uniform per-component checkpoint/restore contract.
//
// Following DMTCP's plugin model, every stateful component of a simulated
// node — hardware clock, Xen domain, guest kernel, network stack, Dummynet
// pipes, branching store, workload apps — implements this interface. A
// checkpoint engine walks its component list, asks each one to serialize its
// *data* state into a chunk of a composite image, and on restore hands each
// component its chunk back.
//
// Closures (timer callbacks, deferred I/O completions, in-flight CPU jobs)
// are deliberately NOT serialized: like DMTCP plugins re-opening descriptors,
// each owner re-registers its callbacks during RestoreState using the
// re-arming hooks the kernel/scheduler expose. Only plain data crosses the
// image boundary.

#ifndef TCSIM_SRC_SIM_CHECKPOINTABLE_H_
#define TCSIM_SRC_SIM_CHECKPOINTABLE_H_

#include <string>

#include "src/sim/archive.h"

namespace tcsim {

class Checkpointable {
 public:
  virtual ~Checkpointable() = default;

  // Stable identifier naming this component's chunk inside a composite image
  // (e.g. "clock", "net.stack", "workload.basic"). Must be unique within one
  // image and stable across save/restore and across format revisions.
  virtual std::string checkpoint_id() const = 0;

  // Serializes the component's logical state. Called only at a quiescent
  // point (inside the atomic suspend, after block I/O has drained), so
  // implementations may assume no activity is in flight.
  virtual void SaveState(ArchiveWriter* w) const = 0;

  // Restores state saved by SaveState. The component re-arms its own future
  // events (the simulator clock has already been positioned at the image's
  // capture time). Implementations must tolerate truncated input by checking
  // r.ok() before trusting counts read from the archive.
  virtual void RestoreState(ArchiveReader& r) = 0;
};

}  // namespace tcsim

#endif  // TCSIM_SRC_SIM_CHECKPOINTABLE_H_
