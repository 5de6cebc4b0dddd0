#include "src/emulab/experiment.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "src/emulab/testbed.h"
#include "src/obs/trace_session.h"

namespace tcsim {

namespace {
// Lead time for the scheduled suspend of a swap-out checkpoint.
constexpr SimTime kSwapCheckpointLead = 100 * kMillisecond;
}  // namespace

Experiment::Experiment(Testbed* testbed, const ExperimentSpec& spec)
    : testbed_(testbed), sim_(testbed->sim()), spec_(spec) {
  BuildTopology(spec_);
}

Experiment::~Experiment() = default;

ExperimentNode* Experiment::node(const std::string& name) {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : it->second.node.get();
}

std::vector<ExperimentNode*> Experiment::nodes() {
  std::vector<ExperimentNode*> out;
  out.reserve(node_order_.size());
  for (const std::string& name : node_order_) {
    out.push_back(nodes_[name].node.get());
  }
  return out;
}

LocalCheckpointEngine* Experiment::engine(const std::string& node_name) {
  auto it = nodes_.find(node_name);
  return it == nodes_.end() ? nullptr : it->second.engine.get();
}

void Experiment::BuildTopology(const ExperimentSpec& spec) {
  const TestbedConfig& cfg = testbed_->config();
  Rng* rng = testbed_->rng();

  // The checkpoint notification bus lives on the boss server; the
  // coordinator schedules against boss's (NTP-disciplined) clock.
  bus_ = std::make_unique<NotificationBus>(&testbed_->boss_stack());
  coordinator_ =
      std::make_unique<DistributedCoordinator>(sim_, bus_.get(), &testbed_->boss_clock());

  // Allocate and configure the experiment nodes.
  for (const NodeSpec& node_spec : spec.nodes()) {
    NodeConfig node_cfg;
    node_cfg.name = node_spec.name;
    node_cfg.id = testbed_->AllocateNodeId();
    node_cfg.domain = node_spec.domain;
    node_cfg.clock = cfg.node_clock;
    node_cfg.disk = cfg.node_disk;

    MappedNode mapped;
    mapped.node = std::make_unique<ExperimentNode>(sim_, rng->Fork(), node_cfg);
    mapped.engine = std::make_unique<LocalCheckpointEngine>(sim_, mapped.node.get(),
                                                            cfg.checkpoint_policy);
    mapped.daemon = std::make_unique<CheckpointDaemon>(&mapped.node->dom0_stack(), kBossAddr,
                                                       mapped.engine.get());
    // Control-network attachment: the guest's control NIC and Dom0's NIC.
    testbed_->control_lan().Attach(mapped.node->control_nic());
    testbed_->control_lan().Attach(mapped.node->dom0_control_nic());
    // Control-plane destinations route out the control NIC; everything else
    // defaults to the experimental NIC.
    mapped.node->net().AddRoute(kBossAddr, mapped.node->control_nic());
    mapped.node->net().AddRoute(kFsAddr, mapped.node->control_nic());
    // Free-block elimination plugin hookup happens when a workload installs
    // a filesystem; the store accepts a filter at any time.
    bus_->Subscribe(mapped.node->dom0_id());

    node_order_.push_back(node_spec.name);
    nodes_.emplace(node_spec.name, std::move(mapped));
  }

  // Shaped point-to-point links: interpose a delay node (Section 4.4). The
  // endpoint wires are zero-delay; all bandwidth-delay-product packets live
  // in the delay node's pipes.
  for (const LinkSpec& link : spec.links()) {
    ExperimentNode* a = node(link.node_a);
    ExperimentNode* b = node(link.node_b);
    assert(a != nullptr && b != nullptr && "link references unknown node");

    auto delay_node = std::make_unique<DelayNode>(
        sim_, rng->Fork(), "delay-" + link.node_a + "-" + link.node_b, cfg.node_clock);
    PipeConfig pipe_cfg;
    pipe_cfg.bandwidth_bps = link.bandwidth_bps;
    pipe_cfg.delay = link.delay;
    pipe_cfg.loss_rate = link.loss_rate;
    pipe_cfg.queue_limit_packets = link.queue_packets;
    delay_node->Shape(pipe_cfg, a->experimental_nic(), b->experimental_nic());

    auto wire_a = std::make_unique<Wire>(sim_, rng->Fork(), /*bandwidth=*/0,
                                         /*delay=*/0, /*loss=*/0.0, delay_node->ingress_a());
    auto wire_b = std::make_unique<Wire>(sim_, rng->Fork(), /*bandwidth=*/0,
                                         /*delay=*/0, /*loss=*/0.0, delay_node->ingress_b());
    a->experimental_nic()->ConnectTx(wire_a.get());
    b->experimental_nic()->ConnectTx(wire_b.get());
    wires_.push_back(std::move(wire_a));
    wires_.push_back(std::move(wire_b));

    // The delay node participates in coordinated checkpoints through its own
    // daemon on the control network.
    auto participant = std::make_unique<DelayNodeParticipant>(sim_, delay_node.get());
    auto timers = std::make_unique<PhysicalTimerHost>(sim_);
    auto stack = std::make_unique<NetworkStack>(
        sim_, timers.get(), kDelayDaemonBase + static_cast<NodeId>(delay_nodes_.size()));
    Nic* nic = stack->AddNic();
    testbed_->control_lan().Attach(nic);
    auto daemon =
        std::make_unique<CheckpointDaemon>(stack.get(), kBossAddr, participant.get());
    bus_->Subscribe(stack->addr());

    delay_nodes_.push_back(std::move(delay_node));
    delay_participants_.push_back(std::move(participant));
    delay_daemon_timers_.push_back(std::move(timers));
    delay_daemon_stacks_.push_back(std::move(stack));
    delay_daemons_.push_back(std::move(daemon));
  }

  // LAN segments (switched VLANs).
  for (const LanSpec& lan_spec : spec.lans()) {
    auto lan = std::make_unique<Lan>(sim_, rng->Fork(), lan_spec.bandwidth_bps,
                                     lan_spec.port_delay);
    for (const std::string& member : lan_spec.members) {
      ExperimentNode* m = node(member);
      assert(m != nullptr && "LAN references unknown node");
      lan->Attach(m->experimental_nic());
    }
    lans_.push_back(std::move(lan));
  }

  // The coordinator sizes each barrier from the live subscriber set, so
  // nothing to pin here — participants registered above (and any added
  // later) are counted when a round starts.
}

void Experiment::RegisterInvariants(InvariantRegistry* reg) {
  bool all_transparent = true;
  SimTime max_initial_jitter = 0;
  for (const std::string& name : node_order_) {
    MappedNode& mapped = nodes_.at(name);
    mapped.node->RegisterInvariants(reg);
    all_transparent &= mapped.engine->policy().transparent_time;
    max_initial_jitter = std::max(
        max_initial_jitter, mapped.node->clock().params().initial_offset_jitter);
  }
  for (auto& delay_node : delay_nodes_) {
    delay_node->RegisterInvariants(reg);
    max_initial_jitter = std::max(max_initial_jitter,
                                  delay_node->clock().params().initial_offset_jitter);
  }
  // With transparent time every participant suspends at the same scheduled
  // local instant, so recorded skews are bounded by clock sync error. Before
  // NTP converges two clocks can sit at opposite extremes of the configured
  // boot-time jitter (worst-case pairwise skew 2x the jitter); 2 ms of slack
  // on top covers the converged residual — an order of magnitude above the
  // ~200 us worst-case NTP error the paper quotes. Non-transparent baselines
  // skip the bound: their guest clocks legitimately diverge.
  const SimTime skew_bound =
      all_transparent ? 2 * max_initial_jitter + 2 * kMillisecond : 0;
  coordinator_->RegisterInvariants(reg, skew_bound);
}

void Experiment::SwapIn(bool golden_cached, std::function<void()> done) {
  assert(state_ == State::kCreated);
  SwapRecord record;
  record.kind = SwapRecord::Kind::kSwapIn;
  record.started = sim_->Now();
  record.golden_cached = golden_cached;

  obs::TraceSession& trace = obs::TraceSession::Global();
  const obs::SpanId span = trace.BeginSpan("emulab", "emulab.swap_in", sim_->Now());
  trace.AddSpanArg(span, "golden_cached", golden_cached ? 1.0 : 0.0);

  const TestbedConfig& cfg = testbed_->config();
  SimTime duration = cfg.base_boot_time;
  if (!golden_cached) {
    duration += cfg.golden_download_time;
  }
  sim_->Schedule(duration, [this, record, span, done = std::move(done)]() mutable {
    record.finished = sim_->Now();
    swap_history_.push_back(record);
    obs::TraceSession::Global().EndSpan(span, sim_->Now());
    state_ = State::kSwappedIn;
    if (done) {
      done();
    }
  });
}

uint64_t Experiment::PendingDeltaBytes() const {
  uint64_t bytes = 0;
  for (const auto& [name, mapped] : nodes_) {
    bytes += mapped.node->store().LiveDeltaBlocks() * kBlockSize;
  }
  return bytes;
}

void Experiment::TransferToFs(uint64_t bytes, std::function<void()> done) {
  // All nodes share the 100 Mbps control network to the fs server; model the
  // aggregate as one stream on the first node's channel sizing. Per-node
  // channels are used where per-node parallelism matters (swap-in).
  assert(!node_order_.empty());
  nodes_[node_order_.front()].node->fs_channel().Transfer(bytes, std::move(done));
}

void Experiment::StatefulSwapOut(bool eager_precopy,
                                 std::function<void(const SwapRecord&)> done) {
  assert(state_ == State::kSwappedIn);
  auto record = std::make_shared<SwapRecord>();
  record->kind = SwapRecord::Kind::kStatefulSwapOut;
  record->started = sim_->Now();

  obs::TraceSession& obs_trace = obs::TraceSession::Global();
  const obs::SpanId swap_span =
      obs_trace.BeginSpan("emulab", "emulab.stateful_swap_out", sim_->Now());
  obs_trace.AddSpanArg(swap_span, "eager_precopy", eager_precopy ? 1.0 : 0.0);

  auto after_precopy = [this, record, swap_span, done = std::move(done)]() mutable {
    // Suspend the whole experiment (nodes + delay nodes) and hold it.
    coordinator_->CheckpointScheduledAndHold(
        kSwapCheckpointLead,
        [this, record, swap_span,
         done = std::move(done)](const DistributedCheckpointRecord& ckpt) mutable {
          // Ship memory images plus the residual (not yet pre-copied) delta.
          uint64_t bytes = ckpt.TotalImageBytes();
          for (const LocalCheckpointRecord& local : ckpt.locals) {
            last_image_bytes_[local.participant] = local.image_bytes;
          }
          // Persist every node's checkpoint image in the fs server's durable
          // repository while the experiment is held. The previous swap
          // generation is retired only after its replacement is committed.
          if (CheckpointRepo* repo = testbed_->repo(); repo != nullptr) {
            const uint64_t io_before = repo->bytes_written();
            // One group-committed batch for the whole experiment: every
            // node's image is committed zero-copy (the engine's published
            // buffer), the fs server flushes the segment once, and a single
            // journal record makes the swap generation durable
            // all-or-nothing — recovery never sees half an experiment.
            CheckpointRepo::Images images;
            std::vector<std::string> names;
            for (const std::string& name : node_order_) {
              auto image = nodes_[name].engine->last_image();
              if (image == nullptr) {
                continue;
              }
              images.push_back(std::move(image));
              names.push_back(name);
            }
            const CheckpointRepo::BatchCommitResult result =
                repo->CommitBatch(images);
            for (size_t i = 0; i < names.size(); ++i) {
              const std::string& name = names[i];
              const uint64_t handle = result.ok ? result.handles[i] : 0;
              obs::TraceSession::Global().Instant(
                  name, "repo.spill", sim_->Now(),
                  {{"handle", static_cast<double>(handle)},
                   {"bytes", static_cast<double>(images[i]->size())}});
              if (handle == 0) {
                record->repo_verified = false;
                continue;
              }
              const auto prev = swap_repo_handles_.find(name);
              if (prev != swap_repo_handles_.end() &&
                  repo->IsLive(prev->second)) {
                repo->RetireImage(prev->second);
              }
              swap_repo_handles_[name] = handle;
            }
            record->repo_bytes_written = repo->bytes_written() - io_before;
          }
          for (const std::string& name : node_order_) {
            MappedNode& mapped = nodes_[name];
            const uint64_t live = mapped.node->store().LiveDeltaBlocks();
            const uint64_t copied = mapped.node->mirror().copied_blocks();
            const uint64_t residual = live > copied ? live - copied : 0;
            bytes += residual * kBlockSize;
            last_swapout_delta_bytes_ += live * kBlockSize;
          }
          TransferToFs(bytes, [this, record, bytes, swap_span,
                               done = std::move(done)]() mutable {
            for (const std::string& name : node_order_) {
              nodes_[name].node->store().MergeCurrentIntoAggregated();
            }
            record->bytes_transferred = bytes;
            record->finished = sim_->Now();
            swap_history_.push_back(*record);
            state_ = State::kSwappedOut;
            obs::TraceSession& trace = obs::TraceSession::Global();
            trace.AddSpanArg(swap_span, "bytes_transferred",
                             static_cast<double>(bytes));
            trace.EndSpan(swap_span, sim_->Now());
            if (done) {
              done(swap_history_.back());
            }
          });
        });
  };

  if (!eager_precopy) {
    after_precopy();
    return;
  }
  // Eager pre-copy: push the live delta to the fs server while running.
  auto outstanding = std::make_shared<size_t>(node_order_.size());
  for (const std::string& name : node_order_) {
    MappedNode& mapped = nodes_[name];
    mapped.node->mirror().BeginEagerCopyOut(
        mapped.node->store().LiveDeltaBlockSet(),
        [outstanding, after_precopy]() mutable {
          if (--*outstanding == 0) {
            after_precopy();
          }
        });
  }
}

void Experiment::FinishSwapInSpan(obs::SpanId span, const SwapRecord& record) {
  obs::TraceSession& trace = obs::TraceSession::Global();
  trace.AddSpanArg(span, "bytes_transferred",
                   static_cast<double>(record.bytes_transferred));
  trace.AddSpanArg(span, "repo_verified", record.repo_verified ? 1.0 : 0.0);
  trace.EndSpan(span, sim_->Now());
}

void Experiment::StatefulSwapIn(bool lazy, std::function<void(const SwapRecord&)> done) {
  assert(state_ == State::kSwappedOut);
  auto record = std::make_shared<SwapRecord>();
  record->kind = SwapRecord::Kind::kStatefulSwapIn;
  record->started = sim_->Now();
  record->lazy = lazy;

  obs::TraceSession& obs_trace = obs::TraceSession::Global();
  const obs::SpanId swap_span =
      obs_trace.BeginSpan("emulab", "emulab.stateful_swap_in", sim_->Now());
  obs_trace.AddSpanArg(swap_span, "lazy", lazy ? 1.0 : 0.0);

  // Read each node's image back from the durable repository and prove it
  // byte-identical to the engine's published self-contained image — the
  // held run resumes from verified state.
  if (CheckpointRepo* repo = testbed_->repo(); repo != nullptr) {
    const uint64_t io_before = repo->bytes_read();
    for (const std::string& name : node_order_) {
      const auto handle_it = swap_repo_handles_.find(name);
      if (handle_it == swap_repo_handles_.end()) {
        continue;
      }
      LocalCheckpointEngine* engine = nodes_[name].engine.get();
      const std::vector<uint8_t> from_repo =
          repo->Materialize(handle_it->second);
      const std::shared_ptr<const std::vector<uint8_t>> expected =
          engine->last_image();
      if (from_repo.empty() || expected == nullptr || from_repo != *expected) {
        record->repo_verified = false;
      }
    }
    record->repo_bytes_read = repo->bytes_read() - io_before;
  }

  // Per-node memory images stream back in parallel over each node's NFS
  // path to the fs server.
  auto outstanding = std::make_shared<size_t>(node_order_.size());
  auto after_memory = [this, record, lazy, swap_span, done = std::move(done)]() mutable {
    if (lazy) {
      // Resume now; the aggregated delta demand-pages / prefetches in the
      // background.
      for (const std::string& name : node_order_) {
        MappedNode& mapped = nodes_[name];
        record->bytes_transferred +=
            mapped.node->store().AggregatedBlockSet().size() * kBlockSize;
        mapped.node->mirror().BeginLazyCopyIn(mapped.node->store().AggregatedBlockSet(),
                                              nullptr);
      }
      coordinator_->ResumeAll([this, record, swap_span, done = std::move(done)]() mutable {
        record->finished = sim_->Now();
        swap_history_.push_back(*record);
        state_ = State::kSwappedIn;
        FinishSwapInSpan(swap_span, *record);
        if (done) {
          done(swap_history_.back());
        }
      });
      return;
    }
    // Non-lazy: transfer the full aggregated delta before resuming.
    uint64_t delta_bytes = 0;
    for (const std::string& name : node_order_) {
      delta_bytes += nodes_[name].node->store().AggregatedBlockSet().size() * kBlockSize;
    }
    record->bytes_transferred += delta_bytes;
    TransferToFs(delta_bytes, [this, record, swap_span, done = std::move(done)]() mutable {
      coordinator_->ResumeAll([this, record, swap_span, done = std::move(done)]() mutable {
        record->finished = sim_->Now();
        swap_history_.push_back(*record);
        state_ = State::kSwappedIn;
        FinishSwapInSpan(swap_span, *record);
        if (done) {
          done(swap_history_.back());
        }
      });
    });
  };

  for (const std::string& name : node_order_) {
    MappedNode& mapped = nodes_[name];
    const auto image_it = last_image_bytes_.find(name);
    const uint64_t image_bytes = image_it != last_image_bytes_.end()
                                     ? image_it->second
                                     : mapped.node->domain().memory_bytes();
    record->bytes_transferred += image_bytes;
    mapped.node->fs_channel().Transfer(image_bytes,
                                       [outstanding, after_memory]() mutable {
                                         if (--*outstanding == 0) {
                                           after_memory();
                                         }
                                       });
  }
}

}  // namespace tcsim
