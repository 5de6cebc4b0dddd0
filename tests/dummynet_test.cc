// Dummynet pipe and delay-node tests, including the live suspend/resume
// protocol and non-destructive state serialization (the delay-node
// checkpoint of Section 4.4).

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/dummynet/delay_node.h"
#include "src/dummynet/pipe.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace tcsim {
namespace {

class TimedCollector : public PacketHandler {
 public:
  explicit TimedCollector(Simulator* sim) : sim_(sim) {}
  void HandlePacket(const Packet& pkt) override {
    packets.push_back(pkt);
    times.push_back(sim_->Now());
  }
  Simulator* sim_;
  std::vector<Packet> packets;
  std::vector<SimTime> times;
};

Packet MakePacket(uint64_t id, uint32_t size = 1250) {
  Packet pkt;
  pkt.id = id;
  pkt.src = 1;
  pkt.dst = 2;
  pkt.size_bytes = size;
  return pkt;
}

PipeConfig TestConfig() {
  PipeConfig cfg;
  cfg.bandwidth_bps = 10'000'000;  // 1250 B -> 1 ms serialization
  cfg.delay = 20 * kMillisecond;
  cfg.loss_rate = 0.0;
  cfg.queue_limit_packets = 10;
  return cfg;
}

TEST(PipeTest, AddsSerializationAndDelay) {
  Simulator sim;
  TimedCollector sink(&sim);
  Pipe pipe(&sim, Rng(1), TestConfig(), &sink);
  pipe.HandlePacket(MakePacket(1));
  sim.Run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sink.times[0], 21 * kMillisecond);
}

TEST(PipeTest, QueueLimitTailDrops) {
  Simulator sim;
  TimedCollector sink(&sim);
  Pipe pipe(&sim, Rng(1), TestConfig(), &sink);
  for (uint64_t i = 0; i < 20; ++i) {
    pipe.HandlePacket(MakePacket(i));
  }
  sim.Run();
  // 10 queued + 1 in transmission fit; the rest tail-drop.
  EXPECT_EQ(sink.packets.size(), 11u);
  EXPECT_EQ(pipe.queue_drops(), 9u);
}

TEST(PipeTest, SuspendFreezesRemainingDelay) {
  Simulator sim;
  TimedCollector sink(&sim);
  Pipe pipe(&sim, Rng(1), TestConfig(), &sink);
  pipe.HandlePacket(MakePacket(1));
  // Let it enter the delay line (1 ms tx), then suspend mid-delay at t=6ms
  // with 15 ms remaining.
  sim.RunUntil(6 * kMillisecond);
  pipe.Suspend();
  EXPECT_EQ(pipe.PacketsHeld(), 1u);
  // Stay frozen for 100 ms: nothing is delivered.
  sim.RunUntil(106 * kMillisecond);
  EXPECT_TRUE(sink.packets.empty());
  pipe.Resume();
  sim.Run();
  ASSERT_EQ(sink.packets.size(), 1u);
  // Delivered exactly 15 ms after resume: remaining delay preserved.
  EXPECT_EQ(sink.times[0], 121 * kMillisecond);
}

TEST(PipeTest, PacketsArrivingWhileSuspendedAreIngestedOnResume) {
  Simulator sim;
  TimedCollector sink(&sim);
  Pipe pipe(&sim, Rng(1), TestConfig(), &sink);
  pipe.Suspend();
  pipe.HandlePacket(MakePacket(1));
  pipe.HandlePacket(MakePacket(2));
  sim.RunUntil(50 * kMillisecond);
  pipe.Resume();
  sim.Run();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.packets[0].id, 1u);
  EXPECT_EQ(sink.packets[1].id, 2u);
}

TEST(PipeTest, SaveRestoreRoundTripPreservesInFlightState) {
  Simulator sim;
  TimedCollector sink(&sim);
  Pipe pipe(&sim, Rng(1), TestConfig(), &sink);
  for (uint64_t i = 0; i < 5; ++i) {
    pipe.HandlePacket(MakePacket(i));
  }
  sim.RunUntil(3 * kMillisecond);  // 2 in the delay line, 1 transmitting, 2 queued
  pipe.Suspend();
  ArchiveWriter w;
  pipe.Save(&w);
  const std::vector<uint8_t> image = w.Take();
  const size_t held = pipe.PacketsHeld();

  TimedCollector sink2(&sim);
  Pipe restored(&sim, Rng(2), PipeConfig{}, &sink2);
  ArchiveReader r(image);
  restored.Restore(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.PacketsHeld(), held);
  EXPECT_EQ(restored.config().bandwidth_bps, TestConfig().bandwidth_bps);
  sim.Run();
  EXPECT_EQ(sink2.packets.size(), held);
}

TEST(PipeTest, TransparentToTotalTransitTimeAcrossSuspension) {
  // The total shaping delay a packet experiences (excluding the suspension
  // itself) must equal the configured delay.
  Simulator sim;
  TimedCollector sink(&sim);
  Pipe pipe(&sim, Rng(1), TestConfig(), &sink);
  pipe.HandlePacket(MakePacket(1));
  sim.RunUntil(10 * kMillisecond);
  pipe.Suspend();
  const SimTime suspend_start = sim.Now();
  sim.RunUntil(sim.Now() + 500 * kMillisecond);
  pipe.Resume();
  const SimTime downtime = sim.Now() - suspend_start;
  sim.Run();
  ASSERT_EQ(sink.times.size(), 1u);
  EXPECT_EQ(sink.times[0] - downtime, 21 * kMillisecond);
}

// (id, delivery instant) of every packet `sink` received, in order.
std::vector<std::pair<uint64_t, SimTime>> Deliveries(const TimedCollector& sink) {
  std::vector<std::pair<uint64_t, SimTime>> out;
  for (size_t i = 0; i < sink.packets.size(); ++i) {
    out.emplace_back(sink.packets[i].id, sink.times[i]);
  }
  return out;
}

// A burst keeps one delivery event pending per pipe, not one per packet,
// and every packet still arrives at its own instant, in FIFO order, with
// the place among same-instant events that an event scheduled when it
// finished transmitting would have had. Suspending mid-burst shifts each
// later delivery by exactly the downtime, and a restore re-arms one event.
TEST(PipeTest, BurstArmsOneDeliveryAndKeepsEachPlace) {
  // 1 Gbps, 50 us (the iperf link): ten back-to-back 1250-byte packets
  // finish transmitting 10 us apart, from 10 us to 100 us, and arrive from
  // 60 us to 150 us.
  PipeConfig cfg;
  cfg.bandwidth_bps = 1'000'000'000;
  cfg.delay = 50 * kMicrosecond;
  const auto arrival = [](uint64_t i) {
    return (60 + 10 * static_cast<SimTime>(i)) * kMicrosecond;
  };

  Simulator sim;
  TimedCollector sink(&sim);
  Pipe pipe(&sim, Rng(1), cfg, &sink);
  // Two markers at packet 102's arrival instant, ids 0 and 1: one scheduled
  // before the burst, one after packet 102 finished transmitting (30 us)
  // but before its delivery is armed (70 us).
  const auto marker = [&sink](uint64_t id) {
    return [&sink, id] { sink.HandlePacket(MakePacket(id)); };
  };
  sim.ScheduleAt(arrival(2), marker(0));
  for (uint64_t i = 0; i < 10; ++i) {
    pipe.HandlePacket(MakePacket(100 + i));
  }
  sim.RunUntil(35 * kMicrosecond);
  sim.ScheduleAt(arrival(2), marker(1));
  // Three packets in the delay line and one transmitting: two markers, the
  // transmission and the line's head.
  EXPECT_EQ(sim.pending_events(), 4u);

  sim.RunUntil(105 * kMicrosecond);  // every transmission done, 5 in the line
  EXPECT_EQ(sim.pending_events(), 1u);
  ArchiveWriter saved;
  pipe.Save(&saved);
  Simulator restored_sim;
  restored_sim.ResetForRestore(sim.Now());
  TimedCollector restored_sink(&restored_sim);
  Pipe restored(&restored_sim, Rng(2), PipeConfig{}, &restored_sink);
  ArchiveReader reader(saved.data());
  restored.Restore(reader);
  ASSERT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored_sim.pending_events(), 1u);

  sim.Run();
  restored_sim.Run();
  std::vector<std::pair<uint64_t, SimTime>> expected;
  for (uint64_t i = 0; i < 10; ++i) {
    if (i == 2) {
      expected.push_back({0, arrival(2)});
    }
    expected.push_back({100 + i, arrival(i)});
    if (i == 2) {
      expected.push_back({1, arrival(2)});
    }
  }
  EXPECT_EQ(Deliveries(sink), expected);
  const std::vector<std::pair<uint64_t, SimTime>> remaining(
      expected.end() - 5, expected.end());
  EXPECT_EQ(Deliveries(restored_sink), remaining);

  // Suspended from 75 us for 1 ms: 100 and 101 have arrived, 102-106 are in
  // the delay line, 107 is transmitting and 108-109 are queued. Every later
  // delivery moves by exactly the downtime.
  constexpr SimTime kDowntime = kMillisecond;
  Simulator frozen_sim;
  TimedCollector frozen_sink(&frozen_sim);
  Pipe frozen(&frozen_sim, Rng(1), cfg, &frozen_sink);
  for (uint64_t i = 0; i < 10; ++i) {
    frozen.HandlePacket(MakePacket(100 + i));
  }
  frozen_sim.RunUntil(75 * kMicrosecond);
  frozen.Suspend();
  EXPECT_EQ(frozen_sim.pending_events(), 0u);
  frozen_sim.RunUntil(75 * kMicrosecond + kDowntime);
  frozen.Resume();
  EXPECT_EQ(frozen_sim.pending_events(), 2u);  // the transmission, the head
  frozen_sim.Run();
  std::vector<std::pair<uint64_t, SimTime>> shifted;
  for (uint64_t i = 0; i < 10; ++i) {
    shifted.push_back({100 + i, arrival(i) + (i < 2 ? 0 : kDowntime)});
  }
  EXPECT_EQ(Deliveries(frozen_sink), shifted);
}

TEST(DelayNodeTest, ShapesBothDirections) {
  Simulator sim;
  TimedCollector at_a(&sim);
  TimedCollector at_b(&sim);
  DelayNode node(&sim, Rng(1), "delay0", ClockParams{});
  node.Shape(TestConfig(), &at_a, &at_b);
  node.ingress_a()->HandlePacket(MakePacket(1));
  node.ingress_b()->HandlePacket(MakePacket(2));
  sim.RunUntil(kSecond);
  ASSERT_EQ(at_b.packets.size(), 1u);
  ASSERT_EQ(at_a.packets.size(), 1u);
  EXPECT_EQ(at_b.packets[0].id, 1u);
  EXPECT_EQ(at_a.packets[0].id, 2u);
  EXPECT_EQ(at_b.times[0], 21 * kMillisecond);
}

TEST(DelayNodeTest, CheckpointCapturesBandwidthDelayProduct) {
  Simulator sim;
  TimedCollector at_a(&sim);
  TimedCollector at_b(&sim);
  DelayNode node(&sim, Rng(1), "delay0", ClockParams{});
  node.Shape(TestConfig(), &at_a, &at_b);
  for (uint64_t i = 0; i < 8; ++i) {
    node.ingress_a()->HandlePacket(MakePacket(i));
  }
  sim.RunUntil(9 * kMillisecond);
  node.Suspend();
  EXPECT_GT(node.PacketsHeld(), 0u);
  const auto image = node.SaveState();
  EXPECT_GT(image.size(), 0u);
  node.Resume();
  sim.RunUntil(kSecond);
  EXPECT_EQ(at_b.packets.size(), 8u);
}

}  // namespace
}  // namespace tcsim
