// Network substrate tests: wires, LANs, NIC suspend logging, and TCP
// (including a parameterized loss/bandwidth/delay property sweep).

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/net/lan.h"
#include "src/net/nic.h"
#include "src/net/stack.h"
#include "src/net/tcp.h"
#include "src/net/timer_host.h"
#include "src/net/wire.h"
#include "src/sim/archive.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace tcsim {
namespace {

class Collector : public PacketHandler {
 public:
  void HandlePacket(const Packet& pkt) override { packets.push_back(pkt); }
  std::vector<Packet> packets;
};

Packet MakePacket(NodeId src, NodeId dst, uint32_t size) {
  Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.size_bytes = size;
  return pkt;
}

TEST(WireTest, PropagationAndSerializationDelay) {
  Simulator sim;
  Collector sink;
  // 1 Gbps, 100 us propagation: a 1250-byte packet serializes in 10 us.
  Wire wire(&sim, Rng(1), 1'000'000'000, 100 * kMicrosecond, 0.0, &sink);
  wire.Transmit(MakePacket(1, 2, 1250));
  sim.Run();
  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(sim.Now(), 110 * kMicrosecond);
}

TEST(WireTest, BackToBackPacketsQueueBehindEachOther) {
  Simulator sim;
  Collector sink;
  Wire wire(&sim, Rng(1), 1'000'000'000, 0, 0.0, &sink);
  std::vector<SimTime> arrivals;
  // Capture arrival times via a wrapper sink.
  class TimedSink : public PacketHandler {
   public:
    TimedSink(Simulator* sim, std::vector<SimTime>* out) : sim_(sim), out_(out) {}
    void HandlePacket(const Packet&) override { out_->push_back(sim_->Now()); }
    Simulator* sim_;
    std::vector<SimTime>* out_;
  } timed(&sim, &arrivals);
  wire.set_sink(&timed);
  for (int i = 0; i < 3; ++i) {
    wire.Transmit(MakePacket(1, 2, 1250));  // 10 us each at 1 Gbps
  }
  sim.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 10 * kMicrosecond);
  EXPECT_EQ(arrivals[1], 20 * kMicrosecond);
  EXPECT_EQ(arrivals[2], 30 * kMicrosecond);
}

// Records each delivery's packet id and arrival instant.
class DeliveryLog : public PacketHandler {
 public:
  explicit DeliveryLog(Simulator* sim) : sim_(sim) {}
  void HandlePacket(const Packet& pkt) override {
    deliveries.emplace_back(pkt.id, sim_->Now());
  }
  std::vector<std::pair<uint64_t, SimTime>> deliveries;

 private:
  Simulator* sim_;
};

TEST(WireTest, SaveMidDrainRestoresRemainingDeliveries) {
  // 1 Gbps, 50 us propagation: ten back-to-back 1250-byte packets arrive
  // 10 us apart, from 60 us to 150 us.
  constexpr SimTime kDelay = 50 * kMicrosecond;
  Simulator sim;
  DeliveryLog sink(&sim);
  Wire wire(&sim, Rng(1), 1'000'000'000, kDelay, 0.0, &sink);
  for (uint64_t i = 0; i < 10; ++i) {
    Packet pkt = MakePacket(1, 2, 1250);
    pkt.id = 100 + i;
    wire.Transmit(pkt);
  }
  // Six delivered: the save sees a partly drained queue whose front is not
  // the first slot of its ring.
  sim.RunUntil(115 * kMicrosecond);
  ASSERT_EQ(sink.deliveries.size(), 6u);
  ArchiveWriter saved;
  wire.SaveState(&saved);

  Simulator restored_sim;
  restored_sim.ResetForRestore(sim.Now());
  DeliveryLog restored_sink(&restored_sim);
  Wire restored(&restored_sim, Rng(2), 1'000'000'000, kDelay, 0.0,
                &restored_sink);
  ArchiveReader reader(saved.data());
  restored.RestoreState(reader);
  ASSERT_TRUE(reader.ok());
  ArchiveWriter resaved;
  restored.SaveState(&resaved);
  EXPECT_EQ(resaved.data(), saved.data());

  sim.Run();
  restored_sim.Run();
  const std::vector<std::pair<uint64_t, SimTime>> remaining(
      sink.deliveries.begin() + 6, sink.deliveries.end());
  ASSERT_EQ(remaining.size(), 4u);
  EXPECT_EQ(remaining.front(),
            std::make_pair(uint64_t{106}, 120 * kMicrosecond));
  EXPECT_EQ(restored_sink.deliveries, remaining);
}

// A burst keeps one delivery event pending, not one per packet, and every
// packet still arrives at its own instant, in FIFO order, with the place
// among same-instant events it had when it was transmitted. A restore in the
// middle of the burst re-arms one event.
TEST(WireTest, BurstArmsOneEventAndKeepsEachDeliverysPlace) {
  // 1 Gbps, 50 us propagation: ten back-to-back 1250-byte packets arrive
  // 10 us apart, from 60 us to 150 us.
  constexpr SimTime kDelay = 50 * kMicrosecond;
  Simulator sim;
  DeliveryLog sink(&sim);
  Wire wire(&sim, Rng(1), 1'000'000'000, kDelay, 0.0, &sink);
  // Two markers at packet 102's arrival instant: one scheduled before the
  // burst, one after. Their ids are 0 and 1.
  auto marker = [&sink, &sim](uint64_t id) {
    return [&sink, &sim, id] { sink.deliveries.push_back({id, sim.Now()}); };
  };
  sim.ScheduleAt(80 * kMicrosecond, marker(0));
  for (uint64_t i = 0; i < 10; ++i) {
    Packet pkt = MakePacket(1, 2, 1250);
    pkt.id = 100 + i;
    wire.Transmit(pkt);
  }
  sim.ScheduleAt(80 * kMicrosecond, marker(1));
  EXPECT_EQ(sim.pending_events(), 3u);  // the two markers and the wire

  sim.RunUntil(115 * kMicrosecond);
  ASSERT_EQ(sink.deliveries.size(), 8u);
  EXPECT_EQ(sim.pending_events(), 1u);
  ArchiveWriter saved;
  wire.SaveState(&saved);
  Simulator restored_sim;
  restored_sim.ResetForRestore(sim.Now());
  DeliveryLog restored_sink(&restored_sim);
  Wire restored(&restored_sim, Rng(2), 1'000'000'000, kDelay, 0.0,
                &restored_sink);
  ArchiveReader reader(saved.data());
  restored.RestoreState(reader);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(restored_sim.pending_events(), 1u);

  sim.Run();
  restored_sim.Run();
  std::vector<std::pair<uint64_t, SimTime>> expected;
  for (uint64_t i = 0; i < 10; ++i) {
    if (i == 2) {
      expected.push_back({0, 80 * kMicrosecond});
    }
    const SimTime arrival = (60 + 10 * static_cast<SimTime>(i)) * kMicrosecond;
    expected.push_back({100 + i, arrival});
    if (i == 2) {
      expected.push_back({1, 80 * kMicrosecond});
    }
  }
  EXPECT_EQ(sink.deliveries, expected);
  const std::vector<std::pair<uint64_t, SimTime>> remaining(
      expected.begin() + 8, expected.end());
  EXPECT_EQ(restored_sink.deliveries, remaining);
  EXPECT_EQ(sim.pending_high_water(), 3u);
}

TEST(WireTest, ZeroBandwidthMeansInfinitelyFast) {
  Simulator sim;
  Collector sink;
  Wire wire(&sim, Rng(1), 0, 0, 0.0, &sink);
  wire.Transmit(MakePacket(1, 2, 100000));
  sim.Run();
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sink.packets.size(), 1u);
}

TEST(WireTest, LossRateDropsApproximatelyThatFraction) {
  Simulator sim;
  Collector sink;
  Wire wire(&sim, Rng(77), 0, 0, 0.1, &sink);
  for (int i = 0; i < 10000; ++i) {
    wire.Transmit(MakePacket(1, 2, 100));
  }
  sim.Run();
  EXPECT_NEAR(static_cast<double>(sink.packets.size()), 9000.0, 200.0);
  EXPECT_EQ(wire.packets_dropped() + sink.packets.size(), 10000u);
}

TEST(NicTest, SuspendLogsAndReplaysInOrder) {
  Simulator sim;
  Nic nic(&sim, 5);
  std::vector<uint64_t> received;
  nic.SetReceiver([&](const Packet& pkt) { received.push_back(pkt.id); });

  Packet a = MakePacket(1, 5, 100);
  a.id = 1;
  nic.HandlePacket(a);
  nic.Suspend();
  for (uint64_t id = 2; id <= 4; ++id) {
    Packet p = MakePacket(1, 5, 100);
    p.id = id;
    nic.HandlePacket(p);
  }
  EXPECT_EQ(received.size(), 1u);
  EXPECT_EQ(nic.packets_logged(), 3u);
  sim.RunUntil(50 * kMillisecond);
  nic.Resume();
  EXPECT_EQ(received, (std::vector<uint64_t>{1, 2, 3, 4}));
  // Replay delay is the suspension length for packets logged at suspend.
  EXPECT_GT(nic.replay_delays().Summarize().max, 0.0);
}

TEST(LanTest, DeliversByDestinationAndDropsUnknown) {
  Simulator sim;
  Lan lan(&sim, Rng(1), 100'000'000, 10 * kMicrosecond);
  Nic a(&sim, 1);
  Nic b(&sim, 2);
  lan.Attach(&a);
  lan.Attach(&b);
  std::vector<uint64_t> at_b;
  b.SetReceiver([&](const Packet& pkt) { at_b.push_back(pkt.id); });
  Packet p = MakePacket(1, 2, 1250);
  p.id = 42;
  a.Send(p);
  Packet stray = MakePacket(1, 99, 1250);
  a.Send(stray);
  sim.Run();
  EXPECT_EQ(at_b, (std::vector<uint64_t>{42}));
  EXPECT_EQ(lan.unknown_dst_drops(), 1u);
}

// --- TCP harness ---------------------------------------------------------------

struct TcpHarness {
  TcpHarness(uint64_t bandwidth, SimTime delay, double loss, uint64_t seed = 11) {
    a = std::make_unique<NetworkStack>(&sim, &timers, 1);
    b = std::make_unique<NetworkStack>(&sim, &timers, 2);
    Nic* nic_a = a->AddNic();
    Nic* nic_b = b->AddNic();
    Rng rng(seed);
    wire_ab = std::make_unique<Wire>(&sim, rng.Fork(), bandwidth, delay, loss, nic_b);
    wire_ba = std::make_unique<Wire>(&sim, rng.Fork(), bandwidth, delay, loss, nic_a);
    nic_a->ConnectTx(wire_ab.get());
    nic_b->ConnectTx(wire_ba.get());
  }

  Simulator sim;
  PhysicalTimerHost timers{&sim};
  std::unique_ptr<NetworkStack> a;
  std::unique_ptr<NetworkStack> b;
  std::unique_ptr<Wire> wire_ab;
  std::unique_ptr<Wire> wire_ba;
};

TEST(TcpTest, HandshakeEstablishesBothEnds) {
  TcpHarness h(100'000'000, kMillisecond, 0.0);
  TcpConnection* accepted = nullptr;
  h.b->ListenTcp(80, [&](TcpConnection* conn) { accepted = conn; });
  bool connected = false;
  TcpConnection* client = h.a->ConnectTcp(2, 80, {}, [&] { connected = true; });
  h.sim.Run();
  EXPECT_TRUE(connected);
  ASSERT_NE(accepted, nullptr);
  EXPECT_TRUE(client->established());
  EXPECT_TRUE(accepted->established());
}

TEST(TcpTest, DeliversExactByteCount) {
  TcpHarness h(100'000'000, kMillisecond, 0.0);
  uint64_t delivered = 0;
  h.b->ListenTcp(80, [&](TcpConnection* conn) {
    conn->SetDeliveryCallback([&](uint64_t bytes) { delivered += bytes; });
  });
  TcpConnection* client = h.a->ConnectTcp(2, 80, {}, nullptr);
  client->Send(1'000'000);
  h.sim.Run();
  EXPECT_EQ(delivered, 1'000'000u);
  EXPECT_EQ(client->stats().retransmits, 0u);
}

TEST(TcpTest, ThroughputApproachesLinkRate) {
  // 100 Mbps, 1 ms RTT: a 10 MB transfer should take ~0.85-1.2 s.
  TcpHarness h(100'000'000, 500 * kMicrosecond, 0.0);
  uint64_t delivered = 0;
  h.b->ListenTcp(80, [&](TcpConnection* conn) {
    conn->SetDeliveryCallback([&](uint64_t bytes) { delivered += bytes; });
  });
  TcpConnection* client = h.a->ConnectTcp(2, 80, {}, nullptr);
  client->Send(10'000'000);
  h.sim.Run();
  EXPECT_EQ(delivered, 10'000'000u);
  const double seconds = ToSeconds(h.sim.Now());
  const double mbps = 10'000'000.0 * 8.0 / seconds / 1e6;
  EXPECT_GT(mbps, 70.0);
  EXPECT_LE(mbps, 101.0);
}

TEST(TcpTest, RecoversFromLossWithRetransmissions) {
  TcpHarness h(100'000'000, kMillisecond, 0.02, /*seed=*/3);
  uint64_t delivered = 0;
  h.b->ListenTcp(80, [&](TcpConnection* conn) {
    conn->SetDeliveryCallback([&](uint64_t bytes) { delivered += bytes; });
  });
  TcpConnection* client = h.a->ConnectTcp(2, 80, {}, nullptr);
  client->Send(2'000'000);
  h.sim.Run();
  EXPECT_EQ(delivered, 2'000'000u);
  EXPECT_GT(client->stats().retransmits, 0u);
}

TEST(TcpTest, MessageFramingDeliversPayloadsInOrder) {
  TcpHarness h(100'000'000, kMillisecond, 0.0);
  struct Tag : AppPayload {
    explicit Tag(int v) : value(v) {}
    int value;
  };
  std::vector<int> got;
  h.b->ListenTcp(80, [&](TcpConnection* conn) {
    conn->SetMessageCallback([&](std::shared_ptr<AppPayload> payload) {
      got.push_back(dynamic_cast<Tag*>(payload.get())->value);
    });
  });
  TcpConnection* client = h.a->ConnectTcp(2, 80, {}, nullptr);
  for (int i = 0; i < 20; ++i) {
    client->SendMessage(10'000, std::make_shared<Tag>(i));
  }
  h.sim.Run();
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(got[i], i);
  }
}

TEST(TcpTest, MessageFramingSurvivesLoss) {
  TcpHarness h(50'000'000, 2 * kMillisecond, 0.03, /*seed=*/17);
  std::vector<int> got;
  struct Tag : AppPayload {
    explicit Tag(int v) : value(v) {}
    int value;
  };
  h.b->ListenTcp(80, [&](TcpConnection* conn) {
    conn->SetMessageCallback([&](std::shared_ptr<AppPayload> payload) {
      got.push_back(dynamic_cast<Tag*>(payload.get())->value);
    });
  });
  TcpConnection* client = h.a->ConnectTcp(2, 80, {}, nullptr);
  for (int i = 0; i < 50; ++i) {
    client->SendMessage(20'000, std::make_shared<Tag>(i));
  }
  h.sim.Run();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(got[i], i);
  }
}

TEST(TcpTest, FinDeliversPeerClosed) {
  TcpHarness h(100'000'000, kMillisecond, 0.0);
  bool closed = false;
  uint64_t delivered = 0;
  h.b->ListenTcp(80, [&](TcpConnection* conn) {
    conn->SetDeliveryCallback([&](uint64_t bytes) { delivered += bytes; });
    conn->SetPeerClosedCallback([&] { closed = true; });
  });
  TcpConnection* client = h.a->ConnectTcp(2, 80, {}, nullptr);
  client->Send(100'000);
  client->Close();
  h.sim.Run();
  EXPECT_EQ(delivered, 100'000u);
  EXPECT_TRUE(closed);
}

TEST(TcpTest, RetransmissionTimerRecoversFromTotalBlackoutOfAck) {
  // Heavy loss forces RTO-based recovery at least once.
  TcpHarness h(10'000'000, 5 * kMillisecond, 0.15, /*seed=*/5);
  uint64_t delivered = 0;
  h.b->ListenTcp(80, [&](TcpConnection* conn) {
    conn->SetDeliveryCallback([&](uint64_t bytes) { delivered += bytes; });
  });
  TcpConnection* client = h.a->ConnectTcp(2, 80, {}, nullptr);
  client->Send(500'000);
  h.sim.Run();
  EXPECT_EQ(delivered, 500'000u);
  EXPECT_GT(client->stats().timeouts + client->stats().fast_retransmits, 0u);
}

// Property sweep: TCP delivers the exact stream under any combination of
// bandwidth, delay and loss.
class TcpPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, SimTime, double>> {};

TEST_P(TcpPropertyTest, ExactDeliveryUnderAnyConditions) {
  const auto [bandwidth, delay, loss] = GetParam();
  TcpHarness h(bandwidth, delay, loss, /*seed=*/1000 + static_cast<uint64_t>(loss * 100));
  uint64_t delivered = 0;
  h.b->ListenTcp(80, [&](TcpConnection* conn) {
    conn->SetDeliveryCallback([&](uint64_t bytes) { delivered += bytes; });
  });
  TcpConnection* client = h.a->ConnectTcp(2, 80, {}, nullptr);
  const uint64_t total = 1'000'000;
  client->Send(total);
  h.sim.Run();
  EXPECT_EQ(delivered, total);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TcpPropertyTest,
    ::testing::Combine(::testing::Values(10'000'000ull, 100'000'000ull, 1'000'000'000ull),
                       ::testing::Values(100 * kMicrosecond, 2 * kMillisecond,
                                         20 * kMillisecond),
                       ::testing::Values(0.0, 0.01, 0.05)));

TEST(TcpTest, CumulativeAckRetiresLargeWindowExactly) {
  // Fat pipe: 1 Gbps at 20 ms one way is a ~5 MB bandwidth-delay product, so
  // thousands of segments sit in flight and every cumulative ACK retires a
  // batch from the front of the in-flight deque. Pins the bookkeeping the
  // deque switch must preserve: exact byte accounting, no spurious
  // retransmissions, clean completion.
  TcpHarness h(1'000'000'000, 20 * kMillisecond, 0.0);
  TcpConnection::Params params;
  params.recv_buffer_bytes = 16 * 1024 * 1024;
  uint64_t delivered = 0;
  h.b->ListenTcp(80, [&](TcpConnection* conn) {
    conn->SetDeliveryCallback([&](uint64_t n) { delivered += n; });
  }, params);
  TcpConnection* client = h.a->ConnectTcp(2, 80, params, nullptr);
  const uint64_t kBytes = 32ull * 1024 * 1024;
  client->Send(kBytes);
  client->Close();
  h.sim.Run();
  EXPECT_EQ(delivered, kBytes);
  // +1: the FIN consumes one sequence number and is cumulatively acked too.
  EXPECT_EQ(client->stats().bytes_acked, kBytes + 1);
  EXPECT_EQ(client->stats().retransmits, 0u);
  EXPECT_EQ(client->stats().timeouts, 0u);
}

}  // namespace
}  // namespace tcsim
