#include <gtest/gtest.h>

#include "atm/banyan.hpp"
#include "atm/cell.hpp"
#include "atm/fabric.hpp"
#include "atm/packet.hpp"
#include "sim/engine.hpp"
#include "sim/sharded.hpp"

namespace cni::atm {
namespace {

TEST(CellGeometry, StandardAtm) {
  CellGeometry g;
  EXPECT_EQ(g.cells_for(0), 1u);
  EXPECT_EQ(g.cells_for(48), 1u);
  EXPECT_EQ(g.cells_for(49), 2u);
  EXPECT_EQ(g.cells_for(4096), 86u);
  EXPECT_EQ(g.wire_bytes(4096), 86u * 53);
}

TEST(CellGeometry, UnrestrictedRemovesTheTax) {
  CellGeometry g(CellMode::kUnrestricted);
  EXPECT_EQ(g.cells_for(4096), 1u);
  EXPECT_EQ(g.wire_bytes(4096), 4096u + kCellHeaderBytes);
  // The mythical network of Table 5 always beats standard ATM on the wire.
  CellGeometry std_g;
  for (std::uint64_t len : {1ull, 48ull, 100ull, 4096ull, 100000ull}) {
    EXPECT_LE(g.wire_bytes(len), std_g.wire_bytes(len)) << len;
  }
}

TEST(Frame, HeaderRoundTrip) {
  struct Hdr {
    std::uint32_t a;
    std::uint16_t b;
  };
  std::vector<std::byte> body{std::byte{9}, std::byte{8}};
  Frame f = Frame::make(1, 2, 7, Hdr{42, 3}, body);
  EXPECT_EQ(f.size(), sizeof(Hdr) + 2);
  const Hdr h = f.header<Hdr>();
  EXPECT_EQ(h.a, 42u);
  EXPECT_EQ(h.b, 3u);
  EXPECT_EQ(f.bytes().back(), std::byte{8});
}

TEST(Banyan, StagesAndPorts) {
  BanyanSwitch sw(32, 500 * sim::kNanosecond);
  EXPECT_EQ(sw.stages(), 5u);  // the paper's 32-port banyan
  EXPECT_EQ(sw.ports(), 32u);
}

TEST(Banyan, UncontendedLatencyIsTheFabricLatency) {
  BanyanSwitch sw(32, 500 * sim::kNanosecond);
  const sim::SimTime out = sw.route(0, 3, 17, 1000);
  EXPECT_EQ(out, 500u * sim::kNanosecond);
  EXPECT_EQ(sw.contention_time(), 0u);
}

TEST(Banyan, SameOutputContends) {
  BanyanSwitch sw(32, 500 * sim::kNanosecond);
  const sim::SimDuration burst = 10 * sim::kMicrosecond;
  const sim::SimTime a = sw.route(0, 5, 9, burst);
  const sim::SimTime b = sw.route(0, 6, 9, burst);  // same destination port
  EXPECT_GT(b, a);
  EXPECT_GT(sw.contention_time(), 0u);
}

TEST(Banyan, DisjointPathsDoNotContend) {
  BanyanSwitch sw(32, 500 * sim::kNanosecond);
  const sim::SimDuration burst = 10 * sim::kMicrosecond;
  const sim::SimTime a = sw.route(0, 0, 0, burst);
  const sim::SimTime b = sw.route(0, 31, 31, burst);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sw.contention_time(), 0u);
}

// Property: a path's resources must be consistent — the final stage resource
// is determined by the destination alone, and two flows to different
// destinations never share it.
class BanyanPathProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BanyanPathProperty, FinalStageKeyedByDestination) {
  BanyanSwitch sw(GetParam(), 500 * sim::kNanosecond);
  const std::uint32_t ports = sw.ports();
  const std::uint32_t last = sw.stages() - 1;
  for (std::uint32_t s1 = 0; s1 < ports; s1 += 3) {
    for (std::uint32_t s2 = 0; s2 < ports; s2 += 5) {
      for (std::uint32_t d = 0; d < ports; d += 3) {
        EXPECT_EQ(sw.path_resource(s1, d, last), sw.path_resource(s2, d, last));
      }
    }
  }
  for (std::uint32_t d1 = 0; d1 < ports; ++d1) {
    for (std::uint32_t d2 = d1 + 1; d2 < ports; ++d2) {
      EXPECT_NE(sw.path_resource(0, d1, last), sw.path_resource(0, d2, last));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PortCounts, BanyanPathProperty, ::testing::Values(4, 8, 16, 32));

FabricParams test_params() { return FabricParams{}; }

/// A one-shard fabric over three nodes, built the way a K=1 cluster builds
/// it. Sends buffer until drain(); deliveries run on `e`.
struct K1Fabric {
  sim::Engine e;
  Fabric fab{test_params(), sim::ShardPlan::balanced(3, 1), {&e}};

  /// Routes everything buffered, then runs the deliveries.
  void run() {
    EXPECT_EQ(fab.drain(sim::kNever), sim::kNever);
    e.run();
  }
};

TEST(Fabric, DeliversWithSerializationAndLatency) {
  K1Fabric k1;
  bool delivered = false;
  sim::SimTime arrival = 0;
  k1.fab.attach(0, [](Frame) {});
  k1.fab.attach(1, [&](Frame f) {
    delivered = true;
    arrival = k1.e.now();
    EXPECT_EQ(f.size(), 24u);
  });
  Frame f = Frame::blank(0, 1, 0, 24);
  const DeliveryTiming t = k1.fab.send(0, std::move(f));
  EXPECT_EQ(t.cells, 1u);
  k1.run();
  EXPECT_TRUE(delivered);
  // One cell: ~681.6 ns serialization + 500 ns switch + 2x150 ns propagation.
  EXPECT_NEAR(static_cast<double>(arrival) / sim::kNanosecond, 681.6 + 500 + 300, 5.0);
}

TEST(Fabric, PerPairFifoOrder) {
  K1Fabric k1;
  std::vector<int> order;
  k1.fab.attach(0, [](Frame) {});
  k1.fab.attach(1, [&](Frame f) { order.push_back(static_cast<int>(f.vci)); });
  for (int i = 0; i < 5; ++i) {
    Frame f = Frame::blank(0, 1, static_cast<std::uint32_t>(i), 4096);
    k1.fab.send(0, std::move(f));
  }
  k1.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Fabric, BiggerFramesArriveLater) {
  sim::SimTime small_arrival = 0;
  sim::SimTime big_arrival = 0;
  for (int round = 0; round < 2; ++round) {
    K1Fabric k1;
    sim::SimTime& arrival = round == 0 ? small_arrival : big_arrival;
    k1.fab.attach(0, [](Frame) {});
    k1.fab.attach(1, [&](Frame) { arrival = k1.e.now(); });
    Frame f = Frame::blank(0, 1, 0, round == 0 ? 64 : 4096);
    k1.fab.send(0, std::move(f));
    k1.run();
  }
  EXPECT_GT(small_arrival, 0u);
  EXPECT_LT(small_arrival, big_arrival);
}

TEST(Fabric, UplinkSerializesSuccessiveSends) {
  K1Fabric k1;
  sim::SimTime arrival_a = 0;
  sim::SimTime arrival_b = 0;
  k1.fab.attach(0, [](Frame) {});
  k1.fab.attach(1, [&](Frame) { arrival_a = k1.e.now(); });
  k1.fab.attach(2, [&](Frame) { arrival_b = k1.e.now(); });
  Frame a = Frame::blank(0, 1, 0, 4096);
  // different destination, same uplink
  Frame b = Frame::blank(0, 2, 0, 4096);
  const DeliveryTiming ta = k1.fab.send(0, std::move(a));
  const DeliveryTiming tb = k1.fab.send(0, std::move(b));
  EXPECT_GE(tb.first_bit_out, ta.first_bit_out);
  k1.run();
  EXPECT_GT(arrival_a, 0u);
  EXPECT_GT(arrival_b, arrival_a);
  EXPECT_EQ(k1.fab.frames_sent(), 2u);
  EXPECT_EQ(k1.fab.cells_sent(), 2u * 86);
}

TEST(Fabric, DeliveryIsZeroCopyAndStatsAreExact) {
  // Regression pin for the pooled delivery path: the frame handed to the
  // destination hook must be the *same* buffer the sender built (refcount
  // handoff through the buffered transfer and the scheduled FrameTask, no
  // payload copy), and the frames/cells counters must match a hand-computed
  // cell count.
  K1Fabric k1;
  const std::byte* delivered_data = nullptr;
  std::uint64_t delivered_size = 0;
  k1.fab.attach(0, [](Frame) {});
  k1.fab.attach(1, [&](Frame f) {
    delivered_data = f.payload.data();
    delivered_size = f.size();
    EXPECT_TRUE(f.payload.unique());  // sole owner at delivery: no stray copies
  });

  Frame f = Frame::blank(0, 1, 7, 1000);
  f.mutable_bytes()[999] = std::byte{0x6E};
  const std::byte* sent_data = f.payload.data();
  k1.fab.send(0, std::move(f));
  k1.run();

  EXPECT_EQ(delivered_data, sent_data);
  EXPECT_EQ(delivered_size, 1000u);
  EXPECT_EQ(k1.fab.frames_sent(), 1u);
  // ceil(1000 / 48 payload bytes per cell) = 21 cells.
  EXPECT_EQ(k1.fab.cells_sent(), 21u);
}

}  // namespace
}  // namespace cni::atm
