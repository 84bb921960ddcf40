// Topology layer tests (DESIGN.md §14): banyan self-routing collision
// theory, Clos block mapping, torus dimension-order distances, the
// soundness of the one epoch lookahead on every topology, and cross-K
// identity for the multi-stage topologies.
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "atm/banyan.hpp"
#include "atm/fabric.hpp"
#include "atm/topology.hpp"
#include "cluster/params.hpp"
#include "sim/engine.hpp"
#include "sim/sharded.hpp"
#include "sim/time.hpp"

namespace {

using namespace cni;

constexpr sim::SimDuration kSwitchLatency = 500 * sim::kNanosecond;
constexpr sim::SimDuration kPropagation = 150 * sim::kNanosecond;
constexpr sim::SimDuration kHop = 200 * sim::kNanosecond;

// ---------------------------------------------------------------------------
// Banyan self-routing collision theory

/// Two butterfly paths share the element output after stage s iff the
/// destinations agree on the top s+1 address bits (the route has committed
/// to them) and the sources agree on the remaining low bits (still carrying
/// the input's position). Checked exhaustively against path_resource for
/// every pair of (src, dst) paths at every stage of a 16-port switch.
TEST(BanyanTheory, PathResourceCollisionsMatchSelfRoutingExhaustively) {
  constexpr std::uint32_t kPorts = 16;
  constexpr std::uint32_t kStages = 4;
  atm::BanyanSwitch sw(kPorts, kSwitchLatency);
  ASSERT_EQ(sw.stages(), kStages);
  for (std::uint32_t stage = 0; stage < kStages; ++stage) {
    const std::uint32_t top = stage + 1;
    const std::uint32_t high_mask = ((1u << top) - 1u) << (kStages - top);
    const std::uint32_t low_mask = (1u << (kStages - top)) - 1u;
    for (std::uint32_t s1 = 0; s1 < kPorts; ++s1) {
      for (std::uint32_t d1 = 0; d1 < kPorts; ++d1) {
        for (std::uint32_t s2 = 0; s2 < kPorts; ++s2) {
          for (std::uint32_t d2 = 0; d2 < kPorts; ++d2) {
            const bool collide = ((d1 ^ d2) & high_mask) == 0 &&
                                 ((s1 ^ s2) & low_mask) == 0;
            ASSERT_EQ(sw.path_resource(s1, d1, stage) ==
                          sw.path_resource(s2, d2, stage),
                      collide)
                << "stage " << stage << ": (" << s1 << "->" << d1 << ") vs ("
                << s2 << "->" << d2 << ")";
          }
        }
      }
    }
  }
}

/// Distinct paths may never collide at every stage unless they share the
/// destination (the final stage's wire is the output port itself).
TEST(BanyanTheory, FinalStageResourceIsTheOutputPort) {
  constexpr std::uint32_t kPorts = 16;
  atm::BanyanSwitch sw(kPorts, kSwitchLatency);
  const std::uint32_t last = sw.stages() - 1;
  for (std::uint32_t s = 0; s < kPorts; ++s) {
    for (std::uint32_t d = 0; d < kPorts; ++d) {
      EXPECT_EQ(sw.path_resource(s, d, last),
                static_cast<std::size_t>(last) * kPorts + d);
    }
  }
}

// ---------------------------------------------------------------------------
// Clos block mapping

atm::ClosTopology make_clos(std::uint32_t ports, std::uint32_t radix) {
  return atm::ClosTopology(ports, radix, /*credits=*/4, kSwitchLatency, kPropagation);
}

TEST(ClosMapping, FullTreeShape) {
  // 64 hosts, radix-8 blocks: d = 4, three tiers of 16 switches each.
  const atm::ClosTopology clos = make_clos(64, 8);
  EXPECT_EQ(clos.down_arity(), 4u);
  EXPECT_EQ(clos.tiers(), 3u);
  for (std::uint32_t t = 0; t < 3; ++t) EXPECT_EQ(clos.tier_switches(t), 16u);
  EXPECT_EQ(clos.leaf_of(0), 0u);
  EXPECT_EQ(clos.leaf_of(3), 0u);
  EXPECT_EQ(clos.leaf_of(4), 1u);
  EXPECT_EQ(clos.leaf_of(63), 15u);
}

TEST(ClosMapping, AncestorTierIsTheFirstSharedPrefixHeight) {
  const atm::ClosTopology clos = make_clos(64, 8);
  EXPECT_EQ(clos.ancestor_tier(0, 1), 0u);   // same leaf
  EXPECT_EQ(clos.ancestor_tier(0, 4), 1u);   // neighbor leaves, same group
  EXPECT_EQ(clos.ancestor_tier(0, 15), 1u);
  EXPECT_EQ(clos.ancestor_tier(0, 16), 2u);  // different top-level group
  EXPECT_EQ(clos.ancestor_tier(0, 63), 2u);
  EXPECT_EQ(clos.ancestor_tier(63, 0), 2u);  // symmetric
}

TEST(ClosMapping, TurnaroundSwitchAgreesBetweenAscentAndDescent) {
  // The ascent path (keyed by src's group and dst's low digits) must arrive
  // at exactly the switch the descent walk (keyed by dst alone) starts from,
  // at the nearest-common-ancestor tier — otherwise route() would traverse
  // links that don't exist.
  const atm::ClosTopology clos = make_clos(64, 8);
  for (atm::NodeId a = 0; a < 64; ++a) {
    for (atm::NodeId b = 0; b < 64; ++b) {
      if (a == b) continue;
      const std::uint32_t h = clos.ancestor_tier(a, b);
      ASSERT_EQ(clos.route_switch(h, a, b), clos.route_switch(h, b, b))
          << a << " -> " << b << " at tier " << h;
      for (std::uint32_t t = 0; t <= h; ++t) {
        ASSERT_LT(clos.route_switch(t, a, b), clos.tier_switches(t));
      }
    }
  }
}

TEST(ClosMapping, MinLatencyFollowsAncestorHeight) {
  const atm::ClosTopology clos = make_clos(64, 8);
  // Same leaf: one block traversal. Height h: 2h+1 blocks, 2h links.
  EXPECT_EQ(clos.min_latency(0, 1), kSwitchLatency);
  EXPECT_EQ(clos.min_latency(0, 4), 3 * kSwitchLatency + 2 * kPropagation);
  EXPECT_EQ(clos.min_latency(0, 63), 5 * kSwitchLatency + 4 * kPropagation);
  EXPECT_EQ(clos.min_cross_latency(), kSwitchLatency);
}

TEST(ClosMapping, PrunedTopTierStillRoutesEveryPair) {
  // 128 hosts with d = 16 need two tiers (16^2 = 256 > 128): the top tier is
  // pruned. Every pair must still route, with latency matching its height.
  atm::ClosTopology clos = make_clos(128, 32);
  EXPECT_EQ(clos.tiers(), 2u);
  EXPECT_EQ(clos.tier_switches(0), 8u);
  std::uint64_t routed = 0;
  // Spaced, increasing heads: every queue and credit ring has drained long
  // before the next burst arrives, so each route sees a zero-load fabric.
  sim::SimTime head = 0;
  for (atm::NodeId a = 0; a < 128; a += 17) {
    for (atm::NodeId b = 0; b < 128; b += 13) {
      if (a == b) continue;
      head += sim::kMicrosecond;
      const sim::SimTime out = clos.route(head, a, b, /*burst=*/0, /*lane=*/0);
      EXPECT_EQ(out - head, clos.min_latency(a, b)) << a << " -> " << b;
      ++routed;
    }
  }
  EXPECT_EQ(clos.bursts_routed(), routed);
}

// ---------------------------------------------------------------------------
// Torus distances

atm::TorusTopology make_torus(std::uint32_t ports) {
  return atm::TorusTopology(ports, /*credits=*/4, kHop, kPropagation);
}

TEST(TorusMapping, BalancedDimsAndCoordRoundTrip) {
  const atm::TorusTopology t64 = make_torus(64);
  EXPECT_EQ(t64.dims().x, 4u);
  EXPECT_EQ(t64.dims().y, 4u);
  EXPECT_EQ(t64.dims().z, 4u);
  const atm::TorusTopology t4096 = make_torus(4096);
  EXPECT_EQ(t4096.dims().x, 16u);
  EXPECT_EQ(t4096.dims().y, 16u);
  EXPECT_EQ(t4096.dims().z, 16u);
  const atm::TorusTopology t256 = make_torus(256);
  EXPECT_EQ(t256.dims().x * t256.dims().y * t256.dims().z, 256u);
  EXPECT_GE(t256.dims().x, t256.dims().y);
  EXPECT_GE(t256.dims().y, t256.dims().z);
  for (atm::NodeId n = 0; n < 256; ++n) {
    const atm::TorusTopology::Dims c = t256.coords(n);
    EXPECT_EQ((c.z * t256.dims().y + c.y) * t256.dims().x + c.x, n);
  }
}

TEST(TorusMapping, HopCountsIncludeWraparound) {
  const atm::TorusTopology t = make_torus(64);  // 4 x 4 x 4
  auto id = [&t](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
    return (z * t.dims().y + y) * t.dims().x + x;
  };
  EXPECT_EQ(t.hops(id(0, 0, 0), id(0, 0, 0)), 0u);
  EXPECT_EQ(t.hops(id(0, 0, 0), id(1, 0, 0)), 1u);
  // The wrap edge: x = 0 to x = X-1 is one hop backwards, not X-1 forwards.
  EXPECT_EQ(t.hops(id(0, 0, 0), id(3, 0, 0)), 1u);
  EXPECT_EQ(t.hops(id(0, 0, 0), id(2, 0, 0)), 2u);  // antipode in x
  EXPECT_EQ(t.hops(id(0, 0, 0), id(3, 3, 3)), 3u);  // wrap in all three
  EXPECT_EQ(t.hops(id(0, 0, 0), id(2, 2, 2)), 6u);  // full antipode
  // Symmetry over a sample of pairs.
  for (atm::NodeId a = 0; a < 64; a += 7) {
    for (atm::NodeId b = 0; b < 64; b += 5) {
      EXPECT_EQ(t.hops(a, b), t.hops(b, a));
    }
  }
}

TEST(TorusMapping, ZeroLoadRouteCostIsHopsTimesHopCost) {
  atm::TorusTopology t = make_torus(64);
  const sim::SimDuration hop_cost = kHop + kPropagation;
  // Spaced, increasing heads: see PrunedTopTierStillRoutesEveryPair.
  sim::SimTime head = 0;
  for (atm::NodeId a = 0; a < 64; a += 3) {
    for (atm::NodeId b = 0; b < 64; b += 11) {
      if (a == b) continue;
      head += sim::kMicrosecond;
      const sim::SimTime out = t.route(head, a, b, /*burst=*/0, /*lane=*/0);
      EXPECT_EQ(out - head, t.hops(a, b) * hop_cost) << a << " -> " << b;
      EXPECT_EQ(t.min_latency(a, b), t.hops(a, b) * hop_cost);
    }
  }
  EXPECT_EQ(t.contention_time(), 0u);
}

// ---------------------------------------------------------------------------
// The one epoch lookahead

TEST(FabricLookahead, EveryDeliveryLandsAtLeastOneLookaheadAfterItsSend) {
  // The epoch scheduler sizes every window with min_lookahead() = the
  // topology's min_cross_latency() + two propagation legs, for every pair of
  // nodes. Route every ordered pair at once, so contention piles up, on
  // each topology — including a 64-port banyan and radix-8 Clos blocks,
  // whose 500 ns pipeline does not split evenly into its stages.
  struct Shape {
    atm::TopologyKind kind;
    std::uint32_t ports;
    std::uint32_t clos_radix;
  };
  for (const Shape shape : {Shape{atm::TopologyKind::kBanyan, 64, 32},
                            Shape{atm::TopologyKind::kClos, 64, 8},
                            Shape{atm::TopologyKind::kClos, 8, 4},
                            Shape{atm::TopologyKind::kTorus, 64, 32}}) {
    sim::Engine eng;
    atm::FabricParams fp;
    fp.topology = shape.kind;
    fp.switch_ports = shape.ports;
    fp.clos_radix = shape.clos_radix;
    atm::Fabric fabric(fp, sim::ShardPlan::balanced(shape.ports, 1), {&eng});
    const sim::SimDuration lookahead = fabric.min_lookahead();
    EXPECT_EQ(fabric.drain_horizon() + fabric.pending_bound(), lookahead);
    // first_bit[src * ports + dst]: when the src -> dst frame began to leave.
    const std::size_t ports = shape.ports;
    std::vector<sim::SimTime> first_bit(ports * ports);
    std::size_t delivered = 0;
    for (atm::NodeId n = 0; n < shape.ports; ++n) {
      fabric.attach(n, [&, n](atm::Frame f) {
        ++delivered;
        EXPECT_GE(eng.now() - first_bit[f.src * ports + n], lookahead)
            << fabric.topology().name() << ' ' << f.src << " -> " << n;
      });
    }
    for (atm::NodeId a = 0; a < shape.ports; ++a) {
      for (atm::NodeId b = 0; b < shape.ports; ++b) {
        if (a == b) continue;
        first_bit[a * ports + b] =
            fabric.send(0, atm::Frame::blank(a, b, 1, 16)).first_bit_out;
      }
    }
    EXPECT_EQ(fabric.drain(sim::kNever), sim::kNever);
    eng.run();
    EXPECT_EQ(delivered, ports * (ports - 1));
  }
}

// ---------------------------------------------------------------------------
// CLI parsing

TEST(TopologyCli, ParseAcceptsExactlyTheThreeNames) {
  atm::TopologyKind k = atm::TopologyKind::kBanyan;
  EXPECT_TRUE(atm::parse_topology("torus", k));
  EXPECT_EQ(k, atm::TopologyKind::kTorus);
  EXPECT_TRUE(atm::parse_topology("clos", k));
  EXPECT_EQ(k, atm::TopologyKind::kClos);
  EXPECT_TRUE(atm::parse_topology("banyan", k));
  EXPECT_EQ(k, atm::TopologyKind::kBanyan);
  EXPECT_FALSE(atm::parse_topology("mesh", k));
  EXPECT_FALSE(atm::parse_topology("Torus", k));
  EXPECT_FALSE(atm::parse_topology("", k));
}

// ---------------------------------------------------------------------------
// Cross-K identity on the multi-stage topologies

/// Runs `config` at K = 1, 2 and 4 and expects every K to reproduce the
/// K = 1 result.
void run_across_k(cluster::SimParams params, const apps::JacobiConfig& config,
                  const char* what) {
  std::string base;
  for (const std::uint32_t k : {1u, 2u, 4u}) {
    params.sim_shards = k;
    double checksum = 0;
    const apps::RunResult r = apps::run_jacobi(params, config, &checksum);
    std::ostringstream out;
    out.precision(17);
    out << r.elapsed_cycles << '|' << checksum << '|' << r.hit_ratio_pct << '|'
        << r.compute_e9 << '|' << r.overhead_e9 << '|' << r.delay_e9;
    if (base.empty()) {
      base = out.str();
    } else {
      EXPECT_EQ(base, out.str()) << what << " diverged at K=" << k;
    }
  }
}

TEST(TopologyIdentity, ClosAndTorusClustersAreIdenticalAcrossK) {
  apps::JacobiConfig config;
  config.n = 16;
  config.iterations = 2;
  for (const atm::TopologyKind kind :
       {atm::TopologyKind::kClos, atm::TopologyKind::kTorus}) {
    cluster::SimParams params = apps::make_params(cluster::BoardKind::kCni, 8);
    params.fabric.topology = kind;
    run_across_k(params, config, atm::topology_name(kind));
  }
  // Radix-4 Clos blocks hold 2-host leaves, so the K = 2 and K = 4 shards
  // each span whole leaves.
  cluster::SimParams params = apps::make_params(cluster::BoardKind::kCni, 8);
  params.fabric.topology = atm::TopologyKind::kClos;
  params.fabric.clos_radix = 4;
  run_across_k(params, config, "clos radix 4");
}

}  // namespace
