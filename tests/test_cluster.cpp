// Cluster assembly, host CPU accounting and run mechanics.
#include <gtest/gtest.h>

#include <cstdlib>

#include "apps/runner.hpp"
#include "cluster/cluster.hpp"
#include "obs/options.hpp"

namespace cni::cluster {
namespace {

using apps::make_params;

TEST(SimParams, Table1Dump) {
  const std::string t = SimParams{}.to_table().to_string();
  EXPECT_NE(t.find("166 MHz"), std::string::npos);
  EXPECT_NE(t.find("32K unified"), std::string::npos);
  EXPECT_NE(t.find("Write-back"), std::string::npos);
  EXPECT_NE(t.find("25 MHz"), std::string::npos);
  EXPECT_NE(t.find("33 MHz"), std::string::npos);
  EXPECT_NE(t.find("500 ns"), std::string::npos);
  EXPECT_NE(t.find("32 KB"), std::string::npos);
}

/// Sets one environment variable for one scope and restores it unset.
struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_(name) {
    EXPECT_EQ(setenv(name, value, 1), 0);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;
  ~ScopedEnv() { EXPECT_EQ(unsetenv(name_), 0); }

 private:
  const char* name_;
};

TEST(SimParams, ShardsEnvAcceptsCountsAndAuto) {
  EXPECT_EQ(default_sim_shards(), 1u) << "unset means one shard";
  {
    const ScopedEnv env("CNI_SIM_SHARDS", "4");
    EXPECT_EQ(default_sim_shards(), 4u);
  }
  {
    const ScopedEnv env("CNI_SIM_SHARDS", "4096");
    EXPECT_EQ(default_sim_shards(), kMaxEnvShards);
  }
  {
    const ScopedEnv env("CNI_SIM_SHARDS", "auto");
    EXPECT_EQ(default_sim_shards(), kAutoShards);
  }
}

TEST(SimParams, ShardsEnvRejectsEverythingElse) {
  // Trailing junk, overflow, negatives, zero (no longer a legacy-mode
  // switch), out-of-range and empty values all exit(2) naming the accepted
  // values — none may silently fall back to some other K.
  for (const char* bad :
       {"4abc", "99999999999", "-1", "0", "4097", "", " 4", "+4", "AUTO"}) {
    const ScopedEnv env("CNI_SIM_SHARDS", bad);
    EXPECT_EXIT((void)default_sim_shards(), ::testing::ExitedWithCode(2),
                "CNI_SIM_SHARDS.*between 1 and 4096, or auto")
        << "value '" << bad << "'";
  }
}

TEST(SimParams, TraceEnvTakesOnlyZeroOrOne) {
  {
    const ScopedEnv env("CNI_TRACE", "0");
    EXPECT_FALSE(obs::options_from_env().trace);
  }
  {
    const ScopedEnv env("CNI_TRACE", "1");
    EXPECT_TRUE(obs::options_from_env().trace);
  }
  // Near-misses such as "false" must exit, never pick a setting silently.
  for (const char* bad : {"false", "true", "on", "2", "01", "", " 1"}) {
    const ScopedEnv env("CNI_TRACE", bad);
    EXPECT_EXIT((void)obs::options_from_env(), ::testing::ExitedWithCode(2),
                "CNI_TRACE.*takes 0 or 1")
        << "value '" << bad << "'";
  }
}

TEST(SimParams, TraceCapacityEnvTakesOnlyA32BitCount) {
  EXPECT_EQ(obs::options_from_env().trace_capacity, 4096u) << "unset keeps the default";
  {
    const ScopedEnv env("CNI_TRACE_CAPACITY", "4294967295");
    EXPECT_EQ(obs::options_from_env().trace_capacity, 4294967295u);
  }
  for (const char* bad : {"abc", "0", "4294967296", "99999999999", "-1", "+4", " 4", "4k", ""}) {
    const ScopedEnv env("CNI_TRACE_CAPACITY", bad);
    EXPECT_EXIT((void)obs::options_from_env(), ::testing::ExitedWithCode(2),
                "CNI_TRACE_CAPACITY.*between 1 and 4294967295")
        << "value '" << bad << "'";
  }
}

TEST(SimParams, CollectiveEnvTakesOnlyNicOrHost) {
  {
    const ScopedEnv env("CNI_COLLECTIVE", "nic");
    EXPECT_EQ(default_collective(), CollectiveMode::kNic);
  }
  {
    const ScopedEnv env("CNI_COLLECTIVE", "host");
    EXPECT_EQ(default_collective(), CollectiveMode::kHost);
  }
  // A typo such as "nics" must exit, not run the host barrier silently.
  for (const char* bad : {"nics", "NIC", "tree", "", "host "}) {
    const ScopedEnv env("CNI_COLLECTIVE", bad);
    EXPECT_EXIT((void)default_collective(), ::testing::ExitedWithCode(2),
                "CNI_COLLECTIVE.*takes nic or host")
        << "value '" << bad << "'";
  }
}

TEST(SweepJobs, BenchJobsEnvAcceptsWorkerCounts) {
  // Only the parse runs here: sweep_jobs() returns the count, no pool starts.
  {
    const ScopedEnv env("CNI_BENCH_JOBS", "1");
    EXPECT_EQ(apps::sweep_jobs(), 1u);
  }
  {
    const ScopedEnv env("CNI_BENCH_JOBS", "4096");
    EXPECT_EQ(apps::sweep_jobs(), apps::kMaxSweepJobs);
  }
  EXPECT_GE(apps::sweep_jobs(), 1u) << "unset means the host's core count";
}

TEST(SweepJobs, BenchJobsEnvRejectsEverythingElse) {
  // Trailing junk, zero, negatives, overflow, out-of-range and empty values
  // all exit(2) naming the accepted values — none may silently run some
  // other number of workers.
  for (const char* bad :
       {"4abc", "99999999999", "-1", "0", "4097", "", " 4", "+4", "all"}) {
    const ScopedEnv env("CNI_BENCH_JOBS", bad);
    EXPECT_EXIT((void)apps::sweep_jobs(), ::testing::ExitedWithCode(2),
                "CNI_BENCH_JOBS.*between 1 and 4096")
        << "value '" << bad << "'";
  }
}

TEST(Cluster, SnapshotCountersAreTheNodeStatsFieldsInOrder) {
  // NodeStats::fields() is the one counter schema: each node's snapshot
  // lists every field, in declaration order, with the value at snapshot
  // time. That order keeps the report's counter and totals bytes stable.
  Cluster cl(make_params(BoardKind::kCni, 2));
  cl.stats().node(0).messages_sent = 3;
  cl.stats().node(1).mcache_tx_hits = 7;
  cl.stats().node(1).dma_bytes = 4096;

  const obs::Snapshot snap = cl.snapshot();
  const std::vector<sim::NodeStats::Field>& fields = sim::NodeStats::fields();
  ASSERT_EQ(snap.nodes.size(), 2u);
  for (std::uint32_t i = 0; i < 2; ++i) {
    const std::vector<obs::CounterSnapshot>& counters = snap.nodes[i].counters;
    ASSERT_EQ(counters.size(), fields.size());
    EXPECT_EQ(counters.front().name, "cpu.compute_cycles");
    EXPECT_EQ(counters.back().name, "dsm.barriers");
    for (std::size_t f = 0; f < fields.size(); ++f) {
      EXPECT_EQ(counters[f].name, fields[f].name);
      EXPECT_EQ(counters[f].value, cl.stats().node(i).*fields[f].member) << fields[f].name;
    }
  }
  EXPECT_EQ(snap.nodes[0].counter_or("nic.messages_sent", 0), 3u);
  EXPECT_EQ(snap.nodes[1].counter_or("mcache.tx_hits", 0), 7u);
  EXPECT_EQ(snap.nodes[1].counter_or("nic.dma_bytes", 0), 4096u);
  EXPECT_EQ(snap.total_counter("nic.dma_bytes"), 4096u);
}

TEST(Cluster, BuildsRequestedBoardKind) {
  Cluster cni(make_params(BoardKind::kCni, 2));
  [[maybe_unused]] auto& board = cni.node(0).cni();  // no check-fail: it is a CNI
  Cluster std_(make_params(BoardKind::kStandard, 2));
  EXPECT_DEATH({ [[maybe_unused]] auto& b = std_.node(0).cni(); }, "standard NIC");
}

TEST(Cluster, RejectsMoreNodesThanSwitchPorts) {
  SimParams p = make_params(BoardKind::kCni, 8);
  p.processors = 33;
  EXPECT_DEATH(Cluster{p}, "switch ports");
}

TEST(Cluster, RunReturnsMaxFinishTime) {
  Cluster cl(make_params(BoardKind::kCni, 3));
  const sim::SimTime elapsed = cl.run([&](std::size_t i, sim::SimThread& t) {
    t.delay((i + 1) * sim::kMillisecond);
  });
  EXPECT_EQ(elapsed, 3 * sim::kMillisecond);
  EXPECT_EQ(cl.elapsed_cpu_cycles(), sim::Clock(166'000'000).to_cycles(elapsed));
}

TEST(Cluster, DeadlockIsDiagnosed) {
  Cluster cl(make_params(BoardKind::kCni, 2));
  EXPECT_THROW(cl.run([&](std::size_t i, sim::SimThread& t) {
    if (i == 1) t.block();  // nobody will ever wake node 1
  }),
               std::runtime_error);
}

TEST(HostCpu, AccountingIdentity) {
  // compute + overhead + delay must equal each node's elapsed time.
  Cluster cl(make_params(BoardKind::kCni, 2));
  cl.run([&](std::size_t i, sim::SimThread& t) {
    auto& cpu = cl.node(i).cpu();
    cpu.compute(100'000);
    cpu.charge_overhead(t, 5'000);
    if (i == 0) t.delay(10 * sim::kMillisecond);  // pure stall
  });
  for (std::size_t i = 0; i < 2; ++i) {
    const sim::NodeStats& st = cl.stats().node(i);
    EXPECT_EQ(st.compute_cycles, 100'000u);
    EXPECT_EQ(st.synch_overhead_cycles, 5'000u);
  }
  // Node 0 stalled ~10 ms = ~1.66M cycles of delay.
  EXPECT_NEAR(static_cast<double>(cl.stats().node(0).synch_delay_cycles), 1.66e6, 2e4);
  EXPECT_EQ(cl.stats().node(1).synch_delay_cycles, 0u);
}

TEST(HostCpu, StolenCyclesSurfaceAtNextSync) {
  Cluster cl(make_params(BoardKind::kCni, 1));
  cl.run([&](std::size_t, sim::SimThread& t) {
    auto& cpu = cl.node(0).cpu();
    cpu.steal_cycles(50'000);  // e.g. an interrupt during computation
    EXPECT_EQ(cpu.stolen_pending(), 50'000u);
    const sim::SimTime before = t.engine().now();
    cpu.sync(t);
    const sim::SimTime after = t.engine().now();
    EXPECT_EQ(cpu.stolen_pending(), 0u);
    EXPECT_EQ(after - before, sim::Clock(166'000'000).cycles(50'000));
  });
  EXPECT_EQ(cl.stats().node(0).synch_overhead_cycles, 50'000u);
}

TEST(HostCpu, FlushBufferPutsDirtyLinesOnTheBus) {
  Cluster cl(make_params(BoardKind::kCni, 1));
  cl.run([&](std::size_t, sim::SimThread& t) {
    auto& cpu = cl.node(0).cpu();
    std::uint64_t writes_before = cpu.bus().cpu_writes();
    for (int w = 0; w < 64; ++w) cpu.mem_access(mem::kSharedBase + w * 8, true);
    cpu.sync(t);
    const std::uint64_t cycles = cpu.flush_buffer(mem::kSharedBase, 512);
    EXPECT_GT(cycles, 0u);
    EXPECT_GT(cpu.bus().cpu_writes(), writes_before);
    // Second flush: nothing dirty left.
    EXPECT_LT(cpu.flush_buffer(mem::kSharedBase, 512), cycles);
  });
}

TEST(Cluster, StatsNodeCountMatches) {
  Cluster cl(make_params(BoardKind::kStandard, 5));
  EXPECT_EQ(cl.stats().node_count(), 5u);
  EXPECT_EQ(cl.size(), 5u);
}

TEST(NodeStats, HitRatioDefinition) {
  sim::NodeStats st;
  // No lookups: no ratio to report. Callers that care distinguish "no cache
  // activity" from "0% hit rate" via has_lookups().
  EXPECT_FALSE(st.has_lookups());
  EXPECT_DOUBLE_EQ(st.tx_hit_ratio_pct(), 0.0);
  st.mcache_tx_lookups = 8;
  st.mcache_tx_hits = 6;
  EXPECT_TRUE(st.has_lookups());
  EXPECT_DOUBLE_EQ(st.tx_hit_ratio_pct(), 75.0);
}

TEST(NodeStats, AddAggregates) {
  sim::NodeStats a;
  a.compute_cycles = 5;
  a.messages_sent = 2;
  sim::NodeStats b;
  b.compute_cycles = 7;
  b.messages_sent = 1;
  a.add(b);
  EXPECT_EQ(a.compute_cycles, 12u);
  EXPECT_EQ(a.messages_sent, 3u);
}

}  // namespace
}  // namespace cni::cluster
