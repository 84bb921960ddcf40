#include <gtest/gtest.h>

#include "mem/cache.hpp"

namespace cni::mem {
namespace {

CacheParams small_params() {
  CacheParams p;
  p.l1_size = 256;
  p.l2_size = 1024;
  p.line_size = 32;
  return p;
}

TEST(CacheModel, ColdMissThenHit) {
  CacheModel c(small_params());
  const CacheAccess miss = c.access(0x1000, false);
  EXPECT_FALSE(miss.l1_hit);
  EXPECT_FALSE(miss.l2_hit);
  EXPECT_EQ(miss.cpu_cycles, 10u + 20u);  // L2 probe + memory
  const CacheAccess hit = c.access(0x1000, false);
  EXPECT_TRUE(hit.l1_hit);
  EXPECT_EQ(hit.cpu_cycles, 1u);
}

TEST(CacheModel, SameLineSharesEntry) {
  CacheModel c(small_params());
  c.access(0x1000, false);
  EXPECT_TRUE(c.access(0x101F, false).l1_hit);   // same 32-byte line
  EXPECT_FALSE(c.access(0x1020, false).l1_hit);  // next line
}

TEST(CacheModel, L2CatchesL1Conflicts) {
  CacheModel c(small_params());
  // 0x0 and 0x100 conflict in a 256-byte direct-mapped L1 but not in L2.
  c.access(0x000, false);
  c.access(0x100, false);
  const CacheAccess a = c.access(0x000, false);
  EXPECT_FALSE(a.l1_hit);
  EXPECT_TRUE(a.l2_hit);
  EXPECT_EQ(a.cpu_cycles, 10u);
}

TEST(CacheModel, DirtyEvictionReachesTheBus) {
  CacheModel c(small_params());
  c.access(0x0000, true);  // dirty line at L1/L2 index 0
  // Conflict in both levels (l2_size = 1024): line 0x0000 evicted dirty.
  const CacheAccess a = c.access(0x0400, false);
  EXPECT_TRUE(a.wrote_back);
  EXPECT_EQ(a.writeback_line, 0x0000u);
  EXPECT_EQ(c.writebacks(), 1u);
}

TEST(CacheModel, HighDirtyTagEvictsWithoutFlagBits) {
  // Valid and dirty live in the tag word's low bits; the write-back line
  // address must come out clean, also for a tag with its high bits set.
  CacheModel c(small_params());
  const PAddr high = 0xFFFF'FFFF'FFFF'FC00ull;  // line-aligned, L1/L2 index 0
  c.access(high + 4, true);
  const CacheAccess a = c.access(0x0400, false);  // conflicts in both levels
  EXPECT_TRUE(a.wrote_back);
  EXPECT_EQ(a.writeback_line, high);
  EXPECT_EQ(c.writebacks(), 1u);
  EXPECT_TRUE(c.access(0x0400, false).l1_hit);
}

TEST(CacheModel, CleanEvictionSilent) {
  CacheModel c(small_params());
  c.access(0x0000, false);  // clean
  const CacheAccess a = c.access(0x0400, false);
  EXPECT_FALSE(a.wrote_back);
}

TEST(CacheModel, WriteThroughAnnouncesEveryStore) {
  CacheParams p = small_params();
  p.write_back = false;
  CacheModel c(p);
  const CacheAccess w1 = c.access(0x40, true);
  EXPECT_TRUE(w1.bus_write);
  const CacheAccess w2 = c.access(0x40, true);
  EXPECT_TRUE(w2.l1_hit);
  EXPECT_TRUE(w2.bus_write);  // write-through: the bus sees every store
}

TEST(CacheModel, FlushRangeWritesBackDirtyLines) {
  CacheModel c(small_params());
  c.access(0x1000, true);
  c.access(0x1020, true);
  c.access(0x1040, false);  // clean
  std::uint64_t cycles = 0;
  const auto lines = c.flush_range(0x1000, 0x60, &cycles);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], 0x1000u);
  EXPECT_EQ(lines[1], 0x1020u);
  EXPECT_GT(cycles, 0u);
  // After the flush the lines are clean: flushing again writes nothing.
  std::uint64_t cycles2 = 0;
  EXPECT_TRUE(c.flush_range(0x1000, 0x60, &cycles2).empty());
  // ... but they are still cached (flush != invalidate).
  EXPECT_TRUE(c.access(0x1000, false).l1_hit);
}

TEST(CacheModel, InvalidateRangeDropsLines) {
  CacheModel c(small_params());
  c.access(0x1000, false);
  c.invalidate_range(0x1000, 32);
  EXPECT_FALSE(c.access(0x1000, false).l1_hit);
}

TEST(CacheModel, FlushEmptyRangeIsNoop) {
  CacheModel c(small_params());
  std::uint64_t cycles = 0;
  EXPECT_TRUE(c.flush_range(0x1000, 0, &cycles).empty());
  EXPECT_EQ(cycles, 0u);
}

// Property sweep: for any line size, repeated access to the same addresses
// never misses, and the hit counters add up.
class CacheLineSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheLineSweep, SteadyStateHits) {
  CacheParams p;
  p.l1_size = 4096;
  p.l2_size = 16384;
  p.line_size = GetParam();
  CacheModel c(p);
  for (int round = 0; round < 3; ++round) {
    for (PAddr a = 0; a < 2048; a += 8) c.access(a, round == 0);
  }
  // Rounds 2 and 3 hit entirely in L1 (working set 2 KB < 4 KB L1).
  const std::uint64_t accesses_per_round = 2048 / 8;
  EXPECT_EQ(c.l1_hits(), 2 * accesses_per_round + (accesses_per_round -
                                                   2048 / p.line_size));
  EXPECT_EQ(c.accesses(), 3 * accesses_per_round);
}

INSTANTIATE_TEST_SUITE_P(LineSizes, CacheLineSweep, ::testing::Values(16, 32, 64, 128));

}  // namespace
}  // namespace cni::mem
