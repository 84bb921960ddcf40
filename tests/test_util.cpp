#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/flat_map.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "util/zero_pages.hpp"

namespace cni::util {
namespace {

TEST(Units, CeilDiv) {
  EXPECT_EQ(ceil_div(0u, 48u), 0u);
  EXPECT_EQ(ceil_div(1u, 48u), 1u);
  EXPECT_EQ(ceil_div(48u, 48u), 1u);
  EXPECT_EQ(ceil_div(49u, 48u), 2u);
  EXPECT_EQ(ceil_div(4096u, 48u), 86u);  // the paper's 4 KB page in ATM cells
}

TEST(Units, AlignAndPow2) {
  EXPECT_EQ(align_up(1, 4096), 4096u);
  EXPECT_EQ(align_up(4096, 4096), 4096u);
  EXPECT_EQ(align_down(4097, 4096), 4096u);
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
}

TEST(Units, Literals) {
  EXPECT_EQ(32_KiB, 32768u);
  EXPECT_EQ(1_MiB, 1048576u);
}

TEST(Rng, DeterministicStream) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DoubleInRange) {
  SplitMix64 r(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double(-1.0, 1.0);
    EXPECT_GE(d, -1.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BelowBound) {
  SplitMix64 r(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Table, FormatsAligned) {
  Table t("Demo");
  t.set_header({"name", "x"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("== Demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  // Numeric column right-aligned: " 1" and "22" line up.
  EXPECT_NE(s.find(" 1\n"), std::string::npos);
  EXPECT_NE(s.find("22\n"), std::string::npos);
}

TEST(Table, DoubleRows) {
  Table t("D");
  t.add_row("row", {1.5, 100.0}, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("100"), std::string::npos);
}

TEST(Table, FormatDoubleTrimsZeros) {
  EXPECT_EQ(format_double(1.5000, 4), "1.5");
  EXPECT_EQ(format_double(100.0, 2), "100");
  EXPECT_EQ(format_double(0.054, 4), "0.054");
  EXPECT_EQ(format_double(13.31, 2), "13.31");
}

/// Resident pages of `m`, per mincore.
std::size_t resident_pages(const ZeroPages& m) {
  std::vector<unsigned char> vec(m.size() / ZeroPages::page_size());
  EXPECT_EQ(mincore(m.data(), m.size(), vec.data()), 0);
  std::size_t n = 0;
  for (const unsigned char v : vec) n += v & 1u;
  return n;
}

TEST(ZeroPages, ReadsZeroAndIsResidentOnlyWhereTouched) {
  const std::size_t page = ZeroPages::page_size();
  ZeroPages m(64 * page + 1);  // rounds up to whole pages
  ASSERT_NE(m.data(), nullptr);
  EXPECT_EQ(m.size(), 65 * page);
  EXPECT_EQ(resident_pages(m), 0u);
  m.data()[3 * page] = std::byte{7};
  EXPECT_EQ(resident_pages(m), 1u);
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < m.size(); ++i) nonzero += m.data()[i] != std::byte{0} ? 1 : 0;
  EXPECT_EQ(nonzero, 1u);
  const std::span<std::uint64_t> words = m.as_span<std::uint64_t>(m.size() / 8);
  EXPECT_EQ(words[3 * page / 8], 7u);
}

TEST(ZeroPages, GuardPageSitsBelowTheUsableBytes) {
  const std::size_t page = ZeroPages::page_size();
  ZeroPages m(2 * page, ZeroPages::Guard::kPage);
  EXPECT_EQ(m.size(), 2 * page);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % page, 0u);
  m.data()[0] = std::byte{1};  // the first usable byte is writable
  // The page just below it is PROT_NONE: touching it faults.
  volatile std::byte* below = m.data() - 1;
  EXPECT_DEATH(*below = std::byte{1}, "");
}

TEST(ZeroPages, MoveLeavesOneOwner) {
  ZeroPages a(4096);
  std::byte* const p = a.data();
  a.data()[0] = std::byte{5};
  ZeroPages b(std::move(a));
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(b.data(), p);
  ZeroPages c;
  c = std::move(b);
  EXPECT_EQ(b.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.data(), p);
  EXPECT_EQ(c.data()[0], std::byte{5});
  c = ZeroPages();  // releases the mapping
  EXPECT_EQ(c.data(), nullptr);
  EXPECT_EQ(c.size(), 0u);
}

TEST(U64FlatMap, InsertFindEraseBasics) {
  U64FlatMap<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(7), nullptr);
  m.insert(7, 70);
  m.insert(9, 90);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70);
  m.insert(7, 71);  // overwrite, not duplicate
  EXPECT_EQ(*m.find(7), 71);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.erase(7));
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_EQ(*m.find(9), 90);
}

TEST(U64FlatMap, MatchesReferenceMapUnderRandomChurn) {
  // The backward-shift erase is the delicate part: hammer it with a random
  // insert/erase mix (clustered keys force long probe chains) and compare
  // against std::unordered_map after every growth-triggering batch.
  SplitMix64 rng(11);
  U64FlatMap<std::uint64_t> m;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.next_below(512);  // small space: collisions
    if (rng.next_below(3) != 0) {
      const std::uint64_t val = rng.next();
      m.insert(key, val);
      ref[key] = val;
    } else {
      EXPECT_EQ(m.erase(key), ref.erase(key) == 1);
    }
  }
  EXPECT_EQ(m.size(), ref.size());
  for (const auto& [k, v] : ref) {
    ASSERT_NE(m.find(k), nullptr) << k;
    EXPECT_EQ(*m.find(k), v);
  }
  std::size_t walked = 0;
  m.for_each([&](std::uint64_t k, std::uint64_t v) {
    ++walked;
    EXPECT_EQ(ref.at(k), v);
  });
  EXPECT_EQ(walked, ref.size());
}

TEST(U64FlatMap, ClearResetsAndStaysUsable) {
  U64FlatMap<int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m.insert(k, static_cast<int>(k));
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(5), nullptr);
  m.insert(5, 55);
  EXPECT_EQ(*m.find(5), 55);
}

}  // namespace
}  // namespace cni::util
