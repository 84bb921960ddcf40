// DSM building blocks: vector clocks, wire format, intervals, diffs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "dsm/diff.hpp"
#include "dsm/interval.hpp"
#include "dsm/vector_clock.hpp"
#include "dsm/wire_format.hpp"
#include "util/buf_pool.hpp"
#include "util/rng.hpp"

namespace cni::dsm {
namespace {

TEST(VectorClock, DominationAndConcurrency) {
  VectorClock a(3);
  VectorClock b(3);
  EXPECT_TRUE(a.dominated_by(b));  // equal clocks dominate each other
  b.advance(1);
  EXPECT_TRUE(a.dominated_by(b));
  EXPECT_FALSE(b.dominated_by(a));
  a.advance(0);
  EXPECT_TRUE(a.concurrent_with(b));
}

TEST(VectorClock, MergeIsPointwiseMax) {
  VectorClock a(3);
  a.set(0, 5);
  a.set(2, 1);
  VectorClock b(3);
  b.set(1, 7);
  b.set(2, 3);
  a.merge(b);
  EXPECT_EQ(a[0], 5u);
  EXPECT_EQ(a[1], 7u);
  EXPECT_EQ(a[2], 3u);
}

TEST(WireFormat, RoundTrip) {
  ByteWriter w;
  w.u32(42);
  w.u64(0xdeadbeefcafeULL);
  w.bytes(std::vector<std::byte>{std::byte{1}, std::byte{2}});
  VectorClock vc(2);
  vc.set(1, 9);
  w.clock(vc);
  ByteReader r(w.data());
  EXPECT_EQ(r.u32(), 42u);
  EXPECT_EQ(r.u64(), 0xdeadbeefcafeULL);
  const std::span<const std::byte> got = r.bytes();
  const std::vector<std::byte> want{std::byte{1}, std::byte{2}};
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
  EXPECT_EQ(r.clock(), vc);
  EXPECT_TRUE(r.done());
}

TEST(WireFormat, TruncatedPayloadThrows) {
  ByteWriter w;
  w.u32(1);
  ByteReader r(w.data());
  r.u32();
  EXPECT_THROW(r.u64(), WireError);
}

TEST(WireFormat, OversizedClockCountThrowsBeforeAllocating) {
  ByteWriter w;
  w.u32(0xFFFFFFFFu);  // clock entry count far beyond the payload
  ByteReader r(w.data());
  EXPECT_THROW(r.clock(), WireError);
}

TEST(WireFormat, OversizedRunCountThrowsBeforeAllocating) {
  ByteWriter w;
  w.u32(7);            // writer
  w.clock(VectorClock(2));
  w.u32(0x40000000u);  // run count the payload cannot hold
  ByteReader r(w.data());
  EXPECT_THROW(Diff::deserialize(r), WireError);
}

TEST(Interval, SerializeRoundTrip) {
  Interval iv;
  iv.writer = 3;
  iv.index = 17;
  iv.vc = VectorClock(4);
  iv.vc.set(3, 17);
  iv.pages = {5, 9, 100};
  ByteWriter w;
  iv.serialize(w);
  ByteReader r(w.data());
  const Interval out = Interval::deserialize(r);
  EXPECT_EQ(out.writer, 3u);
  EXPECT_EQ(out.index, 17u);
  EXPECT_EQ(out.vc, iv.vc);
  EXPECT_EQ(out.pages, iv.pages);
}

Interval make_interval(std::uint32_t w, std::uint32_t i) {
  Interval iv;
  iv.writer = w;
  iv.index = i;
  iv.vc = VectorClock(4);
  iv.vc.set(w, i);
  iv.pages = {static_cast<PageId>(i)};
  return iv;
}

TEST(IntervalStore, InsertDedupsAndCounts) {
  IntervalStore s;
  EXPECT_TRUE(s.insert(make_interval(0, 1)));
  EXPECT_FALSE(s.insert(make_interval(0, 1)));
  EXPECT_TRUE(s.insert(make_interval(0, 2)));
  EXPECT_TRUE(s.insert(make_interval(1, 1)));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(0, 2));
  EXPECT_FALSE(s.contains(0, 3));
}

TEST(IntervalStore, GapAborts) {
  IntervalStore s;
  s.insert(make_interval(0, 1));
  EXPECT_DEATH(s.insert(make_interval(0, 3)), "gap");
}

TEST(IntervalStore, UnseenByReturnsSuffixes) {
  IntervalStore s;
  for (std::uint32_t i = 1; i <= 5; ++i) s.insert(make_interval(0, i));
  for (std::uint32_t i = 1; i <= 2; ++i) s.insert(make_interval(1, i));
  VectorClock seen(4);
  seen.set(0, 3);
  const auto unseen = s.unseen_by(seen);
  ASSERT_EQ(unseen.size(), 4u);  // writer 0: 4,5; writer 1: 1,2
  EXPECT_EQ(unseen[0]->index, 4u);
  EXPECT_EQ(unseen[1]->index, 5u);
  EXPECT_EQ(unseen[2]->writer, 1u);
}

TEST(IntervalStore, RetiredIndicesStayKnownDuplicates) {
  IntervalStore s;
  for (std::uint32_t i = 1; i <= 4; ++i) s.insert(make_interval(0, i));
  s.insert(make_interval(1, 1));
  VectorClock floor(4);
  floor.set(0, 3);
  floor.set(1, 1);
  s.retire_through(floor);
  EXPECT_EQ(s.size(), 1u);  // only (0, 4) is live
  // Late duplicates of retired intervals are still recognised as seen.
  EXPECT_FALSE(s.insert(make_interval(0, 2)));
  EXPECT_FALSE(s.insert(make_interval(1, 1)));
  EXPECT_TRUE(s.contains(0, 1));
  EXPECT_TRUE(s.insert(make_interval(0, 5)));
  const auto unseen = s.unseen_by(floor);
  ASSERT_EQ(unseen.size(), 2u);
  EXPECT_EQ(unseen[0]->index, 4u);
  EXPECT_EQ(unseen[1]->index, 5u);
}

TEST(IntervalStore, UnseenByBelowTheRetiredFloorDies) {
  IntervalStore s;
  for (std::uint32_t i = 1; i <= 3; ++i) s.insert(make_interval(0, i));
  VectorClock floor(4);
  floor.set(0, 2);
  s.retire_through(floor);
  VectorClock stale(4);
  stale.set(0, 1);  // would need the retired interval 2
  EXPECT_DEATH((void)s.unseen_by(stale), "retired interval floor");
}

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

TEST(Diff, CapturesChangedRuns) {
  const auto twin = bytes_of("aaaaaaaaaaaaaaaaaaaaaaaa");
  auto cur = twin;
  cur[2] = std::byte{'X'};
  cur[3] = std::byte{'Y'};
  cur[20] = std::byte{'Z'};
  const Diff d = make_diff(1, VectorClock(2), twin, cur);
  ASSERT_EQ(d.runs.size(), 2u);
  EXPECT_EQ(d.runs[0].offset, 2u);
  EXPECT_EQ(d.runs[0].len, 2u);
  EXPECT_EQ(d.runs[1].offset, 20u);
}

TEST(Diff, NearbyRunsCoalesce) {
  const auto twin = bytes_of("aaaaaaaaaaaaaaaaaaaaaaaa");
  auto cur = twin;
  cur[2] = std::byte{'X'};
  cur[6] = std::byte{'Y'};  // 3 equal bytes apart: joined into one run
  const Diff d = make_diff(1, VectorClock(2), twin, cur);
  ASSERT_EQ(d.runs.size(), 1u);
  EXPECT_EQ(d.runs[0].offset, 2u);
  EXPECT_EQ(d.runs[0].len, 5u);
}

TEST(Diff, ApplyReconstructsCurrent) {
  const auto twin = bytes_of("the quick brown fox jumps over the lazy dog");
  auto cur = twin;
  cur[4] = std::byte{'Q'};
  cur[10] = std::byte{'B'};
  cur[42] = std::byte{'G'};  // last byte: runs at the buffer edge must apply
  const Diff d = make_diff(0, VectorClock(2), twin, cur);
  auto replay = twin;
  apply_diff(d, replay);
  EXPECT_EQ(replay, cur);
}

TEST(Diff, EmptyWhenIdentical) {
  const auto twin = bytes_of("same");
  EXPECT_TRUE(make_diff(0, VectorClock(1), twin, twin).empty());
}

TEST(Diff, SerializeRoundTrip) {
  const auto twin = bytes_of("0123456789abcdef");
  auto cur = twin;
  cur[0] = std::byte{'Z'};
  cur[15] = std::byte{'Q'};
  Diff d = make_diff(2, VectorClock(3), twin, cur);
  ByteWriter w;
  d.serialize(w);
  ByteReader r(w.data());
  const Diff out = Diff::deserialize(r);
  EXPECT_EQ(out.writer, 2u);
  ASSERT_EQ(out.runs.size(), d.runs.size());
  auto replay = twin;
  apply_diff(out, replay);
  EXPECT_EQ(replay, cur);
}

TEST(Diff, WholePageChange) {
  std::vector<std::byte> twin(4096, std::byte{0});
  std::vector<std::byte> cur(4096, std::byte{1});
  const Diff d = make_diff(0, VectorClock(1), twin, cur);
  ASSERT_EQ(d.runs.size(), 1u);
  EXPECT_EQ(d.runs[0].len, 4096u);
  EXPECT_GT(d.payload_bytes(), 4096u);
}

TEST(Diff, JoinGapBoundary) {
  // Two dirty bytes kJoinGap apart coalesce; one byte further and they split.
  std::vector<std::byte> twin(64, std::byte{0});
  {
    auto cur = twin;
    cur[10] = std::byte{1};
    cur[10 + kJoinGap] = std::byte{1};
    const Diff d = make_diff(0, VectorClock(1), twin, cur);
    ASSERT_EQ(d.runs.size(), 1u);
    EXPECT_EQ(d.runs[0].offset, 10u);
    EXPECT_EQ(d.runs[0].len, kJoinGap + 1);
  }
  {
    auto cur = twin;
    cur[10] = std::byte{1};
    cur[10 + kJoinGap + 1] = std::byte{1};
    const Diff d = make_diff(0, VectorClock(1), twin, cur);
    ASSERT_EQ(d.runs.size(), 2u);
    EXPECT_EQ(d.runs[0].len, 1u);
    EXPECT_EQ(d.runs[1].offset, 10u + kJoinGap + 1);
  }
}

TEST(Diff, WordBoundaryStraddlingRuns) {
  // Changes crossing 8-byte word boundaries and in the non-word tail must
  // come out identical to a byte-wise scan.
  std::vector<std::byte> twin(67, std::byte{0x33});
  auto cur = twin;
  cur[7] = std::byte{0xA0};   // last byte of word 0
  cur[8] = std::byte{0xA1};   // first byte of word 1
  cur[63] = std::byte{0xA2};  // last full-word byte
  cur[66] = std::byte{0xA3};  // inside the 3-byte tail
  const Diff d = make_diff(0, VectorClock(1), twin, cur);
  ASSERT_EQ(d.runs.size(), 2u);
  EXPECT_EQ(d.runs[0].offset, 7u);
  EXPECT_EQ(d.runs[0].len, 2u);
  EXPECT_EQ(d.runs[1].offset, 63u);
  EXPECT_EQ(d.runs[1].len, 4u);
  auto replay = twin;
  apply_diff(d, replay);
  EXPECT_EQ(replay, cur);
}

/// Reference byte-wise differ: positions p < q land in one run iff
/// q - p <= kJoinGap. Used to cross-check the word-wise scanner.
std::vector<std::pair<std::uint32_t, std::uint32_t>> naive_runs(
    std::span<const std::byte> twin, std::span<const std::byte> cur) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;  // {offset, len}
  bool open = false;
  std::uint32_t first = 0;
  std::uint32_t last = 0;
  for (std::uint32_t i = 0; i < cur.size(); ++i) {
    if (twin[i] == cur[i]) continue;
    if (open && i - last <= kJoinGap) {
      last = i;
    } else {
      if (open) runs.emplace_back(first, last - first + 1);
      open = true;
      first = last = i;
    }
  }
  if (open) runs.emplace_back(first, last - first + 1);
  return runs;
}

TEST(Diff, RandomizedMatchesByteWiseReference) {
  util::SplitMix64 rng(0xD1FFBEEF2026ULL);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t len = 1 + rng.next_below(4096);
    std::vector<std::byte> twin(len);
    for (std::byte& b : twin) b = static_cast<std::byte>(rng.next());
    auto cur = twin;
    const std::uint64_t flips = rng.next_below(64);
    for (std::uint64_t i = 0; i < flips; ++i) {
      cur[rng.next_below(len)] ^= static_cast<std::byte>(1 + rng.next_below(255));
    }
    const Diff d = make_diff(1, VectorClock(2), twin, cur);
    const auto want = naive_runs(twin, cur);
    ASSERT_EQ(d.runs.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(d.runs[i].offset, want[i].first) << "trial " << trial;
      EXPECT_EQ(d.runs[i].len, want[i].second) << "trial " << trial;
    }
    auto replay = twin;
    apply_diff(d, replay);
    EXPECT_EQ(replay, cur) << "trial " << trial;
  }
}

TEST(Diff, RandomizedSerializeRoundTripAndPayloadBytes) {
  util::SplitMix64 rng(0xC0FFEE2026ULL);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t len = 64 + rng.next_below(2048);
    std::vector<std::byte> twin(len, std::byte{0});
    auto cur = twin;
    const std::uint64_t flips = 1 + rng.next_below(40);
    for (std::uint64_t i = 0; i < flips; ++i) {
      cur[rng.next_below(len)] = static_cast<std::byte>(1 + rng.next_below(255));
    }
    VectorClock vc(4);
    vc.set(trial % 4, static_cast<std::uint32_t>(trial) + 1);
    const Diff d = make_diff(static_cast<std::uint32_t>(trial % 4), vc, twin, cur);

    ByteWriter w;
    d.serialize(w);
    // payload_bytes() must replay the exact serialization code path.
    EXPECT_EQ(d.payload_bytes(), w.data().size()) << "trial " << trial;

    ByteReader r(w.data());
    const Diff out = Diff::deserialize(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(out.writer, d.writer);
    EXPECT_EQ(out.vc, vc);
    auto replay = twin;
    apply_diff(out, replay);
    EXPECT_EQ(replay, cur) << "trial " << trial;
  }
}

TEST(Diff, ExtremeImagesRoundTrip) {
  // All-equal and all-different pages, word-multiple and ragged lengths.
  for (const std::size_t len : {8u * 512u, 4093u}) {
    std::vector<std::byte> twin(len, std::byte{0xAB});
    const Diff same = make_diff(0, VectorClock(1), twin, twin);
    EXPECT_TRUE(same.empty());
    EXPECT_EQ(same.payload_bytes(), [&] {
      ByteWriter w;
      same.serialize(w);
      return w.data().size();
    }());

    std::vector<std::byte> cur(len, std::byte{0xCD});
    const Diff all = make_diff(0, VectorClock(1), twin, cur);
    ASSERT_EQ(all.runs.size(), 1u);
    EXPECT_EQ(all.runs[0].len, len);
    auto replay = twin;
    apply_diff(all, replay);
    EXPECT_EQ(replay, cur);
  }
}

TEST(Diff, BackedDeserializeAliasesTheFramePayload) {
  // A reader over a pooled payload must hand out runs that alias that
  // buffer (zero-copy receive) and keep it alive through the arena ref.
  const auto twin = bytes_of("aaaaaaaaaaaaaaaabbbbbbbbbbbbbbbb");
  auto cur = twin;
  cur[3] = std::byte{'X'};
  cur[30] = std::byte{'Y'};
  Diff d = make_diff(1, VectorClock(2), twin, cur);

  ByteWriter w;
  d.serialize(w);
  util::Buf payload = std::move(w).take();
  const std::byte* lo = payload.data();
  const std::byte* hi = lo + payload.size();

  Diff out;
  {
    ByteReader r(payload, 0);
    out = Diff::deserialize(r);
  }
  ASSERT_EQ(out.runs.size(), 2u);
  for (const Diff::Run& run : out.runs) {
    const std::span<const std::byte> bytes = out.run_bytes(run);
    EXPECT_GE(bytes.data(), lo);
    EXPECT_LT(bytes.data(), hi);
  }
  EXPECT_EQ(payload.ref_count(), 2u);  // the diff arena shares the payload

  payload.reset();  // diff's reference alone keeps the bytes valid
  auto replay = twin;
  apply_diff(out, replay);
  EXPECT_EQ(replay, cur);
}

}  // namespace
}  // namespace cni::dsm
