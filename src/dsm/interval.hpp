// Intervals and write notices (lazy release consistency).
//
// A node's execution is divided into intervals delimited by releases
// (lock releases and barrier arrivals). Each interval records which shared
// pages the node dirtied — its *write notices*. An acquire propagates every
// interval the acquirer has not yet seen; the acquirer invalidates the
// noticed pages, deferring data movement until it actually faults (the
// "lazy invalidate" protocol the paper runs, after Keleher et al.).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsm/vector_clock.hpp"
#include "dsm/wire_format.hpp"
#include "util/check.hpp"

namespace cni::dsm {

using PageId = std::uint64_t;  ///< shared-region page index

struct Interval {
  std::uint32_t writer = 0;  ///< node that created the interval
  std::uint32_t index = 0;   ///< per-writer interval sequence number (1-based)
  VectorClock vc;            ///< writer's clock at interval creation
  std::vector<PageId> pages; ///< write notices

  void serialize(ByteWriter& w) const {
    w.u32(writer);
    w.u32(index);
    w.clock(vc);
    w.u32(static_cast<std::uint32_t>(pages.size()));
    for (PageId p : pages) w.u64(p);
  }

  static Interval deserialize(ByteReader& r) {
    Interval iv;
    iv.writer = r.u32();
    iv.index = r.u32();
    iv.vc = r.clock();
    const std::uint32_t n = r.u32();
    // Bounds before allocation: each page id is 8 wire bytes, so a count
    // the remaining payload cannot hold must not size the vector.
    if (std::uint64_t{n} * 8 > r.remaining()) {
      throw WireError("truncated DSM payload: interval page count");
    }
    iv.pages.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) iv.pages.push_back(r.u64());
    return iv;
  }
};

/// Every interval a node knows about — its own and those received in grants
/// and barrier releases. A releaser forwards the subset the acquirer has not
/// seen, which makes causality transitive.
///
/// Intervals of one writer always arrive densely (an interval's clock covers
/// the writer's earlier intervals, and senders forward complete unseen
/// suffixes), so each writer's log is a plain vector indexed by
/// interval-number-1-retired — making unseen_by() O(answer), not O(store).
/// This matters: fine-grained apps create hundreds of thousands of
/// intervals.
///
/// Storage is bounded by barriers, not by history: retire_through() drops
/// every interval at or below a floor clock that no later unseen_by() can
/// reach below, while the per-writer known count still recognises late
/// duplicates.
class IntervalStore {
 public:
  /// Inserts if absent (neither stored nor retired). Returns true if the
  /// interval was new.
  bool insert(Interval iv) {
    if (iv.writer >= logs_.size()) logs_.resize(iv.writer + std::size_t{1});
    Log& log = logs_[iv.writer];
    if (iv.index <= log.known()) return false;  // already known
    CNI_CHECK_MSG(iv.index == log.known() + 1, "interval gap: causal delivery violated");
    log.live.push_back(std::move(iv));
    ++size_;
    return true;
  }

  /// Whether (writer, index) was ever inserted, retired or not.
  [[nodiscard]] bool contains(std::uint32_t writer, std::uint32_t index) const {
    return writer < logs_.size() && index >= 1 && index <= logs_[writer].known();
  }

  /// Intervals with index beyond `seen[writer]`, in deterministic
  /// (writer, index) order. `seen` must not reach below the retired floor:
  /// the answer would need intervals this store no longer holds.
  [[nodiscard]] std::vector<const Interval*> unseen_by(const VectorClock& seen) const {
    std::vector<const Interval*> out;
    std::size_t n = 0;
    for (std::size_t w = 0; w < logs_.size(); ++w) {
      const Log& log = logs_[w];
      CNI_CHECK_MSG(seen[w] >= log.retired, "unseen_by below the retired interval floor");
      n += log.known() - std::min<std::size_t>(log.known(), seen[w]);
    }
    out.reserve(n);
    for (std::size_t w = 0; w < logs_.size(); ++w) {
      const Log& log = logs_[w];
      for (std::size_t i = seen[w] - log.retired; i < log.live.size(); ++i) {
        out.push_back(&log.live[i]);
      }
    }
    return out;
  }

  /// Drops every interval with index <= floor[writer], one range erase per
  /// writer. Their indices stay known: insert still reports them as
  /// duplicates.
  void retire_through(const VectorClock& floor) {
    for (std::size_t w = 0; w < logs_.size(); ++w) {
      Log& log = logs_[w];
      const std::uint32_t upto = std::min<std::uint32_t>(floor[w], log.known());
      if (upto <= log.retired) continue;
      const std::size_t k = upto - log.retired;
      log.live.erase(log.live.begin(), log.live.begin() + static_cast<std::ptrdiff_t>(k));
      log.retired = upto;
      size_ -= k;
    }
  }

  /// Live (not yet retired) intervals.
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  struct Log {
    std::uint32_t retired = 0;   ///< indices 1..retired are retired
    std::vector<Interval> live;  ///< indices retired+1..known()
    [[nodiscard]] std::uint32_t known() const {
      return retired + static_cast<std::uint32_t>(live.size());
    }
  };

  std::vector<Log> logs_;  ///< indexed by writer
  std::size_t size_ = 0;
};

}  // namespace cni::dsm
