// Per-node, per-page DSM state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "dsm/diff.hpp"
#include "dsm/interval.hpp"
#include "dsm/vector_clock.hpp"
#include "mem/page.hpp"
#include "util/buf_pool.hpp"
#include "util/check.hpp"

namespace cni::dsm {

enum class PageMode : std::uint8_t {
  kInvalid,    ///< reads and writes fault
  kReadOnly,   ///< writes fault (twin creation)
  kReadWrite,  ///< full access; a twin records the pre-write image
};

/// An unapplied write notice: `writer` dirtied this page in its interval
/// `index`, whose clock was `vc`. Kept until the next fault fetches the data.
/// Every notice one interval raises on a node shares that interval's clock,
/// so a node holds at most one clock copy per received interval.
struct Notice {
  std::uint32_t writer = 0;
  std::uint32_t index = 0;
  std::shared_ptr<const VectorClock> vc;
};

struct PageEntry {
  PageMode mode = PageMode::kInvalid;
  bool ever_valid = false;  ///< page has held a coherent base copy at least once

  // cni-lint: allow(payload-copy): the page frame models host memory itself,
  // not a wire payload — it is the ground truth payloads are built from.
  std::vector<std::byte> data;   ///< the node's frame (allocated on first touch)
  util::Buf twin;                ///< pooled pre-write image (nonempty while writing)
  std::vector<Diff> retained;    ///< own per-interval diffs (exact vc tags)
  /// Invalidating notices not yet satisfied: at most one per writer (its
  /// newest, which covers the writer's older ones), ordered by writer.
  std::vector<Notice> pending;

  /// The causal point the current bytes represent: everything at or below
  /// this clock is already folded into `data`. Diff requests carry it as a
  /// floor so writers only ship newer diffs.
  VectorClock content_vc;


  // Cached physical base for the fast access path (avoids a page-table map
  // lookup per simulated load/store).
  mem::PAddr pa_base = 0;
  bool pa_cached = false;

  /// Records that `iv` dirtied this page, replacing the writer's older
  /// notice. A fetch only ever needs each writer's newest interval: its
  /// diffs are requested up to that index, and its clock is the one the
  /// base-selection dominance test reads.
  void add_notice(const Interval& iv, const std::shared_ptr<const VectorClock>& vc) {
    auto it = std::lower_bound(pending.begin(), pending.end(), iv.writer,
                               [](const Notice& n, std::uint32_t w) { return n.writer < w; });
    if (it == pending.end() || it->writer != iv.writer) {
      it = pending.insert(it, Notice{iv.writer, 0, {}});
    }
    CNI_DCHECK(iv.index > it->index);
    it->index = iv.index;
    it->vc = vc;
  }

  [[nodiscard]] bool readable() const { return mode != PageMode::kInvalid; }
  [[nodiscard]] bool writable() const { return mode == PageMode::kReadWrite; }
};

}  // namespace cni::dsm
