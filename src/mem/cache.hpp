// Two-level direct-mapped CPU cache model (tags only).
//
// Models the Table 1 hierarchy: 32 KB unified L1 (1 cycle), 1 MB unified L2
// (10 cycles), direct-mapped, write-back, 20-cycle memory latency. The model
// is data-less: the one true copy of every byte lives in host memory arrays,
// and the cache contributes timing, write-back bus traffic (which the CNI
// snooper consumes) and flush costs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mem/page.hpp"
#include "util/zero_pages.hpp"

namespace cni::mem {

struct CacheParams {
  std::uint64_t l1_size = 32 * 1024;
  std::uint64_t l2_size = 1024 * 1024;
  std::uint64_t line_size = 32;
  std::uint32_t l1_latency_cycles = 1;
  std::uint32_t l2_latency_cycles = 10;
  std::uint32_t memory_latency_cycles = 20;
  bool write_back = true;  ///< false = write-through (every write hits the bus)
};

/// Result of one modelled access.
struct CacheAccess {
  std::uint32_t cpu_cycles = 0;       ///< total CPU-cycle cost of the access
  bool l1_hit = false;
  bool l2_hit = false;                ///< meaningful only when !l1_hit
  bool wrote_back = false;            ///< a dirty L2 victim went to memory
  PAddr writeback_line = 0;           ///< line address of that victim
  bool bus_write = false;             ///< a write reached the memory bus
  PAddr bus_write_line = 0;
};

class CacheModel {
 public:
  explicit CacheModel(const CacheParams& p);

  /// Models a load (is_write=false) or store of up to one line at `addr`.
  /// Accesses never straddle lines in our callers (they are <= 8 bytes).
  CacheAccess access(PAddr addr, bool is_write);

  /// Writes back (and keeps valid/clean) every dirty line intersecting
  /// [addr, addr+len). Returns the dirty line addresses, in address order,
  /// and adds the CPU cost to *cycles. This is the "flush before an
  /// impending message transfer" of paper §2.2.
  std::vector<PAddr> flush_range(PAddr addr, std::uint64_t len, std::uint64_t* cycles);

  /// Drops every line intersecting the range without writing back (used when
  /// a DMA overwrites host memory underneath the cache).
  void invalidate_range(PAddr addr, std::uint64_t len);

  [[nodiscard]] const CacheParams& params() const { return params_; }

  // Counters for tests and ablation benches.
  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }
  [[nodiscard]] std::uint64_t l1_hits() const { return l1_hits_; }
  [[nodiscard]] std::uint64_t writebacks() const { return writebacks_; }

 private:
  /// One tag-array entry in one word: the line address, which is
  /// line-aligned, with the valid flag in bit 0 and dirty in bit 1 (hence
  /// line_size >= 4). Only a valid line is ever marked dirty. The all-zero
  /// word is an invalid line, so the arrays start out as untouched zero
  /// pages and only the sets a run reaches become resident.
  struct Line {
    static constexpr PAddr kValid = 1;
    static constexpr PAddr kDirty = 2;
    PAddr word = 0;

    /// Valid and tagged with `line` (dirty or not).
    [[nodiscard]] bool holds(PAddr line) const { return (word & ~kDirty) == (line | kValid); }
    [[nodiscard]] bool dirty() const { return (word & kDirty) != 0; }
    [[nodiscard]] PAddr tag() const { return word & ~(kValid | kDirty); }
    void fill(PAddr line) { word = line | kValid; }
    void mark_dirty() { word |= kDirty; }
    void clean() { word &= ~kDirty; }
    void invalidate() { word = 0; }
  };
  static_assert(sizeof(Line) == sizeof(PAddr));

  [[nodiscard]] PAddr line_addr(PAddr a) const { return a & ~(params_.line_size - 1); }
  [[nodiscard]] Line& l1_line(PAddr line) { return l1_[(line >> line_shift_) & l1_mask_]; }
  [[nodiscard]] Line& l2_line(PAddr line) { return l2_[(line >> line_shift_) & l2_mask_]; }

  CacheParams params_;
  unsigned line_shift_ = 0;  // log2(line_size)
  std::uint64_t l1_mask_ = 0;  // lines - 1 (both sizes are powers of two)
  std::uint64_t l2_mask_ = 0;
  util::ZeroPages tags_;  // both tag arrays, L1's lines first
  std::span<Line> l1_;
  std::span<Line> l2_;
  std::uint64_t accesses_ = 0;
  std::uint64_t l1_hits_ = 0;
  std::uint64_t writebacks_ = 0;
};

}  // namespace cni::mem
