#include "mem/cache.hpp"

#include <bit>

#include "util/units.hpp"

namespace cni::mem {

CacheModel::CacheModel(const CacheParams& p) : params_(p) {
  CNI_CHECK(util::is_pow2(p.line_size));
  CNI_CHECK(p.line_size >= 4);  // Line keeps its two flags in the low tag bits
  CNI_CHECK(util::is_pow2(p.l1_size) && p.l1_size % p.line_size == 0);
  CNI_CHECK(util::is_pow2(p.l2_size) && p.l2_size % p.line_size == 0);
  line_shift_ = static_cast<unsigned>(std::countr_zero(p.line_size));
  const std::uint64_t l1_lines = p.l1_size / p.line_size;
  const std::uint64_t l2_lines = p.l2_size / p.line_size;
  l1_mask_ = l1_lines - 1;
  l2_mask_ = l2_lines - 1;
  tags_ = util::ZeroPages((l1_lines + l2_lines) * sizeof(Line));
  const std::span<Line> all = tags_.as_span<Line>(l1_lines + l2_lines);
  l1_ = all.first(l1_lines);
  l2_ = all.subspan(l1_lines);
}

CacheAccess CacheModel::access(PAddr addr, bool is_write) {
  ++accesses_;
  CacheAccess r;
  const PAddr line = line_addr(addr);
  Line& e1 = l1_line(line);
  const bool write_through = !params_.write_back;

  if (e1.holds(line)) {
    ++l1_hits_;
    r.l1_hit = true;
    r.cpu_cycles = params_.l1_latency_cycles;
    if (is_write) {
      if (write_through) {
        r.bus_write = true;
        r.bus_write_line = line;
      } else {
        e1.mark_dirty();
        // Keep the inclusive L2 copy's dirtiness in sync lazily: the line is
        // marked dirty in L1 only; L2 inherits it when L1 evicts.
      }
    }
    return r;
  }

  // L1 miss. Look in L2.
  Line& e2 = l2_line(line);
  if (e2.holds(line)) {
    r.l2_hit = true;
    r.cpu_cycles = params_.l2_latency_cycles;
  } else {
    // Memory fill. A dirty L2 victim is written back to memory first.
    r.cpu_cycles = params_.l2_latency_cycles + params_.memory_latency_cycles;
    if (e2.dirty()) {
      ++writebacks_;
      r.wrote_back = true;
      r.writeback_line = e2.tag();
    }
    e2.fill(line);
  }

  // Fill L1; a dirty L1 victim folds into L2 (inclusive hierarchy), possibly
  // displacing and writing back *that* L2 victim. To keep the model simple we
  // only surface one write-back per access: the L1 victim lands in L2 and the
  // L2 victim (if dirty) goes to memory — which is the one the bus sees.
  if (e1.dirty()) {
    const PAddr victim = e1.tag();
    Line& v2 = l2_line(victim);
    if (v2.holds(victim)) {
      v2.mark_dirty();
    } else {
      // L1 victim no longer in L2: its write-back goes straight to memory.
      ++writebacks_;
      if (!r.wrote_back) {
        r.wrote_back = true;
        r.writeback_line = victim;
      }
    }
  }
  e1.fill(line);

  if (is_write) {
    if (write_through) {
      r.bus_write = true;
      r.bus_write_line = line;
    } else {
      e1.mark_dirty();
    }
  }
  return r;
}

std::vector<PAddr> CacheModel::flush_range(PAddr addr, std::uint64_t len,
                                           std::uint64_t* cycles) {
  std::vector<PAddr> flushed;
  if (len == 0) return flushed;
  const PAddr first = line_addr(addr);
  const PAddr last = line_addr(addr + len - 1);
  std::uint64_t cost = 0;
  for (PAddr line = first; line <= last; line += params_.line_size) {
    // Probing a line costs one L1 lookup; flushing a dirty one costs the L2
    // latency (the write drains through the hierarchy to the bus).
    cost += params_.l1_latency_cycles;
    bool dirty = false;
    Line& e1 = l1_line(line);
    if (e1.holds(line) && e1.dirty()) {
      e1.clean();
      dirty = true;
    }
    Line& e2 = l2_line(line);
    if (e2.holds(line) && e2.dirty()) {
      e2.clean();
      dirty = true;
    }
    if (dirty) {
      ++writebacks_;
      cost += params_.l2_latency_cycles;
      flushed.push_back(line);
    }
  }
  if (cycles != nullptr) *cycles += cost;
  return flushed;
}

void CacheModel::invalidate_range(PAddr addr, std::uint64_t len) {
  if (len == 0) return;
  const PAddr first = line_addr(addr);
  const PAddr last = line_addr(addr + len - 1);
  for (PAddr line = first; line <= last; line += params_.line_size) {
    Line& e1 = l1_line(line);
    if (e1.holds(line)) e1.invalidate();
    Line& e2 = l2_line(line);
    if (e2.holds(line)) e2.invalidate();
  }
}

}  // namespace cni::mem
