#include "mem/cache.hpp"

#include "util/units.hpp"

namespace cni::mem {

CacheModel::CacheModel(const CacheParams& p) : params_(p) {
  CNI_CHECK(util::is_pow2(p.line_size));
  CNI_CHECK(util::is_pow2(p.l1_size) && p.l1_size % p.line_size == 0);
  CNI_CHECK(util::is_pow2(p.l2_size) && p.l2_size % p.line_size == 0);
  l1_.resize(p.l1_size / p.line_size);
  l2_.resize(p.l2_size / p.line_size);
}

std::size_t CacheModel::l1_index(PAddr line) const {
  return (line / params_.line_size) % l1_.size();
}

std::size_t CacheModel::l2_index(PAddr line) const {
  return (line / params_.line_size) % l2_.size();
}

CacheAccess CacheModel::access(PAddr addr, bool is_write) {
  ++accesses_;
  CacheAccess r;
  const PAddr line = line_addr(addr);
  Line& e1 = l1_[l1_index(line)];
  const bool write_through = !params_.write_back;

  if (e1.valid && e1.tag == line) {
    ++l1_hits_;
    r.l1_hit = true;
    r.cpu_cycles = params_.l1_latency_cycles;
    if (is_write) {
      if (write_through) {
        r.bus_write = true;
        r.bus_write_line = line;
      } else {
        e1.dirty = true;
        // Keep the inclusive L2 copy's dirtiness in sync lazily: the line is
        // marked dirty in L1 only; L2 inherits it when L1 evicts.
      }
    }
    return r;
  }

  // L1 miss. Look in L2.
  Line& e2 = l2_[l2_index(line)];
  const bool l2_hit = e2.valid && e2.tag == line;
  if (l2_hit) {
    r.l2_hit = true;
    r.cpu_cycles = params_.l2_latency_cycles;
  } else {
    // Memory fill. A dirty L2 victim is written back to memory first.
    r.cpu_cycles = params_.l2_latency_cycles + params_.memory_latency_cycles;
    if (e2.valid && e2.dirty) {
      ++writebacks_;
      r.wrote_back = true;
      r.writeback_line = e2.tag;
    }
    e2.valid = true;
    e2.dirty = false;
    e2.tag = line;
  }

  // Fill L1; a dirty L1 victim folds into L2 (inclusive hierarchy), possibly
  // displacing and writing back *that* L2 victim. To keep the model simple we
  // only surface one write-back per access: the L1 victim lands in L2 and the
  // L2 victim (if dirty) goes to memory — which is the one the bus sees.
  if (e1.valid && e1.dirty) {
    Line& v2 = l2_[l2_index(e1.tag)];
    if (v2.valid && v2.tag == e1.tag) {
      v2.dirty = true;
    } else {
      // L1 victim no longer in L2: its write-back goes straight to memory.
      ++writebacks_;
      if (!r.wrote_back) {
        r.wrote_back = true;
        r.writeback_line = e1.tag;
      }
    }
  }
  e1.valid = true;
  e1.dirty = false;
  e1.tag = line;

  if (is_write) {
    if (write_through) {
      r.bus_write = true;
      r.bus_write_line = line;
    } else {
      e1.dirty = true;
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
    Line& e1 = l1_[l1_index(line)];
    if (e1.valid && e1.tag == line && e1.dirty) {
      e1.dirty = false;
      dirty = true;
    }
    Line& e2 = l2_[l2_index(line)];
    if (e2.valid && e2.tag == line && e2.dirty) {
      e2.dirty = false;
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
    Line& e1 = l1_[l1_index(line)];
    if (e1.valid && e1.tag == line) e1.valid = false;
    Line& e2 = l2_[l2_index(line)];
    if (e2.valid && e2.tag == line) e2.valid = false;
  }
}

}  // namespace cni::mem
