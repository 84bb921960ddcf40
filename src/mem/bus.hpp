// Memory-bus model with snooping.
//
// Table 1: 25 MHz bus, 4-cycle acquisition, 2 cycles per (64-bit) word.
// Two kinds of client share the per-node bus:
//   * the CPU cache (misses, write-backs, flushes) — charged analytically to
//     the CPU's local clock; write transactions are announced to snoopers;
//   * the NIC DMA engine — occupies the bus for real (busy-until), since DMA
//     bursts are long enough for contention to matter.
// The CNI Message Cache registers a snooper here: it observes every write
// transaction's physical target, exactly like the board's snoopy interface.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mem/page.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace cni::mem {

struct BusParams {
  std::uint64_t freq_hz = 25'000'000;
  std::uint32_t acquisition_cycles = 4;
  std::uint32_t cycles_per_word = 2;
  std::uint32_t word_bytes = 8;
};

class MemoryBus {
 public:
  /// Called for every write transaction on the bus: (physical address, len).
  using SnoopHook = std::function<void(PAddr, std::uint64_t)>;

  MemoryBus(sim::Engine& engine, const BusParams& p)
      : engine_(engine), params_(p), clock_(p.freq_hz) {}

  [[nodiscard]] const BusParams& params() const { return params_; }
  [[nodiscard]] const sim::Clock& clock() const { return clock_; }

  /// Registers a write snooper (the CNI board's snoopy interface).
  void add_snooper(SnoopHook hook) { snoopers_.push_back(std::move(hook)); }

  /// Duration of one bus transaction moving `bytes` (acquisition + words).
  [[nodiscard]] sim::SimDuration transaction_time(std::uint64_t bytes) const {
    const std::uint64_t words = util::ceil_div<std::uint64_t>(bytes, params_.word_bytes);
    return clock_.cycles(params_.acquisition_cycles + params_.cycles_per_word * words);
  }

  /// DMA from host memory to the device (a bus *read* — not snooped).
  /// Occupies the bus starting at `now`; returns the completion time.
  sim::SimTime dma_read(sim::SimTime now, std::uint64_t bytes) {
    ++dma_transfers_;
    dma_bytes_ += bytes;
    return queue_.occupy(now, transaction_time(bytes));
  }

  /// DMA from the device into host memory (a bus *write* — snooped).
  sim::SimTime dma_write(sim::SimTime now, PAddr addr, std::uint64_t bytes) {
    ++dma_transfers_;
    dma_bytes_ += bytes;
    const sim::SimTime done = queue_.occupy(now, transaction_time(bytes));
    announce_write(addr, bytes);
    return done;
  }

  /// A CPU-originated write transaction (write-back of a dirty line, a
  /// write-through store, or a flush). Returns its duration so the caller
  /// can charge the CPU's local clock; snoopers are notified immediately.
  sim::SimDuration cpu_write(PAddr addr, std::uint64_t bytes) {
    ++cpu_writes_;
    announce_write(addr, bytes);
    return transaction_time(bytes);
  }

  [[nodiscard]] sim::SimTime busy_until() const { return queue_.busy_until(); }
  [[nodiscard]] std::uint64_t dma_transfers() const { return dma_transfers_; }
  [[nodiscard]] std::uint64_t dma_bytes() const { return dma_bytes_; }
  [[nodiscard]] std::uint64_t cpu_writes() const { return cpu_writes_; }

 private:
  void announce_write(PAddr addr, std::uint64_t bytes) {
    for (const auto& s : snoopers_) s(addr, bytes);
  }

  sim::Engine& engine_;
  BusParams params_;
  sim::Clock clock_;
  sim::ServiceQueue queue_;
  std::vector<SnoopHook> snoopers_;
  std::uint64_t dma_transfers_ = 0;
  std::uint64_t dma_bytes_ = 0;
  std::uint64_t cpu_writes_ = 0;
};

}  // namespace cni::mem
