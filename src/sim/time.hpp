// Simulated time.
//
// The base unit is the picosecond, carried in a 64-bit unsigned integer:
// 2^64 ps ≈ 213 days of simulated time, far beyond any run here. Components
// in different clock domains (166 MHz host CPU, 25 MHz memory bus, 33 MHz NIC
// processor) convert cycles to picoseconds through a Clock.
#pragma once

#include <cstdint>

#include "util/check.hpp"

namespace cni::sim {

/// Simulated time in picoseconds since the start of the run.
using SimTime = std::uint64_t;

/// A duration in picoseconds.
using SimDuration = std::uint64_t;

inline constexpr SimTime kNever = ~SimTime{0};

inline constexpr SimDuration kPicosecond = 1;
inline constexpr SimDuration kNanosecond = 1'000;
inline constexpr SimDuration kMicrosecond = 1'000'000;
inline constexpr SimDuration kMillisecond = 1'000'000'000;
inline constexpr SimDuration kSecond = 1'000'000'000'000ULL;

/// A fixed-frequency clock domain. Periods are rounded to integral
/// picoseconds (166 MHz -> 6024 ps, error 0.002 %), keeping all arithmetic
/// exact and the simulation bit-reproducible.
class Clock {
 public:
  constexpr explicit Clock(std::uint64_t freq_hz)
      : freq_hz_(freq_hz), period_ps_(kSecond / freq_hz) {
    CNI_DCHECK(freq_hz > 0);
  }

  [[nodiscard]] constexpr std::uint64_t freq_hz() const { return freq_hz_; }
  [[nodiscard]] constexpr SimDuration period() const { return period_ps_; }

  /// Duration of `n` cycles in this domain.
  [[nodiscard]] constexpr SimDuration cycles(std::uint64_t n) const { return n * period_ps_; }

  /// Number of whole cycles elapsed in duration `d` (floor).
  [[nodiscard]] constexpr std::uint64_t to_cycles(SimDuration d) const { return d / period_ps_; }

  /// Number of cycles needed to cover duration `d` (ceiling).
  [[nodiscard]] constexpr std::uint64_t to_cycles_ceil(SimDuration d) const {
    return (d + period_ps_ - 1) / period_ps_;
  }

 private:
  std::uint64_t freq_hz_;
  SimDuration period_ps_;
};

/// Duration of transmitting `bits` at `bits_per_sec` (ceiling to whole ps).
constexpr SimDuration transmission_time(std::uint64_t bits, std::uint64_t bits_per_sec) {
  // bits * 1e12 / rate, computed without overflow for any realistic input.
  const std::uint64_t whole = bits / bits_per_sec;
  const std::uint64_t rem = bits % bits_per_sec;
  return whole * kSecond + (rem * kSecond + bits_per_sec - 1) / bits_per_sec;
}

constexpr double to_micros(SimDuration d) { return static_cast<double>(d) / 1e6; }

}  // namespace cni::sim
