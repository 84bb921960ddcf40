// Observability run options.
//
// Tracing is off by default: the per-record cost is small but the figure
// sweeps run billions of events, and the paper's numbers must never depend
// on whether anyone was watching. The one switch is the CNI_TRACE
// environment variable (or an explicit --trace-out flag in the bench
// binaries); with it off every instrumentation site costs one pointer test
// (see obs.hpp).
#pragma once

#include <cstdint>
#include <string_view>

namespace cni::obs {

struct Options {
  /// Record trace events into the per-node rings.
  bool trace = false;
  /// Ring capacity in records per node. When a ring is full the oldest
  /// record is overwritten and the drop counter advances, so a bounded ring
  /// never perturbs the simulation by allocating mid-run.
  std::uint32_t trace_capacity = 4096;
};

/// Process-wide default options, consulted by SimParams. Initialized once
/// from the environment (options_from_env()); a bench binary's --trace-out
/// flag overrides them via set_default_options() before any sweep thread
/// starts.
[[nodiscard]] Options default_options();
void set_default_options(const Options& opts);

/// Reads CNI_TRACE (exactly `0` or `1`) and CNI_TRACE_CAPACITY (a decimal
/// record count in [1, 2^32-1]) without caching. Any other value prints the
/// accepted values and exits with status 2 rather than silently running
/// with some other setting.
[[nodiscard]] Options options_from_env();

/// Parses a trace ring capacity: a plain decimal in [1, 2^32-1], no sign,
/// whitespace or suffix. Leaves `out` untouched and returns false otherwise.
[[nodiscard]] bool parse_trace_capacity(std::string_view text, std::uint32_t& out);

}  // namespace cni::obs
