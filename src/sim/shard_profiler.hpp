// Shard execution profiler: wall-time attribution for the epoch crew.
//
// EpochStats answers "how parallel is the event stream?" with deterministic,
// host-independent counts. This module answers the complementary, host-
// *dependent* question — "where did the wall clock of a sharded run go?" —
// by bucketing each shard thread's time into five phases:
//
//   busy          executing its engine's events (run_before)
//   drain         routing buffered transfers (barrier drain, fused local
//                 drains)
//   barrier-wait  the coordinator waiting for worker arrival words
//   fused-window  waiting on peer progress words inside a fused epoch
//   idle          parked between commands (workers), or epoch bookkeeping
//                 (coordinator)
//
// The profiler is OFF by default and entirely outside the event hot path:
// phase transitions happen only at epoch and sub-window boundaries, and a
// disabled profiler is a null-pointer check at each site. Per-shard slots
// are cache-line padded and written exclusively by the owning shard thread;
// the coordinator reads them only after the crew's threads have joined.
//
// Wall-clock readings live in shard_profiler.cpp (not in sharded.cpp: the
// epoch-crew protocol itself must stay untimed, see the sharded-wall-clock
// lint rule) and never feed back into the simulation — deterministic
// artifacts stay byte-identical whether the profiler is on or off.
#pragma once

#include <cstdint>
#include <vector>

namespace cni::sim {

/// What a shard thread is doing right now (see file comment).
enum class ShardPhase : std::uint8_t {
  kIdle = 0,
  kBusy = 1,
  kDrain = 2,
  kBarrierWait = 3,
  kFusedWindow = 4,
};
inline constexpr std::size_t kShardPhaseCount = 5;

/// Stable lowercase phase name ("busy", "barrier_wait", ...) for exports.
[[nodiscard]] const char* shard_phase_name(ShardPhase p);

/// One shard's closed books: nanoseconds per phase plus the transition count
/// (so consumers can judge the profiler's own overhead).
struct ShardProfile {
  std::uint64_t ns[kShardPhaseCount] = {};
  std::uint64_t transitions = 0;
};

/// Off until enable(); then each shard thread drives its own slot through
/// transition() and the owner harvests profiles() after the run.
class ShardProfiler {
 public:
  [[nodiscard]] bool enabled() const { return !slots_.empty(); }

  /// Allocates `shards` slots and stamps them (phase = idle, clock = now).
  /// Must run before the crew's threads start touching their slots.
  void enable(std::uint32_t shards);

  /// Charges the time since the slot's last transition to its current phase,
  /// then switches to `next`. Called only by the shard's own thread, only at
  /// epoch/sub-window boundaries — never per event.
  void transition(std::uint32_t shard, ShardPhase next);

  /// Closes every slot's open phase. Call after the crew's worker threads
  /// have joined (run_epochs returned): the join is the happens-before edge
  /// that makes the plain slot fields safe to read here.
  void finish();

  /// The closed books, one entry per shard. Valid after finish().
  [[nodiscard]] std::vector<ShardProfile> profiles() const;

 private:
  /// Padded so two shards' bookkeeping never shares a cache line.
  struct alignas(64) Slot {
    std::uint64_t last_ns = 0;
    ShardPhase phase = ShardPhase::kIdle;
    std::uint64_t ns[kShardPhaseCount] = {};
    std::uint64_t transitions = 0;
  };

  std::vector<Slot> slots_;
};

}  // namespace cni::sim
