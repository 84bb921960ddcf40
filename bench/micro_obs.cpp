// Observability overhead: what do the emit macros cost on a hot-path
// operation, per runtime switch position?
//
//   ProbeUninstrumented  the same operation written without any emit site —
//                        the reference cost.
//   ProbeRuntimeOff      macros in, null handles: the shipped default (one
//                        pointer test per site).
//   ProbeMetricsOn       histogram + gauge handles live, tracing off.
//   ProbeCausalOn        trace ring live, metrics handles null — isolates the
//                        trace-record sites (span + instant + causal).
//   ProbeTracingOn       full tracing into a ring (the --trace-out path).
//
// Plus an end-to-end pair: a small Jacobi run with the runtime trace switch
// off vs on — the whole-simulation view of the same question.
// scripts/bench_engine.py turns these into BENCH_obs.json.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "core/message_cache.hpp"
#include "obs/obs.hpp"

namespace {

using namespace cni;

struct ProbeCtx {
  explicit ProbeCtx(std::uint64_t cache_bytes = 512 * 1024)
      : mcache(mem::PageGeometry(4096), cache_bytes) {
    for (std::uint64_t i = 0; i < mcache.buffer_count(); ++i) mcache.insert(i * 4096, 4096);
  }

  core::MessageCache mcache;
  std::uint64_t va = 0;
  std::uint64_t t = 0;    ///< synthetic sim-time cursor, ps
  std::uint32_t seq = 0;  ///< causality-token sequence cursor

  // Null by default: probe_step then measures emit sites whose runtime
  // switch is off. Point them at real handles to measure live recording.
  obs::NodeObs* node = nullptr;
  obs::Hist* hist = nullptr;
  obs::Gauge* gauge = nullptr;
};

/// One instrumented probe step. Mirrors CniBoard's transmit fast path: one
/// Message Cache lookup plus the emit sites wrapped around it (histogram,
/// gauge, hit span / miss instant, and the parent-linked causal span).
/// Out of line, like the reference below, so both pay the same call.
[[gnu::noinline]] std::uint64_t probe_step(ProbeCtx& ctx) {
  const std::uint64_t limit = ctx.mcache.buffer_count() * 4096;
  const bool hit = ctx.mcache.lookup_tx(ctx.va, 4096);
  ctx.t += 1000;
  const std::uint64_t wait = ctx.va & 0xFFFU;
  CNI_OBS_HIST(ctx.hist, wait);
  CNI_OBS_GAUGE_SET(ctx.gauge, static_cast<std::int64_t>(ctx.va & 0x3FU));
  if (hit) {
    CNI_TRACE_SPAN(ctx.node, ctx.t, ctx.t + wait, obs::Component::kMCache,
                   obs::Event::kMCacheLookupHit, ctx.va, 4096);
  } else {
    CNI_TRACE_INSTANT(ctx.node, ctx.t, obs::Component::kMCache,
                      obs::Event::kMCacheLookupMiss, ctx.va, 4096);
  }
  const std::uint64_t span = obs::causal_token(0, ctx.seq++, obs::Stage::kMCache);
  CNI_TRACE_CAUSAL(ctx.node, ctx.t, ctx.t + wait, obs::Stage::kMCache, span,
                   obs::causal_restage(span, obs::Stage::kTx));
  ctx.va = (ctx.va + 4096) % limit;
  return static_cast<std::uint64_t>(hit) + ctx.va;
}

/// probe_step with every emit site removed: the lookup, the cursor advance
/// and the token sequence bump are all that is left.
[[gnu::noinline]] std::uint64_t probe_step_uninstrumented(ProbeCtx& ctx) {
  const std::uint64_t limit = ctx.mcache.buffer_count() * 4096;
  const bool hit = ctx.mcache.lookup_tx(ctx.va, 4096);
  ctx.t += 1000;
  ++ctx.seq;
  ctx.va = (ctx.va + 4096) % limit;
  return static_cast<std::uint64_t>(hit) + ctx.va;
}

void BM_ProbeUninstrumented(benchmark::State& state) {
  ProbeCtx ctx;
  for (auto _ : state) benchmark::DoNotOptimize(probe_step_uninstrumented(ctx));
}
BENCHMARK(BM_ProbeUninstrumented);

void BM_ProbeRuntimeOff(benchmark::State& state) {
  ProbeCtx ctx;  // handles stay null
  for (auto _ : state) benchmark::DoNotOptimize(probe_step(ctx));
}
BENCHMARK(BM_ProbeRuntimeOff);

void BM_ProbeMetricsOn(benchmark::State& state) {
  obs::Metrics metrics;
  ProbeCtx ctx;
  ctx.hist = metrics.histogram("probe.wait_ps");
  ctx.gauge = metrics.gauge("probe.occupancy");
  for (auto _ : state) benchmark::DoNotOptimize(probe_step(ctx));
}
BENCHMARK(BM_ProbeMetricsOn);

void BM_ProbeCausalOn(benchmark::State& state) {
  obs::Options opts;
  opts.trace = true;
  opts.trace_capacity = 4096;
  obs::NodeObs node(0, opts);
  ProbeCtx ctx;  // hist/gauge stay null: only the trace emits record
  ctx.node = &node;
  for (auto _ : state) benchmark::DoNotOptimize(probe_step(ctx));
  state.counters["trace_recorded"] = static_cast<double>(node.ring().recorded());
}
BENCHMARK(BM_ProbeCausalOn);

void BM_ProbeTracingOn(benchmark::State& state) {
  obs::Options opts;
  opts.trace = true;
  opts.trace_capacity = 4096;
  obs::NodeObs node(0, opts);
  obs::Metrics metrics;
  ProbeCtx ctx;
  ctx.node = &node;
  ctx.hist = metrics.histogram("probe.wait_ps");
  ctx.gauge = metrics.gauge("probe.occupancy");
  for (auto _ : state) benchmark::DoNotOptimize(probe_step(ctx));
  state.counters["trace_recorded"] = static_cast<double>(node.ring().recorded());
}
BENCHMARK(BM_ProbeTracingOn);

void run_jacobi_once(bool trace) {
  cluster::SimParams params = apps::make_params(cluster::BoardKind::kCni, 2);
  params.obs.trace = trace;
  params.obs.trace_capacity = 4096;
  const apps::RunResult r =
      apps::run_jacobi(params, apps::JacobiConfig{24, 3, 6}, nullptr);
  benchmark::DoNotOptimize(r.elapsed);
}

void BM_JacobiRuntimeOff(benchmark::State& state) {
  for (auto _ : state) run_jacobi_once(false);
}
BENCHMARK(BM_JacobiRuntimeOff)->Unit(benchmark::kMillisecond);

void BM_JacobiTracingOn(benchmark::State& state) {
  for (auto _ : state) run_jacobi_once(true);
}
BENCHMARK(BM_JacobiTracingOn)->Unit(benchmark::kMillisecond);

}  // namespace
