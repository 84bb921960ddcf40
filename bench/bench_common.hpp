// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every binary regenerates one table or figure from the paper's §3 and
// prints the same rows/series. `CNI_BENCH_FAST=1` (or --fast) shrinks the
// sweep for smoke runs; the default matches paper scale.
//
// Sweeps run their points on a thread pool (`CNI_BENCH_JOBS`, defaulting to
// hardware_concurrency): every (procs, board-kind, page-size) point is an
// independent simulation with its own cluster, each point's result is
// bit-identical to a sequential run, and results land in per-point slots so
// the printed ordering never depends on completion order.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/runner.hpp"
#include "obs/report.hpp"
#include "util/table.hpp"

namespace cni::bench {

inline bool fast_mode() {
  const char* env = std::getenv("CNI_BENCH_FAST");
  return env != nullptr && env[0] != '0';
}

/// Strict `--name=N` flag: false when `arg` is not `name`, else `*out` is set
/// to N, which must be a decimal in [lo, hi]. Anything else prints the
/// accepted values and exits 2, like the CNI_* parsers.
inline bool count_flag(const char* arg, std::string_view name, std::uint32_t lo,
                       std::uint32_t hi, std::uint32_t* out) {
  const std::string_view a(arg);
  if (!a.starts_with(name)) return false;
  const std::string_view v = a.substr(name.size());
  std::uint32_t n = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  if (v.empty() || ec != std::errc() || end != v.data() + v.size() || n < lo || n > hi) {
    std::fprintf(stderr, "error: invalid %s (%.*s takes a decimal between %u and %u)\n",
                 arg, static_cast<int>(name.size() - 1), name.data(), lo, hi);
    std::exit(2);
  }
  *out = n;
  return true;
}

/// An argument none of the binary's flags claimed: prints it with the usage
/// line and exits 2.
[[noreturn]] inline void unknown_flag(const char* arg, const char* usage) {
  std::fprintf(stderr, "error: unknown argument '%s'\nusage: %s\n", arg, usage);
  std::exit(2);
}

/// Processor counts along the paper's x-axis (figures run 1..32).
inline std::vector<std::uint32_t> processor_sweep() {
  if (fast_mode()) return {1, 2, 4, 8};
  return {1, 2, 4, 8, 16, 24, 32};
}

// ---------------------------------------------------------------------------
// Run-report plumbing. Every figure/table binary owns an obs::Reporter; these
// helpers turn finished runs into ReportPoints carrying the figure numbers
// and the per-node counter/metrics/trace snapshot.
// ---------------------------------------------------------------------------

/// Builds one ReportPoint from a finished run. Always records elapsed
/// simulated time and the hit ratio next to the caller's figure values.
inline obs::ReportPoint run_point(
    std::string label, std::vector<std::pair<std::string, std::string>> config,
    std::vector<std::pair<std::string, double>> values, const apps::RunResult& r) {
  obs::ReportPoint pt;
  pt.label = std::move(label);
  pt.config = std::move(config);
  pt.values = std::move(values);
  pt.values.emplace_back("elapsed_ps", static_cast<double>(r.elapsed));
  pt.values.emplace_back("hit_ratio_pct", r.hit_ratio_pct);
  pt.snapshot = r.snapshot;
  return pt;
}

/// One (CNI, standard) pair of runs at a processor count.
struct SpeedupPoint {
  std::uint32_t procs = 0;
  apps::RunResult cni;
  apps::RunResult standard;
};

/// Prints the paper's speedup-figure series: CNI-speedup, Standard-speedup
/// and the CNI network cache hit ratio, with T(1) of each configuration as
/// its own baseline.
inline void print_speedup_series(const std::string& title,
                                 const std::vector<SpeedupPoint>& points) {
  util::Table t(title);
  t.set_header({"procs", "CNI-speedup", "Standard-speedup", "NetCacheHitRatio(%)"});
  const double cni1 = static_cast<double>(points.front().cni.elapsed);
  const double std1 = static_cast<double>(points.front().standard.elapsed);
  for (const SpeedupPoint& pt : points) {
    t.add_row(std::to_string(pt.procs),
              {cni1 / static_cast<double>(pt.cni.elapsed),
               std1 / static_cast<double>(pt.standard.elapsed),
               pt.cni.hit_ratio_pct},
              2);
  }
  t.print();
}

/// Reports a speedup sweep: one ReportPoint per (procs, board kind) run,
/// carrying the same speedup numbers the printed series shows.
inline void report_speedup_series(obs::Reporter& rep,
                                  const std::vector<SpeedupPoint>& points) {
  if (!rep.active() || points.empty()) return;
  const double cni1 = static_cast<double>(points.front().cni.elapsed);
  const double std1 = static_cast<double>(points.front().standard.elapsed);
  for (const SpeedupPoint& pt : points) {
    const std::string procs = std::to_string(pt.procs);
    rep.add_point(run_point(
        "procs=" + procs + " system=cni",
        {{"procs", procs}, {"system", "cni"}},
        {{"speedup", cni1 / static_cast<double>(pt.cni.elapsed)}}, pt.cni));
    rep.add_point(run_point(
        "procs=" + procs + " system=standard",
        {{"procs", procs}, {"system", "standard"}},
        {{"speedup", std1 / static_cast<double>(pt.standard.elapsed)}}, pt.standard));
  }
}

/// Runs one app config over the processor sweep on both board kinds. The
/// 2 × |sweep| simulations are independent, so they run as parallel jobs.
template <typename Config, typename RunFn>
std::vector<SpeedupPoint> speedup_sweep(RunFn run, const Config& cfg,
                                        std::uint64_t page_size = 4096) {
  const std::vector<std::uint32_t> procs = processor_sweep();
  std::vector<SpeedupPoint> out(procs.size());
  for (std::size_t i = 0; i < procs.size(); ++i) out[i].procs = procs[i];
  apps::parallel_indexed(procs.size() * 2, [&](std::size_t job) {
    const std::size_t i = job / 2;
    const bool is_cni = (job % 2) == 0;
    const auto kind = is_cni ? cluster::BoardKind::kCni : cluster::BoardKind::kStandard;
    apps::RunResult r = run(apps::make_params(kind, procs[i], page_size), cfg, nullptr);
    (is_cni ? out[i].cni : out[i].standard) = std::move(r);
  });
  return out;
}

/// Page-size sensitivity at a fixed processor count: speedup(p) against the
/// same-page-size single-processor run, per configuration (Figures 5/9/12).
template <typename Config, typename RunFn>
void print_pagesize_series(const std::string& title, RunFn run, const Config& cfg,
                           std::uint32_t procs,
                           const std::vector<std::uint64_t>& page_sizes,
                           obs::Reporter* rep = nullptr) {
  // Four independent runs per page size: {CNI, standard} × {1, procs}.
  std::vector<apps::RunResult> results(page_sizes.size() * 4);
  apps::parallel_indexed(results.size(), [&](std::size_t job) {
    const std::uint64_t ps = page_sizes[job / 4];
    const auto kind =
        (job % 4) < 2 ? cluster::BoardKind::kCni : cluster::BoardKind::kStandard;
    const std::uint32_t p = (job % 2) == 0 ? 1 : procs;
    results[job] = run(apps::make_params(kind, p, ps), cfg, nullptr);
  });
  util::Table t(title);
  t.set_header({"page bytes", "CNI speedup", "Standard speedup", "HitRatio(%)"});
  for (std::size_t i = 0; i < page_sizes.size(); ++i) {
    const apps::RunResult& cni1 = results[i * 4 + 0];
    const apps::RunResult& cnip = results[i * 4 + 1];
    const apps::RunResult& std1 = results[i * 4 + 2];
    const apps::RunResult& stdp = results[i * 4 + 3];
    const double cni_speedup =
        static_cast<double>(cni1.elapsed) / static_cast<double>(cnip.elapsed);
    const double std_speedup =
        static_cast<double>(std1.elapsed) / static_cast<double>(stdp.elapsed);
    t.add_row(std::to_string(page_sizes[i]),
              {cni_speedup, std_speedup, cnip.hit_ratio_pct}, 2);
    if (rep != nullptr && rep->active()) {
      const std::string pb = std::to_string(page_sizes[i]);
      rep->add_point(run_point("page_bytes=" + pb + " system=cni",
                               {{"page_bytes", pb},
                                {"system", "cni"},
                                {"procs", std::to_string(procs)}},
                               {{"speedup", cni_speedup}}, cnip));
      rep->add_point(run_point("page_bytes=" + pb + " system=standard",
                               {{"page_bytes", pb},
                                {"system", "standard"},
                                {"procs", std::to_string(procs)}},
                               {{"speedup", std_speedup}}, stdp));
    }
  }
  t.print();
}

/// Prints a Tables 2-4 style overhead breakdown (units: 1e9 CPU cycles,
/// per-processor averages; Total = sum of the categories, as in the paper).
inline void print_overhead_table(const std::string& title, const apps::RunResult& cni,
                                 const apps::RunResult& standard) {
  util::Table t(title);
  t.set_header({"Category", "Time-CNI (10^9 cycles)", "Time-standard (10^9 cycles)"});
  t.add_row("Synch overhead", {cni.overhead_e9, standard.overhead_e9}, 4);
  t.add_row("Synch delay", {cni.delay_e9, standard.delay_e9}, 4);
  t.add_row("Computation", {cni.compute_e9, standard.compute_e9}, 4);
  t.add_row("Total", {cni.total_sum_e9(), standard.total_sum_e9()}, 4);
  t.print();
}

/// Reports an overhead-table pair: one ReportPoint per board kind carrying
/// the table's per-category breakdown.
inline void report_overhead_table(obs::Reporter& rep, const apps::RunResult& cni,
                                  const apps::RunResult& standard) {
  if (!rep.active()) return;
  const auto values = [](const apps::RunResult& r) {
    return std::vector<std::pair<std::string, double>>{
        {"synch_overhead_e9", r.overhead_e9},
        {"synch_delay_e9", r.delay_e9},
        {"compute_e9", r.compute_e9},
        {"total_e9", r.total_sum_e9()}};
  };
  rep.add_point(run_point("system=cni", {{"system", "cni"}}, values(cni), cni));
  rep.add_point(
      run_point("system=standard", {{"system", "standard"}}, values(standard), standard));
}

}  // namespace cni::bench
