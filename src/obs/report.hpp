// Machine-readable run artifacts.
//
// Two exports, both deterministic byte-for-byte for a given simulation:
//   * Chrome trace_event JSON (chrome://tracing, Perfetto) built from the
//     per-node trace rings; timestamps are simulated microseconds.
//   * A versioned run report (schema "cni-run-report") carrying build id,
//     config, figure values, per-node metrics and histogram percentiles —
//     what scripts/bench_engine.py and scripts/validate_report.py consume.
//
// The Reporter class is the harness the runner and every bench main share:
// it owns flag parsing (--trace-out / --metrics-out / --trace-capacity),
// flips the process-default Options *before* sweep threads start, collects
// one ReportPoint per sweep point, and writes the files at the end.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/options.hpp"
#include "obs/snapshot.hpp"

namespace cni::obs {

/// Bumped whenever the report layout changes; validate_report.py pins it.
/// v2: per-point "trace_truncated" + "critpath", top-level "trace_truncated".
/// v3: the per-point "legacy" object is gone; "totals" is the only sum.
inline constexpr std::uint32_t kReportVersion = 3;

/// Results of one sweep point (one Cluster run).
struct ReportPoint {
  std::string label;  ///< e.g. "procs=8 system=cni"
  std::vector<std::pair<std::string, std::string>> config;  ///< point config
  std::vector<std::pair<std::string, double>> values;       ///< figure numbers
  Snapshot snapshot;
};

/// Version string baked in by the build (git describe), "unknown" otherwise.
[[nodiscard]] const char* build_version();

[[nodiscard]] std::string json_escape(const std::string& s);

/// Chrome trace_event JSON for all points (pid = point index, tid = node).
[[nodiscard]] std::string chrome_trace_json(const std::vector<ReportPoint>& points);

/// The versioned run report. `config` is run-level (figure id, app, ...).
[[nodiscard]] std::string run_report_json(
    const std::string& binary,
    const std::vector<std::pair<std::string, std::string>>& config,
    const std::vector<ReportPoint>& points);

/// Writes `contents` to `path`; returns false (and logs) on failure.
bool write_text_file(const std::string& path, const std::string& contents);

/// Flag-driven reporting for a figure/table binary. Construction parses and
/// strips the obs flags and, if tracing was requested, installs the process
/// default Options — it must therefore run before any sweep thread starts.
class Reporter {
 public:
  Reporter(int argc, char** argv, std::string binary);

  /// Whether `arg` is one of the flags construction consumes, so a binary
  /// that rejects unknown arguments can accept these.
  [[nodiscard]] static bool owns(const char* arg);

  /// Was --trace-out or --critpath-out given (so clusters should record)?
  [[nodiscard]] bool tracing() const {
    return !trace_path_.empty() || !critpath_path_.empty();
  }
  /// Is any output file requested at all?
  [[nodiscard]] bool active() const {
    return !trace_path_.empty() || !metrics_path_.empty() || !critpath_path_.empty();
  }

  void add_config(std::string key, std::string value) {
    config_.emplace_back(std::move(key), std::move(value));
  }
  void add_point(ReportPoint pt) { points_.push_back(std::move(pt)); }

  /// Writes the requested files. Returns false if any write failed.
  bool finish() const;

 private:
  std::string binary_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string critpath_path_;  ///< --critpath-out: cni-critpath JSON target
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<ReportPoint> points_;
};

}  // namespace cni::obs
