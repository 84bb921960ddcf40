#include "cluster/params.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "obs/report.hpp"
#include "sim/time.hpp"

namespace cni::cluster {

std::uint32_t default_sim_shards() {
  const char* env = std::getenv("CNI_SIM_SHARDS");
  if (env == nullptr) return 1;
  const std::string_view v(env);
  if (v == "auto") return kAutoShards;
  std::uint32_t k = 0;
  const char* last = v.data() + v.size();
  const auto [end, ec] = std::from_chars(v.data(), last, k);
  if (ec != std::errc() || end != last || k < 1 || k > kMaxEnvShards) {
    std::fprintf(stderr,
                 "error: invalid CNI_SIM_SHARDS=%s (takes a shard count between 1 and "
                 "%u, or auto)\n",
                 env, kMaxEnvShards);
    std::exit(2);
  }
  return k;
}

namespace {
CollectiveMode g_default_collective = CollectiveMode::kHost;

// The flags apply_fabric_cli consumes; is_fabric_flag answers from the same
// list.
constexpr std::string_view kTopologyFlag = "--topology=";
constexpr std::string_view kPortsFlag = "--ports=";
constexpr std::string_view kCollectiveFlag = "--collective=";
constexpr std::array<std::string_view, 3> kFabricFlags = {kTopologyFlag, kPortsFlag,
                                                          kCollectiveFlag};

/// The text after `flag` (a "--name=" prefix) when `arg` starts with it.
const char* flag_value(const char* arg, std::string_view flag) {
  return std::string_view(arg).starts_with(flag) ? arg + flag.size() : nullptr;
}
}  // namespace

CollectiveMode default_collective() {
  const char* env = std::getenv("CNI_COLLECTIVE");
  if (env == nullptr) return g_default_collective;
  CollectiveMode mode = g_default_collective;
  if (!parse_collective(env, mode)) {
    std::fprintf(stderr, "error: invalid CNI_COLLECTIVE=%s (takes nic or host)\n", env);
    std::exit(2);
  }
  return mode;
}

void set_default_collective(CollectiveMode mode) { g_default_collective = mode; }

const char* collective_name(CollectiveMode mode) {
  return mode == CollectiveMode::kNic ? "nic" : "host";
}

bool parse_collective(const char* text, CollectiveMode& out) {
  const std::string_view v(text);
  if (v == "nic") {
    out = CollectiveMode::kNic;
    return true;
  }
  if (v == "host") {
    out = CollectiveMode::kHost;
    return true;
  }
  return false;
}

bool is_fabric_flag(const char* arg) {
  return std::any_of(kFabricFlags.begin(), kFabricFlags.end(),
                     [arg](std::string_view f) { return flag_value(arg, f) != nullptr; });
}

void apply_fabric_cli(int argc, char** argv, obs::Reporter* report) {
  atm::TopologyKind kind = atm::default_topology();
  std::uint32_t ports = atm::default_switch_ports();
  CollectiveMode collective = default_collective();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* topo = flag_value(arg, kTopologyFlag)) {
      if (!atm::parse_topology(topo, kind)) {
        std::fprintf(stderr,
                     "error: unknown topology '%s' (--topology takes banyan, clos or "
                     "torus)\n",
                     topo);
        std::exit(2);
      }
    } else if (const char* count = flag_value(arg, kPortsFlag)) {
      char* end = nullptr;
      const unsigned long n = std::strtoul(count, &end, 10);
      if (end == count || *end != '\0' || n < 2 || n > 65536 ||
          !util::is_pow2(static_cast<std::uint64_t>(n))) {
        std::fprintf(stderr,
                     "error: invalid --ports=%s (the fabric port count must be a power "
                     "of two between 2 and 65536, e.g. --ports=4096)\n",
                     count);
        std::exit(2);
      }
      ports = static_cast<std::uint32_t>(n);
    } else if (const char* name = flag_value(arg, kCollectiveFlag)) {
      CollectiveMode mode = collective;
      if (!parse_collective(name, mode)) {
        std::fprintf(stderr,
                     "error: unknown collective mode '%s' (--collective takes nic or "
                     "host)\n",
                     name);
        std::exit(2);
      }
      collective = mode;
    }
  }
  atm::set_default_fabric_shape(kind, ports);
  set_default_collective(collective);
  if (report != nullptr) {
    report->add_config("topology", atm::topology_name(kind));
    report->add_config("fabric_ports", std::to_string(ports));
    report->add_config("collective", collective_name(collective));
  }
}

util::Table SimParams::to_table() const {
  util::Table t("Table 1: Simulation Parameters");
  auto mhz = [](std::uint64_t hz) {
    return util::format_double(static_cast<double>(hz) / 1e6, 0) + " MHz";
  };
  t.add_row({"CPU Frequency", mhz(cpu_freq_hz)});
  t.add_row({"Primary Cache Access Time", std::to_string(cache.l1_latency_cycles) + " cycle"});
  t.add_row({"Primary Cache Size", std::to_string(cache.l1_size / 1024) + "K unified"});
  t.add_row({"Secondary Cache Access Time", std::to_string(cache.l2_latency_cycles) + " cycles"});
  t.add_row({"Secondary Cache Size", std::to_string(cache.l2_size / (1024 * 1024)) + " MB unified"});
  t.add_row({"Cache Organization", "Direct-mapped"});
  t.add_row({"Cache Policy", cache.write_back ? "Write-back" : "Write-through"});
  t.add_row({"Memory Latency", std::to_string(cache.memory_latency_cycles) + " cycles"});
  t.add_row({"Bus Acquisition Time", std::to_string(bus.acquisition_cycles) + " cycles"});
  t.add_row({"Bus Transfer Rate", std::to_string(bus.cycles_per_word) + " cycles per word"});
  t.add_row({"Bus Frequency", mhz(bus.freq_hz)});
  t.add_row({"Switch Latency",
             util::format_double(static_cast<double>(fabric.switch_latency) / sim::kNanosecond, 0) + " ns"});
  t.add_row({"Network Processor Frequency", mhz(nic.nic_freq_hz)});
  t.add_row({"Network Latency",
             util::format_double(static_cast<double>(fabric.propagation) / sim::kNanosecond, 0) + " ns"});
  t.add_row({"Interrupt Latency",
             util::format_double(static_cast<double>(nic.interrupt_latency) / sim::kMicrosecond, 0) + " us"});
  t.add_row({"Message Cache Size", std::to_string(cni.message_cache_bytes / 1024) + " KB"});
  t.add_row({"Page Size", std::to_string(page_size) + " bytes"});
  t.add_row({"Link Rate", "622 Mbps (STS-12)"});
  return t;
}

}  // namespace cni::cluster
