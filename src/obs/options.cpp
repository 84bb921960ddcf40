#include "obs/options.hpp"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace cni::obs {
namespace {

// Packed {initialized, trace, capacity} so reads are a single atomic load.
// Writers (env init, Reporter construction) run before sweep threads spawn;
// the atomic keeps the cross-thread *reads* well-defined under TSan.
struct PackedOptions {
  bool init = false;
  bool trace = false;
  std::uint32_t capacity = 4096;
};
std::atomic<PackedOptions> g_defaults{PackedOptions{}};

}  // namespace

bool parse_trace_capacity(std::string_view text, std::uint32_t& out) {
  std::uint32_t v = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc() || end != last || v == 0) return false;
  out = v;
  return true;
}

Options options_from_env() {
  Options o;
  if (const char* trace = std::getenv("CNI_TRACE"); trace != nullptr) {
    const std::string_view v(trace);
    if (v != "0" && v != "1") {
      std::fprintf(stderr, "error: invalid CNI_TRACE=%s (takes 0 or 1)\n", trace);
      std::exit(2);
    }
    o.trace = v == "1";
  }
  if (const char* cap = std::getenv("CNI_TRACE_CAPACITY");
      cap != nullptr && !parse_trace_capacity(cap, o.trace_capacity)) {
    std::fprintf(stderr,
                 "error: invalid CNI_TRACE_CAPACITY=%s (takes a record count between 1 "
                 "and 4294967295)\n",
                 cap);
    std::exit(2);
  }
  return o;
}

Options default_options() {
  PackedOptions p = g_defaults.load(std::memory_order_acquire);
  if (!p.init) {
    const Options env = options_from_env();
    p = PackedOptions{true, env.trace, env.trace_capacity};
    g_defaults.store(p, std::memory_order_release);
  }
  Options o;
  o.trace = p.trace;
  o.trace_capacity = p.capacity;
  return o;
}

void set_default_options(const Options& opts) {
  PackedOptions p;
  p.init = true;
  p.trace = opts.trace;
  p.capacity = opts.trace_capacity;
  g_defaults.store(p, std::memory_order_release);
}

}  // namespace cni::obs
