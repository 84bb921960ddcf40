// One simulation point of the repository benchmark, in a process of its own.
//
// run.py starts this binary once per point, so every point pays its own
// process start, first-touch page faults and teardown, as a user's run does,
// and a point that aborts (CNI_CHECK) or throws (deadlock) fails alone. The
// simulator is driven only through public entry points: apps::run_jacobi,
// apps::run_water, cluster::Cluster, nic::NicBoard and sim::ShardProfiler.
// The phase boundaries inside apps::run_* are seen through two link-time
// wraps (CMakeLists.txt): every Cluster::run and Cluster::snapshot call is
// routed through the __wrap_ functions below, which stamp the host clock.
//
// Usage: cni_perfbench_point --workload NAME --seed N [--shards K]
//                            [--spans FILE] [--obs-trace] [--probe]
//
//   --shards K   override the workload's shard count (run.py's K=1 check)
//   --spans F    traced point: record spans, attach a sim::ShardProfiler,
//                write the spans to F as Chrome trace-event JSON
//   --obs-trace  turn on the simulator's own trace rings (SimParams::obs)
//   --probe      build and destroy the workload's Cluster (and DsmSystem)
//                without running it, timing each layer's construction
//
// Prints one JSON object on stdout; exits 0 only when the point completed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "apps/jacobi.hpp"
#include "apps/runner.hpp"
#include "apps/water.hpp"
#include "cluster/cluster.hpp"
#include "dsm/system.hpp"
#include "nic/wire.hpp"
#include "sim/channel.hpp"
#include "sim/shard_profiler.hpp"
#include "util/buf_pool.hpp"

extern char** environ;

namespace {

using namespace cni;
using Clock = std::chrono::steady_clock;
using RunBody = util::FunctionRef<void(std::size_t, sim::SimThread&)>;

// ---- Workloads -------------------------------------------------------------
//
// Why each one exists is in README.md. All run the CNI board on the paper's
// single-stage banyan with host-manager barriers and simulator tracing off.

enum class Kind { kJacobi, kWater, kPingpong };

struct Workload {
  const char* name;
  Kind kind;
  std::uint32_t nodes;
  std::uint32_t shards;
};

constexpr Workload kWorkloads[] = {
    {"jacobi-1024-k4", Kind::kJacobi, 32, 4},
    {"water-343-k1", Kind::kWater, 32, 1},
    {"pingpong-1024-k4", Kind::kPingpong, 1024, 4},
};

constexpr apps::JacobiConfig kJacobi{1024, 20};
constexpr apps::WaterConfig kWater{343, 2};
constexpr std::uint32_t kPingpongRounds = 800;
/// Traced pingpong points record the body's calls on one round in this many.
constexpr std::uint32_t kSpanSample = 16;

constexpr nic::MsgType kPing = nic::kTypeHandlerBase + 60;
constexpr nic::MsgType kPong = nic::kTypeAppBase + 60;

/// splitmix64 finalizer: the seed's only route into a workload's inputs.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + a * 0xbf58476d1ce4e5b9ULL +
                    b * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

cluster::SimParams point_params(const Workload& w, std::uint64_t seed, std::uint32_t shards,
                                bool obs_trace) {
  cluster::SimParams p = apps::make_params(cluster::BoardKind::kCni, w.nodes);
  p.sim_shards = shards;
  p.fabric.topology = atm::TopologyKind::kBanyan;
  p.fabric.switch_ports = w.nodes;
  // The seed draws the cluster's cable flight time, within 1 ns (20 cm of
  // fibre) above Table 1's figure: it moves simulated time, not host work.
  p.fabric.propagation += mix(seed, 0) % 1000 * sim::kPicosecond;
  p.obs = obs::Options{};
  p.obs.trace = obs_trace;
  return p;
}

// ---- Host measurements -----------------------------------------------------

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ---- Spans -----------------------------------------------------------------
//
// Recorded from this file only, around the calls it makes into the
// simulator, kept in memory and written out when the point ends. Each shard
// thread appends to its own buffer; the buffers are read after Cluster::run
// has joined the shard threads. Simulated nodes are fibers that block inside
// receive_app, so body spans name their parent explicitly instead of nesting
// through a per-thread stack.

struct SpanRecord {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  Clock::time_point begin;
  Clock::time_point end;
};

class SpanLog {
 public:
  [[nodiscard]] bool on() const { return on_; }
  void enable() { on_ = true; }

  /// A fresh span id (0 while spans are off).
  std::uint64_t open() { return on_ ? ++ids_ : 0; }

  void close(const char* name, std::uint64_t id, std::uint64_t parent, Clock::time_point b,
             Clock::time_point e) {
    if (id != 0) local().spans.push_back({name, id, parent, b, e});
  }

  /// Host durations (ns) of every span called `name`.
  [[nodiscard]] std::vector<std::uint64_t> durations_ns(const char* name) const {
    std::vector<std::uint64_t> out;
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : bufs_) {
      for (const SpanRecord& s : buf->spans) {
        if (std::strcmp(s.name, name) == 0) {
          out.push_back(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(s.end - s.begin).count()));
        }
      }
    }
    return out;
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto): one complete
  /// event per span, microseconds since `origin`, id/parent in args.
  bool write(const char* path, Clock::time_point origin) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    const char* sep = "\n";
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : bufs_) {
      for (const SpanRecord& s : buf->spans) {
        const double ts = std::chrono::duration<double, std::micro>(s.begin - origin).count();
        const double dur = std::chrono::duration<double, std::micro>(s.end - s.begin).count();
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                     "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu}}",
                     sep, s.name, buf->tid, ts, dur, static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
        sep = ",\n";
      }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct ThreadBuf {
    std::uint32_t tid = 0;
    std::vector<SpanRecord> spans;
  };

  ThreadBuf& local() {
    thread_local ThreadBuf* mine = nullptr;
    if (mine == nullptr) {
      const std::lock_guard<std::mutex> lock(mu_);
      bufs_.push_back(std::make_unique<ThreadBuf>());
      bufs_.back()->tid = static_cast<std::uint32_t>(bufs_.size());
      mine = bufs_.back().get();
    }
    return *mine;
  }

  bool on_ = false;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;  // guarded by mu_
};

SpanLog g_spans;

/// Scoped span; a no-op while spans are off.
class Span {
 public:
  Span(const char* name, std::uint64_t parent)
      : name_(name), parent_(parent), id_(g_spans.open()) {
    if (id_ != 0) begin_ = Clock::now();
  }
  ~Span() { g_spans.close(name_, id_, parent_, begin_, Clock::now()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  Clock::time_point begin_{};
};

// ---- Phase boundaries, stamped by the wraps ---------------------------------

struct Phases {
  Clock::time_point start;  ///< main() entry: the point's process start
  Clock::time_point run_begin;
  Clock::time_point run_end;
  Clock::time_point snap_begin;
  Clock::time_point snap_end;
  double rss_run_begin_mb = 0;
  int runs = 0;
  int snapshots = 0;
  /// The main thread's BufPool over the run: all of it at K=1, shard 0's
  /// share otherwise (each shard thread has its own pool).
  std::uint64_t bufpool_hits = 0;
  std::uint64_t bufpool_misses = 0;
  std::uint64_t run_span = 0;      ///< parent of the pingpong body's spans
  std::uint64_t point_span = 0;
  sim::ShardProfiler* profiler = nullptr;  ///< attached to every run when traced
};

Phases g_phases;

}  // namespace

// The linker resolves every call to the two Cluster members, the library's
// own included, to these; __real_ names the original definitions. The free
// functions take `this` as their first parameter, which is how the Itanium
// ABI passes it.
cni::sim::SimTime real_cluster_run(cni::cluster::Cluster* self, RunBody body) asm(
    "__real__ZN3cni7cluster7Cluster3runENS_4util11FunctionRefIFvmRNS_3sim9SimThreadEEEE");
cni::sim::SimTime wrap_cluster_run(cni::cluster::Cluster* self, RunBody body) asm(
    "__wrap__ZN3cni7cluster7Cluster3runENS_4util11FunctionRefIFvmRNS_3sim9SimThreadEEEE");
cni::obs::Snapshot real_cluster_snapshot(const cni::cluster::Cluster* self) asm(
    "__real__ZNK3cni7cluster7Cluster8snapshotEv");
cni::obs::Snapshot wrap_cluster_snapshot(const cni::cluster::Cluster* self) asm(
    "__wrap__ZNK3cni7cluster7Cluster8snapshotEv");

cni::sim::SimTime wrap_cluster_run(cni::cluster::Cluster* self, RunBody body) {
  g_phases.rss_run_begin_mb = current_rss_mb();
  if (g_phases.profiler != nullptr) self->set_shard_profiler(g_phases.profiler);
  g_phases.run_span = g_spans.open();
  const cni::util::BufPool::Stats pool0 = cni::util::BufPool::local().stats();
  g_phases.run_begin = Clock::now();
  const cni::sim::SimTime elapsed = real_cluster_run(self, body);
  g_phases.run_end = Clock::now();
  const cni::util::BufPool::Stats pool1 = cni::util::BufPool::local().stats();
  g_phases.bufpool_hits = pool1.hits - pool0.hits;
  g_phases.bufpool_misses = pool1.misses - pool0.misses;
  g_spans.close("run", g_phases.run_span, g_phases.point_span, g_phases.run_begin,
                g_phases.run_end);
  ++g_phases.runs;
  return elapsed;
}

cni::obs::Snapshot wrap_cluster_snapshot(const cni::cluster::Cluster* self) {
  const Span span("snapshot", g_phases.point_span);
  g_phases.snap_begin = Clock::now();
  cni::obs::Snapshot snap = real_cluster_snapshot(self);
  g_phases.snap_end = Clock::now();
  ++g_phases.snapshots;
  return snap;
}

namespace {

// ---- Running one point -----------------------------------------------------

struct Outcome {
  sim::SimTime elapsed = 0;
  sim::NodeStats totals;
  sim::EpochStats epochs;
  obs::Snapshot snapshot;
  double checksum = 0;
  std::uint64_t replies = 0;
  std::uint64_t expected_replies = 0;
};

Outcome from_result(apps::RunResult&& r, double checksum) {
  Outcome o;
  o.elapsed = r.elapsed;
  o.totals = r.totals;
  o.epochs = r.parsim;
  o.snapshot = std::move(r.snapshot);
  o.checksum = checksum;
  return o;
}

/// 1024 nodes in pairs (a partner in the same shard) exchange request/reply
/// frames; the request is serviced by a handler on the partner's board.
Outcome run_pingpong(const cluster::SimParams& params, std::uint64_t seed,
                     std::uint64_t setup_span) {
  const std::uint32_t nodes = params.processors;
  Outcome o;
  std::optional<Span> build(std::in_place, "cluster.build", setup_span);
  auto cl = std::make_unique<cluster::Cluster>(params);
  build.reset();

  std::vector<std::unique_ptr<sim::SimChannel<atm::Frame>>> inboxes(nodes);
  {
    const Span install("handler.install", setup_span);
    for (std::uint32_t n = 0; n < nodes; ++n) {
      cluster::Cluster& c = *cl;
      c.node(n).board().install_handler(
          kPing,
          [&c, n](nic::NicBoard::RxContext& ctx, const atm::Frame& f) {
            ctx.charge(120);
            const nic::MsgHeader in = f.header<nic::MsgHeader>();
            nic::MsgHeader h;
            h.type = kPong;
            h.src_node = n;
            h.seq = c.node(n).board().next_seq();
            h.aux = in.aux + 1;
            ctx.send(atm::Frame::make(n, in.src_node, 1, h), {});
          },
          /*code_bytes=*/2048);
      inboxes[n] = std::make_unique<sim::SimChannel<atm::Frame>>();
      c.node(n).board().bind_channel(kPong, inboxes[n].get());
    }
  }

  // Each node writes only its own slot.
  std::vector<std::uint64_t> replies(nodes, 0);
  o.elapsed = cl->run([&](std::size_t i, sim::SimThread& t) {
    const auto self = static_cast<std::uint32_t>(i);
    const std::uint32_t partner = self ^ 1u;
    cluster::Node& node = cl->node(i);
    for (std::uint32_t k = 0; k < kPingpongRounds; ++k) {
      const bool sampled = g_spans.on() && k % kSpanSample == 0;
      const std::uint64_t parent = sampled ? g_phases.run_span : 0;
      {
        std::optional<Span> s;
        if (sampled) s.emplace("compute", parent);
        // Seeded per-(node, round) jitter decorrelates the round trips.
        node.cpu().compute(500 + mix(seed, self, k) % 4096);
        node.cpu().sync(t);
      }
      nic::MsgHeader h;
      h.type = kPing;
      h.src_node = self;
      h.seq = node.board().next_seq();
      h.aux = k;
      {
        std::optional<Span> s;
        if (sampled) s.emplace("send_from_host", parent);
        node.board().send_from_host(t, atm::Frame::make(self, partner, 1, h), {});
      }
      std::optional<Span> s;
      if (sampled) s.emplace("receive_app", parent);
      const atm::Frame reply = node.board().receive_app(t, *inboxes[i]);
      const nic::MsgHeader r = reply.header<nic::MsgHeader>();
      if (r.type == kPong && r.src_node == partner && r.aux == k + 1) ++replies[i];
    }
  });
  for (const std::uint64_t r : replies) o.replies += r;
  o.expected_replies = static_cast<std::uint64_t>(nodes) * kPingpongRounds;
  o.totals = cl->stats().total();
  o.epochs = cl->epoch_stats();
  o.snapshot = cl->snapshot();
  cl.reset();
  inboxes.clear();
  return o;
}

Outcome run_point(const Workload& w, const cluster::SimParams& params, std::uint64_t seed,
                  std::uint64_t setup_span) {
  double checksum = 0;
  switch (w.kind) {
    case Kind::kJacobi: {
      apps::RunResult r = apps::run_jacobi(params, kJacobi, &checksum);
      return from_result(std::move(r), checksum);
    }
    case Kind::kWater: {
      apps::RunResult r = apps::run_water(params, kWater, &checksum);
      return from_result(std::move(r), checksum);
    }
    case Kind::kPingpong:
      return run_pingpong(params, seed, setup_span);
  }
  return {};
}

// ---- Output ----------------------------------------------------------------

class Json {
 public:
  Json() { out_ = "{"; }
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    raw(key, buf);
  }
  void u64(const char* key, std::uint64_t v) { raw(key, std::to_string(v)); }
  void str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        q += '\\';
        q += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        q += ' ';
      } else {
        q += c;
      }
    }
    raw(key, q + "\"");
  }
  void raw(const char* key, const std::string& v) {
    if (out_.size() > 1) out_ += ", ";
    out_ += "\"";
    out_ += key;
    out_ += "\": ";
    out_ += v;
  }
  std::string done() { return out_ + "}"; }

 private:
  std::string out_;
};

std::uint64_t median_of(std::vector<std::uint64_t> v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

struct HistSummary {
  std::uint64_t p50 = 0;  ///< median over nodes of each node's p50
  std::uint64_t p99 = 0;  ///< worst node's p99
};

/// Per-node histograms cannot be merged from their snapshots, so summarize
/// them: median node p50, worst node p99 (nodes with samples only).
HistSummary summarize_hist(const obs::Snapshot& snap, const char* name) {
  std::vector<std::uint64_t> p50s;
  HistSummary s;
  for (const obs::NodeSnapshot& n : snap.nodes) {
    for (const obs::HistSnapshot& h : n.hists) {
      if (h.name != name || h.count == 0) continue;
      p50s.push_back(h.p50);
      s.p99 = std::max(s.p99, h.p99);
    }
  }
  s.p50 = median_of(std::move(p50s));
  return s;
}

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

/// Every CNI_* variable changes a process-wide default that a SimParams or
/// DsmParams picks up; the workload pins all of them itself.
void clear_cni_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("CNI_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

/// Build context, printed with every result.
void describe_build(Json& j) {
#if defined(__clang__)
  j.str("compiler", "clang " __clang_version__);
#else
  j.str("compiler", "gcc " __VERSION__);
#endif
  j.str("build_type", CNI_PERFBENCH_BUILD_TYPE);
}

int fail(const std::string& why) {
  Json j;
  j.raw("ok", "false");
  describe_build(j);
  j.str("error", why);
  std::printf("%s\n", j.done().c_str());
  return 1;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || text[0] == '-') return false;
  out = v;
  return true;
}

/// --probe: construction and destruction of each layer, with nothing run.
int probe(const Workload& w, const cluster::SimParams& params) {
  const double rss0 = current_rss_mb();
  const Clock::time_point t0 = Clock::now();
  auto cl = std::make_unique<cluster::Cluster>(params);
  const Clock::time_point t1 = Clock::now();
  const double rss1 = current_rss_mb();
  // Pingpong has no DSM: its dsm_build_s reads 0.
  const bool with_dsm = w.kind != Kind::kPingpong;
  std::unique_ptr<dsm::DsmSystem> dsmsys;
  if (with_dsm) dsmsys = std::make_unique<dsm::DsmSystem>(*cl);
  const Clock::time_point t2 = with_dsm ? Clock::now() : t1;
  dsmsys.reset();
  cl.reset();
  const Clock::time_point t3 = Clock::now();
  Json j;
  j.raw("ok", "true");
  describe_build(j);
  j.str("workload", w.name);
  j.num("cluster_build_s", seconds(t0, t1));
  j.num("cluster_build_rss_mb", rss1 - rss0);
  j.num("dsm_build_s", seconds(t1, t2));
  j.num("cluster_teardown_s", seconds(t2, t3));
  std::printf("%s\n", j.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  g_phases.start = Clock::now();
  clear_cni_environment();
  cluster::set_default_collective(cluster::CollectiveMode::kHost);

  const char* workload_name = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  std::optional<std::uint32_t> shards;
  const char* spans_path = nullptr;
  bool obs_trace = false;
  bool probe_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (a == "--seed" && has_value) {
      if (!parse_u64(argv[++i], seed)) return fail("--seed must be a whole number");
      have_seed = true;
    } else if (a == "--shards" && has_value) {
      std::uint64_t k = 0;
      if (!parse_u64(argv[++i], k) || k < 1 || k > 64) {
        return fail("--shards must be in [1, 64]");
      }
      shards = static_cast<std::uint32_t>(k);
    } else if (a == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (a == "--obs-trace") {
      obs_trace = true;
    } else if (a == "--probe") {
      probe_only = true;
    } else {
      return fail("unknown argument: " + a);
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload_name != nullptr && std::strcmp(workload_name, cand.name) == 0) w = &cand;
  }
  if (w == nullptr) return fail("--workload must name a known workload");
  if (!have_seed) return fail("--seed is required");

  const std::uint32_t k = shards.value_or(w->shards);
  const cluster::SimParams params = point_params(*w, seed, k, obs_trace);
  if (probe_only) return probe(*w, params);

  sim::ShardProfiler profiler;
  if (spans_path != nullptr) {
    g_spans.enable();
    g_phases.profiler = &profiler;
  }
  g_phases.point_span = g_spans.open();
  const std::uint64_t setup_span = g_spans.open();

  Outcome o;
  try {
    o = run_point(*w, params, seed, setup_span);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  const Clock::time_point done = Clock::now();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  if (g_phases.runs != 1 || g_phases.snapshots != 1) {
    return fail("expected one Cluster::run and one Cluster::snapshot per point");
  }
  g_spans.close("setup", setup_span, g_phases.point_span, g_phases.start, g_phases.run_begin);
  g_spans.close("teardown", g_spans.open(), g_phases.point_span, g_phases.snap_end, done);
  g_spans.close("point", g_phases.point_span, 0, g_phases.start, done);

  // The serial reference runs after the measured window.
  double reference = 0;
  {
    const Span check("reference", 0);
    if (w->kind == Kind::kJacobi) reference = apps::jacobi_reference_checksum(kJacobi);
    if (w->kind == Kind::kWater) reference = apps::water_reference_checksum(kWater);
  }

  Json j;
  j.raw("ok", "true");
  j.str("workload", w->name);
  j.u64("seed", seed);
  j.u64("shards", k);
  j.u64("nodes", w->nodes);
  j.raw("obs_trace", obs_trace ? "true" : "false");
  j.raw("traced", spans_path != nullptr ? "true" : "false");
  describe_build(j);
  j.u64("sim_ps", o.elapsed);
  j.num("setup_s", seconds(g_phases.start, g_phases.run_begin));
  j.num("run_s", seconds(g_phases.run_begin, g_phases.run_end));
  j.num("snapshot_s", seconds(g_phases.snap_begin, g_phases.snap_end));
  j.num("teardown_s", seconds(g_phases.snap_end, done));
  j.num("wall_s", seconds(g_phases.start, done));
  j.num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  j.num("rss_run_begin_mb", g_phases.rss_run_begin_mb);
  j.num("user_s", timeval_s(ru.ru_utime));
  j.num("sys_s", timeval_s(ru.ru_stime));
  j.u64("minor_faults", static_cast<std::uint64_t>(ru.ru_minflt));

  std::string counters = "{";
  for (const sim::NodeStats::Field& f : sim::NodeStats::fields()) {
    if (counters.size() > 1) counters += ", ";
    counters += "\"" + std::string(f.name) + "\": " + std::to_string(o.totals.*f.member);
  }
  j.raw("counters", counters + "}");
  j.u64("epochs", o.epochs.epochs);
  j.u64("events", o.epochs.events_total);
  j.u64("critical_path_events", o.epochs.critical_path_events);
  j.u64("fused_epochs", o.epochs.fused_epochs);
  j.u64("epoch_barriers", o.epochs.barriers);
  const HistSummary fault = summarize_hist(o.snapshot, "dsm.fault_latency_ps");
  const HistSummary tx_wait = summarize_hist(o.snapshot, "adc.tx_wait_ps");
  j.u64("fault_latency_p50_ps", fault.p50);
  j.u64("fault_latency_p99_ps", fault.p99);
  j.u64("adc_tx_wait_p99_ps", tx_wait.p99);
  j.u64("bufpool_hits", g_phases.bufpool_hits);
  j.u64("bufpool_misses", g_phases.bufpool_misses);

  if (w->kind == Kind::kPingpong) {
    j.u64("replies", o.replies);
    j.u64("expected_replies", o.expected_replies);
  } else {
    j.num("checksum", o.checksum);
    j.num("reference", reference);
  }
  if (profiler.enabled()) {
    std::string prof = "[";
    for (const sim::ShardProfile& p : profiler.profiles()) {
      if (prof.size() > 1) prof += ", ";
      std::string row = "{";
      for (std::size_t ph = 0; ph < sim::kShardPhaseCount; ++ph) {
        if (row.size() > 1) row += ", ";
        row += "\"" + std::string(sim::shard_phase_name(static_cast<sim::ShardPhase>(ph))) +
               "\": " + std::to_string(p.ns[ph]);
      }
      prof += row + "}";
    }
    j.raw("shard_ns", prof + "]");
  }
  if (spans_path != nullptr) {
    j.u64("send_ns_p50", median_of(g_spans.durations_ns("send_from_host")));
    if (!g_spans.write(spans_path, g_phases.start)) {
      return fail(std::string("cannot write spans to ") + spans_path);
    }
  }
  std::printf("%s\n", j.done().c_str());
  return 0;
}
