#include "atm/topology.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"

namespace cni::atm {

namespace {

/// Process-wide fabric-shape defaults (see set_default_fabric_shape): written
/// once at startup before any SimParams is built, read-only afterwards.
TopologyKind g_default_topology = TopologyKind::kBanyan;
std::uint32_t g_default_ports = 32;

std::uint32_t log2_pow2(std::uint32_t v) {
  std::uint32_t bits = 0;
  for (std::uint32_t p = v; p > 1; p >>= 1) ++bits;
  return bits;
}

}  // namespace

const char* topology_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kBanyan: return "banyan";
    case TopologyKind::kClos: return "clos";
    case TopologyKind::kTorus: return "torus";
  }
  return "?";
}

bool parse_topology(const char* text, TopologyKind& out) {
  for (TopologyKind k : {TopologyKind::kBanyan, TopologyKind::kClos, TopologyKind::kTorus}) {
    if (std::strcmp(text, topology_name(k)) == 0) {
      out = k;
      return true;
    }
  }
  return false;
}

TopologyKind default_topology() { return g_default_topology; }
std::uint32_t default_switch_ports() { return g_default_ports; }

void set_default_fabric_shape(TopologyKind kind, std::uint32_t ports) {
  CNI_CHECK_MSG(util::is_pow2(ports), "fabric port count must be a power of two");
  g_default_topology = kind;
  g_default_ports = ports;
}

// ---- CreditLink ----

void CreditLink::configure(std::uint32_t credits, sim::SimDuration latency) {
  CNI_CHECK(credits >= 1);
  latency_ = latency;
  ring_.assign(credits, 0);
}

sim::SimTime CreditLink::traverse(sim::SimTime head, sim::SimDuration burst,
                                  sim::SimDuration& queued, RouteTrace* rt) {
  CNI_DCHECK(!ring_.empty());
  // The burst may start once the wire is idle *and* the buffer slot taken
  // `credits` bursts ago has drained at the far end (its tail arrived).
  const std::size_t slot = sent_ % ring_.size();
  sim::SimTime start = head;
  if (busy_until_ > start) start = busy_until_;
  const sim::SimTime wire_free = start;  // wait so far is the busy wire
  if (ring_[slot] > start) start = ring_[slot];
  queued += start - head;
  if (rt != nullptr) {
    rt->contend += wire_free - head;
    rt->credit += start - wire_free;
    rt->wire += latency_;
    ++rt->hops;
  }
  busy_until_ = start + burst;
  ring_[slot] = start + burst + latency_;
  ++sent_;
  return start + latency_;
}

// ---- SingleStageTopology ----

SingleStageTopology::SingleStageTopology(std::uint32_t ports,
                                         sim::SimDuration switch_latency)
    : Topology(ports), switch_(ports, switch_latency) {}

sim::SimTime SingleStageTopology::route(sim::SimTime head, NodeId src, NodeId dst,
                                        sim::SimDuration burst, std::uint32_t lane,
                                        RouteTrace* rt) {
  const sim::SimTime out = switch_.route(head, src, dst, burst, lane);
  if (rt != nullptr) {
    // One traversal of the shared pipeline: everything beyond the switch's
    // own latency is contention with earlier bursts. An uncontended route
    // can come in a few picoseconds under the nominal latency (the per-stage
    // cut-through divides it by the stage count), so clamp to the actual
    // delay — the breakdown must sum to it exactly, never past it.
    const sim::SimDuration delay = out - head;
    const sim::SimDuration pipe = std::min(delay, switch_.latency());
    rt->wire += pipe;
    rt->contend += delay - pipe;
    ++rt->hops;
  }
  return out;
}

sim::SimDuration SingleStageTopology::min_latency(NodeId src, NodeId dst) const {
  (void)src;
  (void)dst;
  return min_cross_latency();
}

sim::SimDuration SingleStageTopology::min_cross_latency() const {
  return switch_.latency();
}

bool SingleStageTopology::concurrent_local_routing(const sim::ShardPlan& plan) const {
  // Aligned power-of-two blocks make intra-block butterfly paths of
  // different blocks resource-disjoint at every stage (sim::ShardPlan's
  // aligned() doc carries the argument).
  return plan.aligned();
}

// ---- ClosTopology ----

ClosTopology::ClosTopology(std::uint32_t ports, std::uint32_t radix, std::uint32_t credits,
                           sim::SimDuration switch_latency, sim::SimDuration propagation)
    : Topology(ports), switch_latency_(switch_latency), propagation_(propagation) {
  CNI_CHECK_MSG(util::is_pow2(ports) && ports >= 2,
                "clos port count must be a power of two >= 2");
  CNI_CHECK_MSG(util::is_pow2(radix) && radix >= 4,
                "clos radix must be a power of two >= 4");
  down_ = radix / 2;
  down_bits_ = log2_pow2(down_);
  tiers_ = 1;
  while ((static_cast<std::uint64_t>(down_bits_) * tiers_ < 32) &&
         (1ull << (static_cast<std::uint64_t>(down_bits_) * tiers_)) < ports) {
    ++tiers_;
  }
  blocks_.resize(tiers_);
  for (std::uint32_t t = 0; t < tiers_; ++t) {
    const std::uint32_t n = tier_switches(t);
    blocks_[t].reserve(n);
    for (std::uint32_t s = 0; s < n; ++s) blocks_[t].emplace_back(radix, switch_latency_);
  }
  if (tiers_ > 1) {
    up_links_.resize(tiers_ - 1);
    down_links_.resize(tiers_ - 1);
    for (std::uint32_t t = 0; t + 1 < tiers_; ++t) {
      up_links_[t].resize(static_cast<std::size_t>(tier_switches(t)) * down_);
      down_links_[t].resize(static_cast<std::size_t>(tier_switches(t + 1)) * down_);
      for (CreditLink& l : up_links_[t]) l.configure(credits, propagation_);
      for (CreditLink& l : down_links_[t]) l.configure(credits, propagation_);
    }
  }
}

std::uint32_t ClosTopology::tier_switches(std::uint32_t tier) const {
  // Groups of d^(tier+1) hosts, d^tier switches per group; a pruned top
  // tier (ports not a power of the arity) keeps one partial group.
  const std::uint64_t span = 1ull << (static_cast<std::uint64_t>(down_bits_) * (tier + 1));
  const std::uint64_t groups = (ports_ + span - 1) / span;
  return static_cast<std::uint32_t>(groups << (static_cast<std::uint64_t>(down_bits_) * tier));
}

std::uint32_t ClosTopology::ancestor_tier(NodeId a, NodeId b) const {
  std::uint32_t h = 0;
  while (h + 1 < tiers_ && (a >> ((h + 1) * down_bits_)) != (b >> ((h + 1) * down_bits_))) {
    ++h;
  }
  return h;
}

std::uint32_t ClosTopology::route_switch(std::uint32_t tier, NodeId a, NodeId b) const {
  // Ascent switch at `tier` for the a -> b route: a's group at that height,
  // offset by b's low digits (the up-port choices already taken).
  const std::uint32_t group = a >> ((tier + 1) * down_bits_);
  const std::uint32_t offset = b & ((1u << (tier * down_bits_)) - 1u);
  return (group << (tier * down_bits_)) + offset;
}

sim::SimTime ClosTopology::route(sim::SimTime head, NodeId src, NodeId dst,
                                 sim::SimDuration burst, std::uint32_t lane,
                                 RouteTrace* rt) {
  CNI_CHECK(src < ports_ && dst < ports_);
  CNI_DCHECK(lane < tallies_.size());
  Tally& tally = tallies_[lane];
  ++tally.bursts;
  sim::SimDuration queued = 0;
  const std::uint32_t h = ancestor_tier(src, dst);
  // A block traversal beyond the switch pipeline latency is contention.
  const auto block_route = [&](BanyanSwitch& b, std::uint32_t in, std::uint32_t out) {
    const sim::SimTime t0 = head;
    head = b.route(head, in, out, burst, lane);
    if (rt != nullptr) {
      // Same clamp as SingleStageTopology::route: the block's cut-through
      // stages can undercut the nominal latency by rounding, and contention
      // must never go negative.
      const sim::SimDuration delay = head - t0;
      const sim::SimDuration pipe = std::min(delay, switch_latency_);
      rt->wire += pipe;
      rt->contend += delay - pipe;
      ++rt->hops;
    }
  };
  // Ascend: enter tier t on down-port digit_t(src), leave on the up-port
  // matching dst's digit — deterministic, and it lands the descent on the
  // switch whose low offset is exactly dst's low digits.
  for (std::uint32_t t = 0; t < h; ++t) {
    const std::uint32_t s = route_switch(t, src, dst);
    const std::uint32_t u = digit(dst, t);
    block_route(blocks_[t][s], digit(src, t), down_ + u);
    head = up_links_[t][static_cast<std::size_t>(s) * down_ + u].traverse(head, burst,
                                                                          queued, rt);
  }
  // Turn around in the nearest common ancestor (the whole route when src and
  // dst share a leaf): down-port to down-port.
  block_route(blocks_[h][route_switch(h, src, dst)], digit(src, h), digit(dst, h));
  // Descend along dst's digits: arrive on the up-port and leave on the
  // down-port that both carry digit_t(dst).
  for (std::uint32_t t = h; t >= 1; --t) {
    const std::uint32_t parent = route_switch(t, dst, dst);
    head = down_links_[t - 1][static_cast<std::size_t>(parent) * down_ + digit(dst, t)]
               .traverse(head, burst, queued, rt);
    const std::uint32_t child = route_switch(t - 1, dst, dst);
    block_route(blocks_[t - 1][child], down_ + digit(dst, t - 1), digit(dst, t - 1));
  }
  tally.queued += queued;
  return head;
}

sim::SimDuration ClosTopology::min_latency(NodeId src, NodeId dst) const {
  const std::uint32_t h = ancestor_tier(src, dst);
  return (2 * h + 1) * switch_latency_ + 2 * h * propagation_;
}

sim::SimDuration ClosTopology::min_cross_latency() const {
  // Two distinct hosts always share leaf 0 (down_ >= 2): one block traversal.
  return switch_latency_;
}

bool ClosTopology::concurrent_local_routing(const sim::ShardPlan& plan) const {
  // An aligned power-of-two block no larger than a leaf stays inside one
  // leaf switch, where the single-stage butterfly-disjointness argument
  // applies verbatim; larger blocks would share inner switches and links.
  return plan.aligned() && plan.nodes / plan.shards <= down_;
}

void ClosTopology::set_lanes(std::uint32_t n) {
  CNI_CHECK(n >= 1);
  if (n > tallies_.size()) tallies_.resize(n);
  for (std::vector<BanyanSwitch>& tier : blocks_) {
    for (BanyanSwitch& b : tier) b.set_lanes(n);
  }
}

sim::SimDuration ClosTopology::contention_time() const {
  sim::SimDuration total = 0;
  for (const Tally& t : tallies_) total += t.queued;
  for (const std::vector<BanyanSwitch>& tier : blocks_) {
    for (const BanyanSwitch& b : tier) total += b.contention_time();
  }
  return total;
}

std::uint64_t ClosTopology::bursts_routed() const {
  std::uint64_t total = 0;
  for (const Tally& t : tallies_) total += t.bursts;
  return total;
}

// ---- TorusTopology ----

TorusTopology::TorusTopology(std::uint32_t ports, std::uint32_t credits,
                             sim::SimDuration hop_latency, sim::SimDuration propagation)
    : Topology(ports), hop_cost_(hop_latency + propagation) {
  CNI_CHECK_MSG(util::is_pow2(ports) && ports >= 2,
                "torus port count must be a power of two >= 2");
  // Balanced power-of-two factorization, largest dimension first.
  const std::uint32_t e = log2_pow2(ports);
  x_bits_ = (e + 2) / 3;
  y_bits_ = (e - x_bits_ + 1) / 2;
  const std::uint32_t z_bits = e - x_bits_ - y_bits_;
  dims_ = {1u << x_bits_, 1u << y_bits_, 1u << z_bits};
  links_.resize(static_cast<std::size_t>(ports) * 6);
  for (CreditLink& l : links_) l.configure(credits, hop_cost_);
}

TorusTopology::Dims TorusTopology::coords(NodeId node) const {
  Dims c;
  c.x = node & (dims_.x - 1);
  c.y = (node >> x_bits_) & (dims_.y - 1);
  c.z = node >> (x_bits_ + y_bits_);
  return c;
}

std::int32_t TorusTopology::wrap_delta(std::uint32_t from, std::uint32_t to,
                                       std::uint32_t size) {
  const std::uint32_t fwd = (to + size - from) % size;
  if (fwd == 0) return 0;
  // Ties (fwd == size/2) go the positive way.
  return fwd <= size - fwd ? static_cast<std::int32_t>(fwd)
                           : -static_cast<std::int32_t>(size - fwd);
}

std::uint32_t TorusTopology::hops(NodeId a, NodeId b) const {
  const Dims ca = coords(a);
  const Dims cb = coords(b);
  const std::int32_t dx = wrap_delta(ca.x, cb.x, dims_.x);
  const std::int32_t dy = wrap_delta(ca.y, cb.y, dims_.y);
  const std::int32_t dz = wrap_delta(ca.z, cb.z, dims_.z);
  return static_cast<std::uint32_t>((dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy) +
                                    (dz < 0 ? -dz : dz));
}

sim::SimTime TorusTopology::route(sim::SimTime head, NodeId src, NodeId dst,
                                  sim::SimDuration burst, std::uint32_t lane,
                                  RouteTrace* rt) {
  CNI_CHECK(src < ports_ && dst < ports_);
  CNI_DCHECK(lane < tallies_.size());
  Tally& tally = tallies_[lane];
  ++tally.bursts;
  sim::SimDuration queued = 0;
  Dims cur = coords(src);
  const Dims to = coords(dst);
  const std::uint32_t sizes[3] = {dims_.x, dims_.y, dims_.z};
  std::uint32_t* axis[3] = {&cur.x, &cur.y, &cur.z};
  const std::uint32_t target[3] = {to.x, to.y, to.z};
  for (std::uint32_t dim = 0; dim < 3; ++dim) {
    std::int32_t delta = wrap_delta(*axis[dim], target[dim], sizes[dim]);
    while (delta != 0) {
      const bool neg = delta < 0;
      const NodeId here = (cur.z << (x_bits_ + y_bits_)) | (cur.y << x_bits_) | cur.x;
      head = links_[static_cast<std::size_t>(here) * 6 + dim * 2 + (neg ? 1 : 0)]
                 .traverse(head, burst, queued, rt);
      const std::uint32_t size = sizes[dim];
      *axis[dim] = neg ? (*axis[dim] + size - 1) % size : (*axis[dim] + 1) % size;
      delta += neg ? 1 : -1;
    }
  }
  tally.queued += queued;
  return head;
}

sim::SimDuration TorusTopology::min_latency(NodeId src, NodeId dst) const {
  return hops(src, dst) * hop_cost_;
}

sim::SimDuration TorusTopology::min_cross_latency() const { return hop_cost_; }

bool TorusTopology::concurrent_local_routing(const sim::ShardPlan& plan) const {
  // Whole-z-slab blocks: every dimension-order route between two slab nodes
  // stays inside the slab (x/y legs never leave the plane; the z leg of a
  // contiguous slab of height <= Z/2 never takes the wrap path), so slabs
  // touch disjoint links. Requires the id space to cover the full torus.
  return plan.aligned() && plan.nodes == ports_ &&
         (plan.nodes / plan.shards) % (dims_.x * dims_.y) == 0;
}

void TorusTopology::set_lanes(std::uint32_t n) {
  CNI_CHECK(n >= 1);
  if (n > tallies_.size()) tallies_.resize(n);
}

sim::SimDuration TorusTopology::contention_time() const {
  sim::SimDuration total = 0;
  for (const Tally& t : tallies_) total += t.queued;
  return total;
}

std::uint64_t TorusTopology::bursts_routed() const {
  std::uint64_t total = 0;
  for (const Tally& t : tallies_) total += t.bursts;
  return total;
}

// ---- Factory ----

std::unique_ptr<Topology> make_topology(const FabricParams& params) {
  CNI_CHECK_MSG(util::is_pow2(params.switch_ports),
                "fabric port count must be a power of two");
  switch (params.topology) {
    case TopologyKind::kBanyan:
      return std::make_unique<SingleStageTopology>(params.switch_ports,
                                                   params.switch_latency);
    case TopologyKind::kClos:
      return std::make_unique<ClosTopology>(params.switch_ports, params.clos_radix,
                                            params.link_credits, params.switch_latency,
                                            params.propagation);
    case TopologyKind::kTorus:
      return std::make_unique<TorusTopology>(params.switch_ports, params.link_credits,
                                             params.torus_hop_latency,
                                             params.propagation);
  }
  CNI_CHECK_MSG(false, "unknown topology kind");
  return nullptr;
}

}  // namespace cni::atm
