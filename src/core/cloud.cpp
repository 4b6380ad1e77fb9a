#include "core/cloud.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "obs/profiler.hpp"

namespace stopwatch::core {

namespace {

/// Boundary validation of the whole configuration, before any wiring: a
/// bad replica/machine combination should explain itself here instead of
/// failing deep inside group or shard construction.
void validate(const CloudConfig& cfg) {
  SW_EXPECTS_MSG(cfg.machine_count >= 1,
                 "CloudConfig.machine_count must be >= 1 (got " +
                     std::to_string(cfg.machine_count) + ")");
  // make_policy validates the per-policy knobs (including the "replica
  // knobs on a non-replicated backend" contract); the replica/machine
  // combination check is the policy capability's job.
  hypervisor::make_policy(cfg.policy)
      ->validate_replicas("CloudConfig", cfg.replica_count, cfg.machine_count);
  SW_EXPECTS_MSG(cfg.shard_size >= 1,
                 "CloudConfig.shard_size must be >= 1 (got " +
                     std::to_string(cfg.shard_size) + ")");
  SW_EXPECTS_MSG(cfg.clock_offset_spread.ns >= 0,
                 "CloudConfig.clock_offset_spread must be >= 0 (got " +
                     std::to_string(cfg.clock_offset_spread.ns) + " ns)");
  // The guest template reaches a GuestContext only when a VM is wired, at
  // activation, after every add_vm.
  const hypervisor::GuestContextConfig& guest = cfg.guest_template;
  SW_EXPECTS_MSG(guest.exit_interval_instr >= 1'000,
                 "CloudConfig.guest_template.exit_interval_instr must be >= "
                 "1000 (got " +
                     std::to_string(guest.exit_interval_instr) + ")");
  SW_EXPECTS_MSG(guest.timer_period.ns > 0,
                 "CloudConfig.guest_template.timer_period must be > 0 (got " +
                     std::to_string(guest.timer_period.ns) + " ns)");
  SW_EXPECTS_MSG(guest.initial_slope > 0.0,
                 "CloudConfig.guest_template.initial_slope must be > 0 (got " +
                     std::to_string(guest.initial_slope) + ")");
}

/// Validates the shard knob before the kernel is constructed (the sharded
/// kernel is a constructor-initialized member, so this runs first).
sim::ShardedConfig sharded_config(const CloudConfig& cfg) {
  SW_EXPECTS_MSG(cfg.sim_shards >= 1,
                 "CloudConfig.sim_shards must be >= 1 (got " +
                     std::to_string(cfg.sim_shards) + ")");
  sim::ShardedConfig sc;
  sc.shards = cfg.sim_shards;
  if (sc.shards > 1) {
    // The plan's last shard hosts only egress and the clients, so with
    // one thread fewer than shards it rides on the calling thread beside
    // core 0 (core s runs on thread s mod T) instead of keeping a whole
    // worker spinning for it.
    const auto wanted = static_cast<std::size_t>(sc.shards - 1);
    const std::size_t host = std::thread::hardware_concurrency();
    sc.threads = host == 0 ? wanted : std::min(wanted, host);
  }
  return sc;
}

topology::TopologyConfig topology_config(const CloudConfig& cfg) {
  topology::TopologyConfig tc;
  tc.seed = cfg.seed;
  tc.policy = cfg.policy;
  tc.replica_count = cfg.replica_count;
  tc.machine_count = cfg.machine_count;
  tc.shard_size = cfg.shard_size;
  tc.machine_template = cfg.machine_template;
  tc.guest_template = cfg.guest_template;
  tc.clock_offset_spread = cfg.clock_offset_spread;
  return tc;
}

}  // namespace

Cloud::Cloud(CloudConfig cfg)
    : cfg_(cfg),
      root_rng_(cfg.seed),
      sharded_(sharded_config(cfg)),
      net_(sharded_.shard(0), root_rng_.fork(0xF00D)) {
  validate(cfg_);
  net_.attach_sharded(sharded_);
  net_.set_default_link(cfg_.cloud_link);
  topo_ = std::make_unique<topology::TopologyBuilder>(sharded_, net_,
                                                     topology_config(cfg_));
  // Histograms exist up front (worker threads record into them); counters
  // are copied in at observability() time.
  net_.set_bytes_histogram(registry_.histogram("net.frame_bytes"));
  sharded_.set_merge_histogram(registry_.histogram("sharded.merge_batch"));
  topo_->set_egress_latency_series(&egress_series_);
  if (obs::TraceRecorder* trace = obs::active_trace()) {
    // Execution-machinery tracks are inherently shard-dependent, so they
    // carry Category::kParallel and stay out of the default export.
    for (int s = 0; s < sharded_.shard_count(); ++s) {
      std::string tname = "core-";
      tname += std::to_string(s);
      obs::TraceTrack* track =
          trace->track(900 + static_cast<std::uint32_t>(s), 0, "sim-kernel",
                       std::move(tname), obs::Category::kParallel);
      sharded_.shard(s).set_trace_track(track);
    }
    if (sharded_.shard_count() > 1) {
      barrier_track_ = trace->track(800, 0, "parallel", "barriers",
                                    obs::Category::kParallel);
      sharded_.set_barrier_hook([this](RealTime barrier_time) {
        if (prev_barrier_ns_ >= 0 && barrier_time.ns > prev_barrier_ns_) {
          barrier_track_->complete(prev_barrier_ns_,
                                   barrier_time.ns - prev_barrier_ns_,
                                   "window", "crossed",
                                   sharded_.cross_scheduled());
        }
        prev_barrier_ns_ = barrier_time.ns;
      });
    }
  }
}

VmHandle Cloud::add_vm(std::string name, ProgramFactory factory,
                       const std::vector<int>& machine_indices) {
  return VmHandle{
      topo_->add_vm(std::move(name), std::move(factory), machine_indices)};
}

NodeId Cloud::add_external_node(PacketHandler on_packet) {
  SW_EXPECTS(on_packet != nullptr);
  const NodeId id =
      net_.add_node([cb = std::move(on_packet)](const net::Frame& f) {
        if (const auto* gp = std::get_if<net::GuestPacketPayload>(&f.payload)) {
          cb(gp->pkt);
        }
      });
  // One node-scoped link entry covers this endpoint's traffic with every
  // VM ingress, machine, and the egress — no per-VM fan-out.
  net_.set_node_link(id, cfg_.client_link);
  external_nodes_.push_back(id);
  // Externals live on the driver core (the egress shard once a plan is
  // active): client sends, replies, and the egress release path all stay
  // off the worker cores' critical path.
  if (driver_shard_ != 0) net_.set_node_owner(id, driver_shard_);
  return id;
}

void Cloud::send_external(NodeId from, net::Packet pkt) {
  pkt.src = from;
  net::Frame f;
  f.src = from;
  f.dst = pkt.dst;
  f.size_bytes = pkt.size_bytes;
  f.payload = net::GuestPacketPayload{pkt};
  net_.send(std::move(f));
}

void Cloud::start() {
  SW_EXPECTS(!started_);
  if (!activated_) {
    std::vector<VmHandle> all(topo_->vm_count());
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i].index = static_cast<std::uint32_t>(i);
    }
    activate(all);
  }
  started_ = true;
  topo_->start();
}

void Cloud::activate(const std::vector<VmHandle>& driven) {
  SW_EXPECTS(!activated_ && !started_);
  activated_ = true;
  std::vector<std::uint32_t> indices;
  indices.reserve(driven.size());
  for (const VmHandle vm : driven) indices.push_back(vm.index);
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  std::vector<std::vector<int>> groups;
  groups.reserve(indices.size());
  for (const std::uint32_t vm : indices) {
    const std::span<const int> machines = topo_->vm_machines(vm);
    groups.emplace_back(machines.begin(), machines.end());
  }
  topo_->attach_sharding(
      topology::ShardPlan::build(cfg_.sim_shards, cfg_.machine_count, groups),
      indices);
  // Egress + externals move off core 0 together: the builder re-homed the
  // egress node onto the plan's egress shard, and every external endpoint
  // (plus all future driver scheduling via simulator()) follows it.
  driver_shard_ = topo_->shard_plan().egress_shard();
  for (const NodeId id : external_nodes_) {
    net_.set_node_owner(id, driver_shard_);
  }
  // Per-pair lookahead floors for the barrier windows. The cloud's
  // cross-shard traffic is hub-and-spoke around the egress shard: worker
  // shards reach it over the datacenter fabric (tunneled output to the
  // egress gate) or the client link (direct replies to externals), and it
  // reaches worker shards only through client requests on the client
  // link, whose latency floor is typically an order of magnitude above
  // the fabric's — that asymmetry is what lets worker shards run windows
  // far wider than the uniform floor. Worker shards never exchange
  // traffic with each other: VMs sharing a machine share its shard (the
  // plan union-finds co-resident VMs), so guest traffic can only cross
  // shards via an external endpoint. The per-entry contract still
  // validates every cross event against the granted bound, so a workload
  // that breaks this shape (guest output addressed to a VM on another
  // worker shard) fails loudly and must run with sim_shards=1.
  const int shards = sharded_.shard_count();
  const Duration to_egress = std::min(cfg_.cloud_link.min_latency(),
                                      cfg_.client_link.min_latency());
  const Duration from_egress = cfg_.client_link.min_latency();
  if (shards > 1 && to_egress.ns > 0 && from_egress.ns > 0) {
    for (int s = 0; s < shards; ++s) {
      for (int d = 0; d < shards; ++d) {
        if (s == d) continue;
        if (d == driver_shard_) {
          sharded_.set_lookahead(s, d, to_egress);
        } else if (s == driver_shard_) {
          sharded_.set_lookahead(s, d, from_egress);
        } else {
          sharded_.set_lookahead_unreachable(s, d);
        }
      }
    }
  }
}

void Cloud::run_for(Duration d) {
  OBS_PROF_SCOPE("cloud.run");
  SW_EXPECTS(started_);
  if (sharded_.shard_count() > 1) {
    // Conservative lookahead: every cross-shard frame takes at least the
    // network's minimum-latency floor — the uniform floor for any shard
    // pair activate did not declare.
    const Duration window = net_.min_latency_floor();
    SW_EXPECTS_MSG(window.ns > 0,
                   "shard-parallel run needs a positive lookahead window "
                   "(a zero-latency link defeats conservative windowing)");
    sharded_.set_window(window);
  }
  sharded_.run_until(sharded_.now() + d);
}

void Cloud::halt_all() { topo_->halt_all(); }

hypervisor::Machine& Cloud::machine(int idx) {
  SW_EXPECTS(idx >= 0 && idx < machine_count());
  return topo_->machines().machine(idx);
}

hypervisor::GuestContext& Cloud::replica(VmHandle vm, int replica) {
  return topo_->replica(vm.index, replica);
}

int Cloud::replicas_of(VmHandle vm) const {
  return topo_->replicas_of(vm.index);
}

NodeId Cloud::vm_addr(VmHandle vm) const { return topo_->vm_addr(vm.index); }

const EgressStats& Cloud::egress_stats(VmHandle vm) const {
  return topo_->egress_stats(vm.index);
}

bool Cloud::replicas_deterministic(VmHandle vm) const {
  return topo_->replicas_deterministic(vm.index);
}

std::uint64_t Cloud::total_divergences() const {
  return topo_->total_divergences();
}

obs::Snapshot Cloud::observability() {
  // Names of the FramePayload alternatives, in variant-index order.
  static constexpr std::array<const char*, net::Network::kFrameClasses>
      kClassNames = {"guest_packet", "ingress_copy",    "proposal",
                     "sync_beacon",  "epoch_report",    "tunneled_output",
                     "mcast_nak",    "mcast_spm"};

  sim::KernelStats kernel{};
  std::uint64_t arena_bytes = 0;
  for (int s = 0; s < sharded_.shard_count(); ++s) {
    const sim::KernelStats& ks = sharded_.shard(s).kernel_stats();
    kernel.scheduled += ks.scheduled;
    kernel.cancelled += ks.cancelled;
    kernel.rescheduled += ks.rescheduled;
    kernel.heap_fallbacks += ks.heap_fallbacks;
    kernel.due_sorted_pops += ks.due_sorted_pops;
    kernel.due_fallback_pushes += ks.due_fallback_pushes;
    kernel.placed_due += ks.placed_due;
    kernel.placed_wheel += ks.placed_wheel;
    kernel.placed_far += ks.placed_far;
    kernel.arena_chunks += ks.arena_chunks;
    kernel.max_live += ks.max_live;
    kernel.max_due += ks.max_due;
    kernel.max_far += ks.max_far;
    arena_bytes += sharded_.shard(s).arena_bytes();
  }
  registry_.set_counter("sim.events_scheduled", kernel.scheduled);
  registry_.set_counter("sim.events_cancelled", kernel.cancelled);
  registry_.set_counter("sim.events_rescheduled", kernel.rescheduled);
  registry_.set_counter("sim.events_executed", sharded_.events_executed());
  registry_.set_counter("sim.heap_fallbacks", kernel.heap_fallbacks);
  registry_.set_counter("sim.due_sorted_pops", kernel.due_sorted_pops);
  registry_.set_counter("sim.due_fallback_pushes", kernel.due_fallback_pushes);
  registry_.set_counter("sim.placed_due", kernel.placed_due);
  registry_.set_counter("sim.placed_wheel", kernel.placed_wheel);
  registry_.set_counter("sim.placed_far", kernel.placed_far);
  registry_.set_counter("sim.arena_chunks", kernel.arena_chunks);

  // Memory-accounting gauges: deterministic quantities only (wall-clock
  // and RSS measurements belong in the --profile output, never here —
  // this snapshot participates in byte-identity comparisons).
  registry_.set_gauge("mem.arena_bytes", arena_bytes);
  registry_.set_gauge("mem.live_events_highwater", kernel.max_live);
  registry_.set_gauge("mem.due_highwater", kernel.max_due);
  registry_.set_gauge("mem.far_highwater", kernel.max_far);
  registry_.set_gauge("mem.lane_bytes_highwater",
                      sharded_.lane_bytes_highwater());

  registry_.set_counter("sharded.shards",
                        static_cast<std::uint64_t>(sharded_.shard_count()));
  registry_.set_counter("sharded.barriers", sharded_.barriers());
  registry_.set_counter("sharded.cross_scheduled", sharded_.cross_scheduled());
  registry_.set_counter("sharded.max_merge_batch", sharded_.max_merge_batch());
  registry_.set_counter("sharded.window_ns",
                        static_cast<std::uint64_t>(sharded_.window().ns));
  registry_.set_counter("sharded.adaptive_extensions",
                        sharded_.adaptive_extensions());
  if (sharded_.shard_count() > 1) {
    // Per-core load: deterministic for a given shard count (busy time is
    // a wall-clock value, so it lives in the --profile output instead).
    for (int s = 0; s < sharded_.shard_count(); ++s) {
      registry_.set_counter(
          "sharded.core" + std::to_string(s) + ".events_executed",
          sharded_.shard(s).events_executed());
    }
  }

  for (std::size_t c = 0; c < net::Network::kFrameClasses; ++c) {
    registry_.set_counter(std::string("net.frames_sent.") + kClassNames[c],
                          net_.frames_sent_of_class(c));
  }
  registry_.set_counter("net.frames_dropped", net_.frames_dropped());

  const hypervisor::PolicyStats policy = topo_->aggregate_policy_stats();
  registry_.set_counter("policy.deliveries_quantized",
                        policy.deliveries_quantized);
  registry_.set_counter("policy.egress_releases", policy.egress_releases);
  registry_.set_counter("policy.replica_aggregations",
                        policy.replica_aggregations);

  registry_.set_counter("topology.vms",
                        static_cast<std::uint64_t>(topo_->vm_count()));
  registry_.set_counter(
      "topology.materialized_vms",
      static_cast<std::uint64_t>(topo_->materialized_vm_count()));
  registry_.set_counter("topology.divergences", topo_->total_divergences());

  return registry_.snapshot();
}

}  // namespace stopwatch::core
