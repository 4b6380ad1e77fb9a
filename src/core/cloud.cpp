#include "core/cloud.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "obs/profiler.hpp"

namespace stopwatch::core {

namespace {

/// Boundary validation of the whole configuration, before any wiring: a
/// bad replica/machine combination should explain itself here instead of
/// failing deep inside group or shard construction. Returns the cloud's
/// policy instance, which does the per-policy part of the validation.
std::unique_ptr<hypervisor::MitigationPolicy> validated_policy(
    const CloudConfig& cfg) {
  SW_EXPECTS_MSG(cfg.machine_count >= 1,
                 "CloudConfig.machine_count must be >= 1 (got " +
                     std::to_string(cfg.machine_count) + ")");
  // make_policy validates the per-policy knobs (including the "replica
  // knobs on a non-replicated backend" contract); the replica/machine
  // combination check is the policy capability's job.
  auto policy = hypervisor::make_policy(cfg.policy);
  policy->validate_replicas(cfg.replica_count, cfg.machine_count);
  SW_EXPECTS_MSG(cfg.shard_size >= 1,
                 "CloudConfig.shard_size must be >= 1 (got " +
                     std::to_string(cfg.shard_size) + ")");
  SW_EXPECTS_MSG(cfg.clock_offset_spread.ns >= 0,
                 "CloudConfig.clock_offset_spread must be >= 0 (got " +
                     std::to_string(cfg.clock_offset_spread.ns) + " ns)");
  return policy;
}

/// "VM '<name>'", the subject of every per-VM contract message.
std::string vm_label(const std::string& name) {
  std::string label = "VM '";
  label += name;
  label += '\'';
  return label;
}

/// Makes room for `extra` more elements at once, growing at least
/// geometrically so that a run of batches stays amortized O(1) per element.
template <typename T>
void reserve_more(std::vector<T>& v, std::size_t extra) {
  if (v.capacity() - v.size() < extra) {
    v.reserve(std::max(v.size() + extra, 2 * v.capacity()));
  }
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
    // activate() declares every shard pair's lookahead floor from these
    // two links; a zero floor defeats conservative windowing.
    SW_EXPECTS_MSG(cfg.cloud_link.min_latency().ns > 0,
                   "CloudConfig.cloud_link must have a positive minimum "
                   "latency when sim_shards > 1 (it bounds the barrier "
                   "window)");
    SW_EXPECTS_MSG(cfg.client_link.min_latency().ns > 0,
                   "CloudConfig.client_link must have a positive minimum "
                   "latency when sim_shards > 1 (it bounds the barrier "
                   "window)");
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

}  // namespace

Cloud::Cloud(CloudConfig cfg)
    : cfg_(cfg),
      root_rng_(cfg.seed),
      sharded_(sharded_config(cfg)),
      net_(sharded_, root_rng_.fork(0xF00D)),
      policy_(validated_policy(cfg_)),
      trace_(obs::active_trace()),
      table_(sharded_, plan_, net_,
             topology::MachineTableConfig{cfg.machine_count, cfg.shard_size,
                                          cfg.seed, cfg.machine_template,
                                          cfg.clock_offset_spread},
             [this](int machine, const net::Frame& f) {
               on_machine_frame(machine, f);
             }),
      egress_core_(&sharded_.shard(0)) {
  net_.set_default_link(cfg_.cloud_link);
  // Nodes are keyed by what they are (net::node_key), never by the order
  // they are built in: the egress, machines, externals and VM addresses
  // each draw the same stream whatever else the cloud builds.
  egress_node_ = net_.add_node(
      net::node_key(net::NodeRole::kEgress, 0),
      [this](const net::Frame& f) { on_egress_frame(f); });
  // Histograms exist up front (worker threads record into them); counters
  // are copied in at observability() time.
  net_.set_bytes_histogram(registry_.histogram("net.frame_bytes"));
  sharded_.set_merge_histogram(registry_.histogram("sharded.merge_batch"));
  if (trace_ == nullptr) return;
  egress_track_ = trace_->track(0, 0, "egress", "release-gate");
  // Execution-machinery tracks are inherently shard-dependent, so they
  // carry Category::kParallel and stay out of the default export.
  for (int s = 0; s < sharded_.shard_count(); ++s) {
    std::string tname = "core-";
    tname += std::to_string(s);
    obs::TraceTrack* track =
        trace_->track(900 + static_cast<std::uint32_t>(s), 0, "sim-kernel",
                      std::move(tname), obs::Category::kParallel);
    sharded_.shard(s).set_trace_track(track);
  }
  if (sharded_.shard_count() > 1) {
    barrier_track_ = trace_->track(800, 0, "parallel", "barriers",
                                   obs::Category::kParallel);
    sharded_.set_barrier_hook([this](RealTime barrier_time) {
      if (prev_barrier_ns_ >= 0 && barrier_time.ns > prev_barrier_ns_) {
        barrier_track_->complete(prev_barrier_ns_,
                                 barrier_time.ns - prev_barrier_ns_, "window",
                                 "crossed", sharded_.cross_scheduled());
      }
      prev_barrier_ns_ = barrier_time.ns;
    });
  }
}

VmHandle Cloud::add_vm(std::string name, ProgramFactory factory,
                       const std::vector<int>& machine_indices) {
  SW_EXPECTS(factory != nullptr);
  factories_.push_back(std::move(factory));
  const VmHandle vm =
      append_row(static_cast<std::uint32_t>(factories_.size() - 1),
                 machine_indices, effective_replicas(), name);
  if (!name.empty()) names_.emplace_back(vm.index, std::move(name));
  return vm;
}

VmHandle Cloud::add_vms(ProgramFactory factory, std::span<const int> rows,
                        std::size_t row_width) {
  SW_EXPECTS(factory != nullptr);
  SW_EXPECTS(row_width >= 1 && rows.size() % row_width == 0);
  const std::size_t count = rows.size() / row_width;
  const int replicas = effective_replicas();
  reserve_more(vms_, count);
  reserve_more(vm_machines_, count * static_cast<std::size_t>(replicas));
  factories_.push_back(std::move(factory));
  const auto shared = static_cast<std::uint32_t>(factories_.size() - 1);
  const std::string unnamed;
  const VmHandle first{static_cast<std::uint32_t>(vms_.size())};
  for (std::size_t i = 0; i < count; ++i) {
    const std::span<const int> row = rows.subspan(i * row_width, row_width);
    static_cast<void>(append_row(shared, row, replicas, unnamed));
  }
  return first;
}

VmHandle Cloud::append_row(std::uint32_t factory, std::span<const int> machines,
                           int replicas, const std::string& name) {
  SW_EXPECTS(!started_);
  const auto vm_index = static_cast<std::uint32_t>(vms_.size());
  // Contract messages are built only on failure, so the label costs a row
  // nothing.
  const auto label = [&] {
    return vm_label(name.empty() ? vm_name(vm_index) : name);
  };
  SW_EXPECTS_MSG(static_cast<int>(machines.size()) >= replicas,
                 label() + " needs " + std::to_string(replicas) +
                     " machine indices, got " +
                     std::to_string(machines.size()));

  const std::span<const int> placed =
      machines.first(static_cast<std::size_t>(replicas));
  for (int m : placed) {
    SW_EXPECTS_MSG(m >= 0 && m < cfg_.machine_count,
                   label() + " machine index " + std::to_string(m) +
                       " out of range [0, " +
                       std::to_string(cfg_.machine_count) + ")");
  }
  // Replica placement constraint sanity: distinct machines.
  for (std::size_t i = 0; i < placed.size(); ++i) {
    for (std::size_t j = i + 1; j < placed.size(); ++j) {
      SW_EXPECTS_MSG(placed[i] != placed[j],
                     label() + " places two replicas on machine " +
                         std::to_string(placed[i]));
    }
  }

  // No address node yet: vm_addr builds it at first need.
  vms_.push_back(VmEntry{kNoAddr, factory, nullptr});
  vm_machines_.insert(vm_machines_.end(), placed.begin(), placed.end());
  return VmHandle{vm_index};
}

std::string Cloud::vm_name(std::uint32_t vm_index) const {
  const auto it = std::lower_bound(
      names_.begin(), names_.end(), vm_index,
      [](const auto& named, std::uint32_t i) { return named.first < i; });
  if (it != names_.end() && it->first == vm_index) return it->second;
  std::string derived = "vm";
  derived += std::to_string(vm_index);
  return derived;
}

NodeId Cloud::add_external_node(PacketHandler on_packet) {
  SW_EXPECTS(on_packet != nullptr);
  const NodeId id = net_.add_node(
      net::node_key(net::NodeRole::kExternal,
                    static_cast<std::uint32_t>(external_nodes_.size())),
      [cb = std::move(on_packet)](const net::Frame& f) {
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
  const int driver = plan_.egress_shard();
  if (driver != 0) net_.set_node_owner(id, driver);
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

sim::Simulator& Cloud::core_of_machine(int machine) {
  return sharded_.shard(plan_.shard_of_machine(machine));
}

void Cloud::wire(std::uint32_t vm_index) {
  VmEntry& entry = vms_[vm_index];
  SW_ASSERT(!entry.wired);
  const std::span<const int> machines = vm_machines(VmHandle{vm_index});
  // The plan clusters a VM's machine triple into one component, so all
  // replicas — and the synchronous machine calls between them — live on a
  // single core.
  const int owner = plan_.shard_of_machine(machines.front());
  for (int m : machines) {
    SW_ASSERT(plan_.shard_of_machine(m) == owner);
  }
  // The VM's ingress address delivers on the shard hosting its replicas,
  // keeping the whole ingress -> replicate -> deliver path one-core.
  net_.set_node_owner(vm_addr(VmHandle{vm_index}), owner);
  const int replicas = effective_replicas();
  const std::uint64_t det_seed =
      SplitMix64(cfg_.seed ^ (0xABCDULL + vm_index)).next();
  // Installed before anything is built: every replica registers itself as a
  // load source of its machine, so even a wiring that throws part-way must
  // keep what it built alive.
  entry.wired = std::make_unique<WiredVm>();
  WiredVm& w = *entry.wired;
  w.outputs = OutputComparator(replicas);

  if (trace_ != nullptr) {
    // Track identity is the machine-table shard + VM index — both
    // invariant under sim_shards, unlike the owner core.
    const auto table_shard =
        static_cast<std::uint32_t>(machines.front() / cfg_.shard_size);
    std::string pname = "machine-shard-";
    pname += std::to_string(table_shard);
    w.track = trace_->track(1 + table_shard, vm_index, std::move(pname),
                            vm_name(vm_index));
  }

  // Control and ingress multicast groups (replicated policies only).
  if (policy_->replicated() && replicas > 1) {
    w.control_group =
        std::make_unique<net::MulticastGroup>(net_, next_group_id_++);
    w.ingress_group =
        std::make_unique<net::MulticastGroup>(net_, next_group_id_++);
    w.ingress_group_id = next_group_id_ - 1;

    // Ingress node is the (sole) sender in the ingress group; NAKs flowing
    // back to it are routed by on_addr_frame.
    w.ingress_group->add_member(entry.addr,
                                [](NodeId, const net::FramePayload&) {});
  }

  for (int r = 0; r < replicas; ++r) {
    const int m = machines[static_cast<std::size_t>(r)];
    const hypervisor::GuestContextConfig gc{cfg_.policy, replicas};

    sim::Simulator& core = core_of_machine(m);
    hypervisor::ReplicaServices services;
    services.machine_node = table_.machine_node(m);
    services.egress_node = egress_node_;
    services.send_frame = [this, vm_index, owner = &core](net::Frame f) {
      // Non-tunneling guests emit output directly (no egress gate), so the
      // attacker-visible instant is this send; tunneled outputs are
      // observed at their egress release instead. The timestamp must come
      // from the replica's own core: this lambda runs on its worker thread.
      if (egress_tap_) {
        if (const auto* gp =
                std::get_if<net::GuestPacketPayload>(&f.payload)) {
          egress_tap_(vm_index, owner->now(), gp->pkt);
        }
      }
      net_.send(std::move(f));
    };
    if (replicas > 1) {
      services.output_emitted = [&w, r](std::uint64_t hash) {
        w.outputs.record(static_cast<std::size_t>(r), hash);
      };
    }
    if (w.control_group) {
      net::MulticastGroup* group = w.control_group.get();
      const NodeId node = table_.machine_node(m);
      services.control_multicast = [group, node](net::FramePayload payload,
                                                 std::uint32_t bytes) {
        group->send(node, std::move(payload), bytes);
      };
    }

    auto ctx = std::make_unique<hypervisor::GuestContext>(
        VmId{vm_index}, ReplicaIndex{static_cast<std::uint32_t>(r)}, entry.addr,
        table_.machine(m), core, gc, factories_[entry.factory](), det_seed,
        hypervisor::SliceStreams::derive(cfg_.seed, vm_index,
                                         static_cast<std::uint32_t>(r)),
        std::move(services));

    if (w.control_group) {
      hypervisor::GuestContext* raw = ctx.get();
      w.control_group->add_member(
          table_.machine_node(m),
          [raw](NodeId, const net::FramePayload& p) {
            if (const auto* prop = std::get_if<net::Proposal>(&p)) {
              raw->on_proposal(*prop);
            } else if (const auto* b = std::get_if<net::SyncBeacon>(&p)) {
              raw->on_sync_beacon(*b);
            } else if (const auto* e = std::get_if<net::EpochReport>(&p)) {
              raw->on_epoch_report(*e);
            }
          });
    }
    if (w.ingress_group) {
      hypervisor::GuestContext* raw = ctx.get();
      w.ingress_group->add_member(
          table_.machine_node(m),
          [raw](NodeId, const net::FramePayload& p) {
            if (const auto* c = std::get_if<net::IngressCopy>(&p)) {
              raw->on_ingress_copy(*c);
            }
          });
    }
    w.replicas.push_back(std::move(ctx));
  }
  if (w.ingress_group) {
    groups_[w.ingress_group_id - 1] = w.control_group.get();
    groups_[w.ingress_group_id] = w.ingress_group.get();
  }
  ++materialized_vms_;
}

void Cloud::boot(std::uint32_t vm_index) {
  VmEntry& entry = vms_[vm_index];
  const std::span<const int> machines = vm_machines(VmHandle{vm_index});
  // Exchange of boot-time machine clocks; start = median (Sec. IV-A).
  std::vector<std::int64_t> clocks;
  for (int m : machines) {
    clocks.push_back(table_.machine(m).local_clock().ns);
  }
  std::sort(clocks.begin(), clocks.end());
  const VirtTime start{clocks[(clocks.size() - 1) / 2]};
  for (auto& replica : entry.wired->replicas) {
    replica->start(start);
  }
  if (entry.wired->track != nullptr) {
    entry.wired->track->instant(core_of_machine(machines.front()).now().ns,
                                "boot", "virt_start",
                                static_cast<std::uint64_t>(start.ns));
  }
}

void Cloud::start() {
  SW_EXPECTS(!started_);
  if (!activated_) {
    std::vector<VmHandle> all(vms_.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i].index = static_cast<std::uint32_t>(i);
    }
    activate(all);
  }
  started_ = true;
  // Each wired VM boots as its own event on the core that owns its
  // replicas, scheduled in (owner core, machine shard, VM index) order so
  // equal-time FIFO runs the boots in that order.
  std::map<std::pair<int, int>, std::vector<std::uint32_t>> boots;
  for (std::uint32_t i = 0; i < vms_.size(); ++i) {
    if (!vms_[i].wired) continue;
    const int machine = vm_machines(VmHandle{i}).front();
    boots[{plan_.shard_of_machine(machine), table_.shard_of(machine)}]
        .push_back(i);
  }
  for (const auto& [key, vms] : boots) {
    sim::Simulator& core = sharded_.shard(key.first);
    for (const std::uint32_t i : vms) {
      core.schedule_at(core.now(), [this, i] { boot(i); });
    }
  }
}

void Cloud::activate(const std::vector<VmHandle>& driven) {
  SW_EXPECTS(!activated_ && !started_);
  activated_ = true;
  // Wire the activation set in index order — deterministic regardless of
  // the order the caller discovered the VMs in.
  std::vector<std::uint32_t> active;
  active.reserve(driven.size());
  for (const VmHandle vm : driven) active.push_back(vm.index);
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());
  std::vector<std::vector<int>> groups;
  groups.reserve(active.size());
  for (const std::uint32_t vm : active) {
    const std::span<const int> machines = vm_machines(VmHandle{vm});
    groups.emplace_back(machines.begin(), machines.end());
  }
  // One core: a machine touched before activation (a scenario setting its
  // extra load, say) already sits on the only core there is.
  SW_EXPECTS_MSG(cfg_.sim_shards == 1 || table_.materialized_machines() == 0,
                 "activate must run before any machine materializes");
  plan_ =
      topology::ShardPlan::build(cfg_.sim_shards, cfg_.machine_count, groups);
  // The egress gateway and every external endpoint leave core 0 together:
  // their nodes deliver — and the gate's clock reads and hold releases,
  // and all driver scheduling via simulator(), run — on the egress shard.
  const int driver = plan_.egress_shard();
  egress_core_ = &sharded_.shard(driver);
  net_.set_node_owner(egress_node_, driver);
  for (const NodeId id : external_nodes_) net_.set_node_owner(id, driver);
  for (const std::uint32_t vm : active) wire(vm);
  expect_single_writer_tap(egress_tap_ != nullptr);
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
  if (shards > 1) {
    for (int s = 0; s < shards; ++s) {
      for (int d = 0; d < shards; ++d) {
        if (s == d) continue;
        if (d == driver) {
          sharded_.set_lookahead(s, d, to_egress);
        } else if (s == driver) {
          sharded_.set_lookahead(s, d, from_egress);
        } else {
          sharded_.set_lookahead_unreachable(s, d);
        }
      }
    }
  }
}

void Cloud::set_egress_tap(EgressTap tap) {
  expect_single_writer_tap(tap != nullptr);
  egress_tap_ = std::move(tap);
}

void Cloud::expect_single_writer_tap(bool tapped) const {
  if (!tapped || sharded_.shard_count() == 1 || policy_->tunnels_output()) {
    return;
  }
  int owner = -1;
  for (std::uint32_t i = 0; i < vms_.size(); ++i) {
    if (!vms_[i].wired) continue;
    const int o = plan_.shard_of_machine(vm_machines(VmHandle{i}).front());
    SW_EXPECTS_MSG(owner == -1 || o == owner,
                   "egress tap is not single-writer under this sharding: the "
                   "policy does not tunnel output, so replica sends fire the "
                   "tap from every shard hosting an active VM");
    owner = o;
  }
}

void Cloud::run_for(Duration d) {
  OBS_PROF_SCOPE("cloud.run");
  SW_EXPECTS(started_);
  sharded_.run_until(sharded_.now() + d);
}

void Cloud::halt_all() {
  for (auto& vm : vms_) {
    if (!vm.wired) continue;
    for (auto& r : vm.wired->replicas) r->halt();
  }
}

hypervisor::Machine& Cloud::machine(int idx) {
  SW_EXPECTS(idx >= 0 && idx < machine_count());
  return table_.machine(idx);
}

const Cloud::VmEntry& Cloud::entry(VmHandle vm) const {
  SW_EXPECTS(vm.index < vms_.size());
  return vms_[vm.index];
}

NodeId Cloud::vm_addr(VmHandle vm) {
  SW_EXPECTS(vm.index < vms_.size());
  VmEntry& e = vms_[vm.index];
  if (e.addr != kNoAddr) return e.addr;
  SW_EXPECTS_MSG(!sharded_.running(),
                 vm_label(vm_name(vm.index)) +
                     " has no address node yet, and none is built mid-run: "
                     "take its address before run_for");
  // Frames to a VM outside the activation set reach on_addr_frame too, on
  // core 0, which rejects them by name.
  e.addr = net_.add_node(
      net::node_key(net::NodeRole::kVmAddress, vm.index),
      [this, i = vm.index](const net::Frame& f) { on_addr_frame(i, f); });
  if (addr_to_vm_.size() <= e.addr.value) {
    addr_to_vm_.resize(e.addr.value + 1, kNoVm);
  }
  addr_to_vm_[e.addr.value] = vm.index;
  return e.addr;
}

std::span<const int> Cloud::vm_machines(VmHandle vm) const {
  SW_EXPECTS(vm.index < vms_.size());
  const auto stride = static_cast<std::size_t>(effective_replicas());
  return std::span<const int>(vm_machines_).subspan(vm.index * stride, stride);
}

int Cloud::replicas_of(VmHandle vm) const {
  const VmEntry& e = entry(vm);
  return e.wired ? static_cast<int>(e.wired->replicas.size()) : 0;
}

hypervisor::GuestContext& Cloud::replica(VmHandle vm, int replica) {
  const VmEntry& e = entry(vm);
  SW_EXPECTS_MSG(e.wired, vm_label(vm_name(vm.index)) +
                              " is not wired: it is outside the activation "
                              "set");
  const auto& replicas = e.wired->replicas;
  SW_EXPECTS(replica >= 0 && replica < static_cast<int>(replicas.size()));
  return *replicas[static_cast<std::size_t>(replica)];
}

const EgressStats& Cloud::egress_stats(VmHandle vm) const {
  static const EgressStats kUnwired{};
  const VmEntry& e = entry(vm);
  return e.wired ? e.wired->egress_stats : kUnwired;
}

void Cloud::OutputComparator::match(Pair& p, bool other_ahead,
                                    std::uint64_t hash) {
  if (other_ahead) {
    p.diverged = p.diverged || p.unmatched.front() != hash;
    p.unmatched.pop_front();
  } else {
    p.unmatched.push_back(hash);
  }
}

void Cloud::OutputComparator::record(std::size_t replica,
                                     std::uint64_t hash) {
  if (replica == 0) {
    for (Pair& p : pairs_) match(p, p.emitted > emitted0_, hash);
    ++emitted0_;
  } else {
    Pair& p = pairs_[replica - 1];
    match(p, emitted0_ > p.emitted, hash);
    ++p.emitted;
  }
}

bool Cloud::OutputComparator::consistent() const {
  // A mismatch is found once both sides have emitted its position, and
  // the common prefix only grows, so it stays in it.
  return std::none_of(pairs_.begin(), pairs_.end(),
                      [](const Pair& p) { return p.diverged; });
}

bool Cloud::replicas_deterministic(VmHandle vm) const {
  const VmEntry& e = entry(vm);
  return !e.wired || e.wired->outputs.consistent();
}

std::uint64_t Cloud::total_divergences() const {
  std::uint64_t total = 0;
  for (const auto& vm : vms_) {
    if (!vm.wired) continue;
    for (const auto& r : vm.wired->replicas) {
      const auto& s = r->stats();
      total += s.divergence_median_passed + s.divergence_disk_late +
               s.divergence_epoch_missing;
    }
    total += vm.wired->egress_stats.hash_mismatches;
  }
  return total;
}

void Cloud::on_addr_frame(std::uint32_t vm_index, const net::Frame& frame) {
  VmEntry& entry = vms_[vm_index];
  SW_EXPECTS_MSG(entry.wired,
                 vm_label(vm_name(vm_index)) +
                     " is outside the activation set: a frame reached its "
                     "ingress address, but only activated VMs are wired");
  WiredVm& w = *entry.wired;
  if (w.ingress_group && frame.rm_group == w.ingress_group_id) {
    // NAKs of the ingress stream flow back to the (sender) ingress node.
    w.ingress_group->on_frame(entry.addr, frame);
    return;
  }
  if (const auto* gp = std::get_if<net::GuestPacketPayload>(&frame.payload)) {
    on_ingress_packet(vm_index, gp->pkt);
  }
}

void Cloud::on_ingress_packet(std::uint32_t vm_index, const net::Packet& pkt) {
  VmEntry& entry = vms_[vm_index];
  SW_ASSERT(entry.wired);  // on_addr_frame rejects unwired VMs
  WiredVm& w = *entry.wired;
  const int first_machine = vm_machines(VmHandle{vm_index}).front();
  if (w.track != nullptr) {
    w.track->instant(core_of_machine(first_machine).now().ns, "ingress",
                     "bytes", pkt.size_bytes);
  }
  if (w.ingress_group) {
    net::IngressCopy copy;
    copy.vm = VmId{vm_index};
    copy.copy_seq = ++w.ingress_seq;
    copy.pkt = pkt;
    w.ingress_group->send(entry.addr, copy, pkt.size_bytes + net::kHeaderBytes);
  } else {
    // Unreplicated: forward to the (single) hosting machine.
    net::Frame f;
    f.src = entry.addr;
    f.dst = table_.machine_node(first_machine);
    f.size_bytes = pkt.size_bytes;
    f.payload = net::GuestPacketPayload{pkt};
    net_.send(std::move(f));
  }
}

void Cloud::on_machine_frame(int machine_idx, const net::Frame& frame) {
  // Reliable-multicast frames route to their group.
  if (frame.rm_group != 0) {
    const auto it = groups_.find(frame.rm_group);
    SW_ASSERT(it != groups_.end());
    it->second->on_frame(table_.machine_node(machine_idx), frame);
    return;
  }
  // Baseline direct guest packet: find the addressed VM on this machine.
  if (const auto* gp = std::get_if<net::GuestPacketPayload>(&frame.payload)) {
    const std::uint32_t dst = gp->pkt.dst.value;
    if (dst >= addr_to_vm_.size() || addr_to_vm_[dst] == kNoVm) return;
    const std::uint32_t vm_index = addr_to_vm_[dst];
    const VmEntry& entry = vms_[vm_index];
    if (!entry.wired) return;
    const std::span<const int> machines = vm_machines(VmHandle{vm_index});
    const auto& replicas = entry.wired->replicas;
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      if (machines[r] == machine_idx) {
        replicas[r]->on_direct_packet(gp->pkt);
        return;
      }
    }
  }
}

void Cloud::on_egress_frame(const net::Frame& frame) {
  const auto* out = std::get_if<net::TunneledOutput>(&frame.payload);
  if (out == nullptr) return;
  SW_ASSERT(out->vm.value < vms_.size());
  VmEntry& entry = vms_[out->vm.value];
  SW_ASSERT(entry.wired);  // only running replicas tunnel output
  WiredVm& w = *entry.wired;
  auto& slot = w.egress_slots[out->out_seq];
  if (slot.copies == 0) {
    slot.hash = out->content_hash;
    slot.first_copy_ns = egress_core_->now().ns;
  } else if (slot.hash != out->content_hash) {
    ++w.egress_stats.hash_mismatches;
  }
  ++slot.copies;
  if (egress_track_ != nullptr) {
    egress_track_->instant(egress_core_->now().ns, "replica_copy", "vm",
                           out->vm.value);
  }

  // Gate on the policy's copy count ((r+1)/2 under StopWatch: the median
  // emission timing; the sole copy elsewhere), then release after the
  // policy's hold (0 = inline; Deterland holds to the next batch boundary,
  // TifcPacing to the VM flow's next paced-queue slot).
  const int release_at =
      policy_->egress_release_copies(static_cast<int>(w.replicas.size()));
  if (!slot.released && slot.copies >= release_at) {
    OBS_PROF_SCOPE("policy.release");
    slot.released = true;
    ++w.egress_stats.packets_released;
    const Duration hold =
        policy_->egress_release_delay(out->vm.value, egress_core_->now());
    // Sample at gating time for both the inline and the held path: the
    // release instant is already decided here, so the rollup stays a pure
    // function of sim time (byte-identical across shard counts).
    if (egress_series_ != nullptr) {
      const std::int64_t released_at =
          egress_core_->now().ns + std::max<std::int64_t>(hold.ns, 0);
      egress_series_->record(
          released_at,
          static_cast<std::uint64_t>(released_at - slot.first_copy_ns));
    }
    if (hold.ns <= 0) {
      release(out->vm.value, out->pkt);
    } else {
      if (egress_track_ != nullptr) {
        // The hold is the attacker-relevant quantity: the span runs from
        // the gating copy's arrival to the policy's release instant.
        egress_track_->complete(egress_core_->now().ns, hold.ns,
                                "egress_hold", "vm", out->vm.value);
      }
      const std::uint32_t vm_index = out->vm.value;
      egress_core_->schedule_after(hold, [this, vm_index, pkt = out->pkt] {
        release(vm_index, pkt);
      });
    }
  }
  if (slot.copies >= static_cast<int>(w.replicas.size())) {
    w.egress_slots.erase(out->out_seq);
  }
}

void Cloud::release(std::uint32_t vm, const net::Packet& pkt) {
  if (egress_track_ != nullptr) {
    egress_track_->instant(egress_core_->now().ns, "release", "vm", vm);
  }
  if (egress_tap_) egress_tap_(vm, egress_core_->now(), pkt);
  net::Frame f;
  f.src = egress_node_;
  f.dst = pkt.dst;
  f.size_bytes = pkt.size_bytes;
  f.payload = net::GuestPacketPayload{pkt};
  net_.send(std::move(f));
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
    kernel.placed_due += ks.placed_due;
    kernel.placed_wheel += ks.placed_wheel;
    kernel.arena_chunks += ks.arena_chunks;
    kernel.max_live += ks.max_live;
    kernel.max_due += ks.max_due;
    arena_bytes += sharded_.shard(s).arena_bytes();
  }
  registry_.set_counter("sim.events_scheduled", kernel.scheduled);
  registry_.set_counter("sim.events_cancelled", kernel.cancelled);
  registry_.set_counter("sim.events_rescheduled", kernel.rescheduled);
  registry_.set_counter("sim.events_executed", sharded_.events_executed());
  registry_.set_counter("sim.placed_due", kernel.placed_due);
  registry_.set_counter("sim.placed_wheel", kernel.placed_wheel);
  registry_.set_counter("sim.arena_chunks", kernel.arena_chunks);

  // Memory-accounting gauges: deterministic quantities only (wall-clock
  // and RSS measurements belong in the --profile output, never here —
  // this snapshot participates in byte-identity comparisons).
  registry_.set_gauge("mem.arena_bytes", arena_bytes);
  registry_.set_gauge("mem.live_events_highwater", kernel.max_live);
  registry_.set_gauge("mem.due_highwater", kernel.max_due);
  registry_.set_gauge("mem.lane_bytes_highwater",
                      sharded_.lane_bytes_highwater());

  registry_.set_counter("sharded.shards",
                        static_cast<std::uint64_t>(sharded_.shard_count()));
  registry_.set_counter("sharded.barriers", sharded_.barriers());
  registry_.set_counter("sharded.cross_scheduled", sharded_.cross_scheduled());
  registry_.set_counter("sharded.max_merge_batch", sharded_.max_merge_batch());
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

  // The cloud's instance gates egress releases; each replica's instance
  // makes the delivery/aggregation decisions for that replica.
  hypervisor::PolicyStats policy = policy_->stats();
  for (const auto& vm : vms_) {
    if (!vm.wired) continue;
    for (const auto& r : vm.wired->replicas) {
      const hypervisor::PolicyStats& s = r->policy().stats();
      policy.deliveries_quantized += s.deliveries_quantized;
      policy.egress_releases += s.egress_releases;
      policy.replica_aggregations += s.replica_aggregations;
    }
  }
  registry_.set_counter("policy.deliveries_quantized",
                        policy.deliveries_quantized);
  registry_.set_counter("policy.egress_releases", policy.egress_releases);
  registry_.set_counter("policy.replica_aggregations",
                        policy.replica_aggregations);

  registry_.set_counter("topology.vms", static_cast<std::uint64_t>(vm_count()));
  registry_.set_counter("topology.materialized_vms",
                        static_cast<std::uint64_t>(materialized_vms_));
  registry_.set_counter("topology.divergences", total_divergences());

  return registry_.snapshot();
}

}  // namespace stopwatch::core
