#include "topology/builder.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "obs/profiler.hpp"

namespace stopwatch::topology {

TopologyBuilder::TopologyBuilder(sim::ShardedSimulator& sharded,
                                 net::Network& net, TopologyConfig cfg)
    : cfg_(cfg),
      policy_(hypervisor::make_policy(cfg.policy)),
      trace_(obs::active_trace()),
      sharded_(&sharded),
      egress_core_(&sharded.shard(0)),
      net_(&net),
      table_(sharded.shard(0), net,
             MachineTableConfig{cfg.machine_count, cfg.shard_size, cfg.seed,
                                cfg.machine_template, cfg.clock_offset_spread},
             [this](int machine, const net::Frame& f) {
               on_machine_frame(machine, f);
             }) {
  policy_->validate_replicas("TopologyConfig", cfg_.replica_count,
                             cfg_.machine_count);
  table_.set_sharding(sharded_, &plan_);
  egress_node_ =
      net_->add_node([this](const net::Frame& f) { on_egress_frame(f); });
  if (trace_ != nullptr) {
    egress_track_ = trace_->track(0, 0, "egress", "release-gate");
  }
}

std::uint32_t TopologyBuilder::add_vm(std::string name, ProgramFactory factory,
                                      const std::vector<int>& machine_indices) {
  SW_EXPECTS(!started_);
  SW_EXPECTS(factory != nullptr);
  const int replicas = effective_replicas();
  SW_EXPECTS_MSG(static_cast<int>(machine_indices.size()) >= replicas,
                 "VM '" + name + "' needs " + std::to_string(replicas) +
                     " machine indices, got " +
                     std::to_string(machine_indices.size()));

  const std::span<const int> placed(machine_indices.data(),
                                    static_cast<std::size_t>(replicas));
  for (int m : placed) {
    SW_EXPECTS_MSG(m >= 0 && m < cfg_.machine_count,
                   "VM '" + name + "' machine index " + std::to_string(m) +
                       " out of range [0, " +
                       std::to_string(cfg_.machine_count) + ")");
  }
  // Replica placement constraint sanity: distinct machines.
  for (std::size_t i = 0; i < placed.size(); ++i) {
    for (std::size_t j = i + 1; j < placed.size(); ++j) {
      SW_EXPECTS_MSG(placed[i] != placed[j],
                     "VM '" + name + "' places two replicas on machine " +
                         std::to_string(placed[i]));
    }
  }

  const auto vm_index = static_cast<std::uint32_t>(vms_.size());
  VmEntry& entry = vms_.emplace_back();
  entry.name = std::move(name);
  entry.factory = std::move(factory);
  machines_.insert(machines_.end(), placed.begin(), placed.end());

  // The VM's logical address doubles as its ingress entry point. This is
  // the only per-VM state a registration pays for besides the record.
  entry.addr = net_->add_node(
      [this, vm_index](const net::Frame& f) { on_addr_frame(vm_index, f); });
  if (addr_to_vm_.size() <= entry.addr.value) {
    addr_to_vm_.resize(entry.addr.value + 1, kNoVm);
  }
  addr_to_vm_[entry.addr.value] = vm_index;
  return vm_index;
}

sim::Simulator& TopologyBuilder::core_of_machine(int machine) {
  return sharded_->shard(plan_.shard_of_machine(machine));
}

void TopologyBuilder::wire(std::uint32_t vm_index) {
  VmEntry& entry = vms_[vm_index];
  SW_ASSERT(!entry.wired);
  const std::span<const int> machines = vm_machines(vm_index);
  // The plan clusters a VM's machine triple into one component, so all
  // replicas — and the synchronous machine calls between them — live on a
  // single core.
  const int owner = plan_.shard_of_machine(machines.front());
  for (int m : machines) {
    SW_ASSERT(plan_.shard_of_machine(m) == owner);
  }
  const int replicas = effective_replicas();
  const std::uint64_t det_seed =
      SplitMix64(cfg_.seed ^ (0xABCDULL + vm_index)).next();
  // Installed before anything is built: every replica registers itself as a
  // load source of its machine, so even a wiring that throws part-way must
  // keep what it built alive.
  entry.wired = std::make_unique<WiredVm>();
  WiredVm& w = *entry.wired;

  if (trace_ != nullptr) {
    // Track identity is the machine-table shard + VM index — both
    // invariant under sim_shards, unlike the owner core.
    const auto table_shard =
        static_cast<std::uint32_t>(machines.front() / cfg_.shard_size);
    std::string pname = "machine-shard-";
    pname += std::to_string(table_shard);
    w.track =
        trace_->track(1 + table_shard, vm_index, std::move(pname), entry.name);
  }

  // Control and ingress multicast groups (replicated policies only).
  if (policy_->replicated() && replicas > 1) {
    w.control_group =
        std::make_unique<net::MulticastGroup>(*net_, next_group_id_++);
    w.ingress_group =
        std::make_unique<net::MulticastGroup>(*net_, next_group_id_++);
    w.ingress_group_id = next_group_id_ - 1;

    // Ingress node is the (sole) sender in the ingress group; NAKs flowing
    // back to it are routed by on_addr_frame.
    w.ingress_group->add_member(entry.addr,
                                [](NodeId, const net::FramePayload&) {});
  }

  for (int r = 0; r < replicas; ++r) {
    const int m = machines[static_cast<std::size_t>(r)];
    hypervisor::GuestContextConfig gc = cfg_.guest_template;
    gc.policy = cfg_.policy;
    gc.replica_count = replicas;

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
      net_->send(std::move(f));
    };
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
        table_.machine(m), core, gc, entry.factory(), det_seed,
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

void TopologyBuilder::boot(std::uint32_t vm_index) {
  VmEntry& entry = vms_[vm_index];
  const std::span<const int> machines = vm_machines(vm_index);
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

void TopologyBuilder::start() {
  SW_EXPECTS(!started_);
  started_ = true;
  // One boot batch per (owner core, machine shard): a shard of wired VMs
  // costs one simulator arena slot instead of one per VM, each boot thunk
  // a 16-byte capture riding the batch vector's storage, and each batch
  // lands on the core that owns the booting replicas.
  std::map<std::pair<int, int>, std::vector<sim::Task>> batches;
  for (std::uint32_t i = 0; i < vms_.size(); ++i) {
    if (!vms_[i].wired) continue;
    const int machine = vm_machines(i).front();
    batches[{plan_.shard_of_machine(machine), table_.shard_of(machine)}]
        .push_back([this, i] { boot(i); });
  }
  for (auto& [key, batch] : batches) {
    sim::Simulator& core = sharded_->shard(key.first);
    core.schedule_batch(core.now(), std::move(batch));
  }
}

void TopologyBuilder::halt_all() {
  for (auto& vm : vms_) {
    if (!vm.wired) continue;
    for (auto& r : vm.wired->replicas) r->halt();
  }
}

void TopologyBuilder::attach_sharding(
    ShardPlan plan, const std::vector<std::uint32_t>& active_vms) {
  SW_EXPECTS(!started_);
  SW_EXPECTS_MSG(plan.shards() == sharded_->shard_count(),
                 "shard plan built for a different shard count");
  // One core: a machine touched before activation (a scenario setting its
  // extra load, say) already sits on the only core there is.
  SW_EXPECTS_MSG(plan.shards() == 1 || table_.materialized_machines() == 0,
                 "attach_sharding must run before any machine materializes");
  plan_ = std::move(plan);
  // The egress gateway leaves core 0: its node delivers — and its clock
  // reads and hold releases run — on the plan's egress shard.
  egress_core_ = &sharded_->shard(plan_.egress_shard());
  net_->set_node_owner(egress_node_, plan_.egress_shard());

  // Wire the activation set in index order — deterministic regardless of
  // the order the caller discovered the VMs in.
  std::vector<std::uint32_t> ordered(active_vms);
  std::sort(ordered.begin(), ordered.end());
  ordered.erase(std::unique(ordered.begin(), ordered.end()), ordered.end());
  for (const std::uint32_t vm : ordered) {
    SW_EXPECTS(vm < vms_.size());
    wire(vm);
    // The VM's ingress address delivers on the shard hosting its replicas,
    // keeping the whole ingress -> replicate -> deliver path one-core.
    net_->set_node_owner(vms_[vm].addr,
                         plan_.shard_of_machine(vm_machines(vm).front()));
  }
  SW_EXPECTS_MSG(!egress_tap_ || sharded_->shard_count() == 1 ||
                     policy_->tunnels_output() || wired_vms_on_one_shard(),
                 "egress tap is not single-writer under this sharding: the "
                 "policy does not tunnel output, so replica sends fire the "
                 "tap from every shard hosting an active VM");
}

bool TopologyBuilder::wired_vms_on_one_shard() const {
  int owner = -1;
  for (std::uint32_t i = 0; i < vms_.size(); ++i) {
    if (!vms_[i].wired) continue;
    const int o = plan_.shard_of_machine(vm_machines(i).front());
    if (owner == -1) {
      owner = o;
    } else if (o != owner) {
      return false;
    }
  }
  return true;
}

void TopologyBuilder::set_egress_tap(EgressTap tap) {
  SW_EXPECTS_MSG(tap == nullptr || sharded_->shard_count() == 1 ||
                     policy_->tunnels_output() || wired_vms_on_one_shard(),
                 "egress tap is not single-writer under this sharding: the "
                 "policy does not tunnel output, so replica sends fire the "
                 "tap from every shard hosting an active VM");
  egress_tap_ = std::move(tap);
}

bool TopologyBuilder::materialized(std::uint32_t vm) const {
  SW_EXPECTS(vm < vms_.size());
  return vms_[vm].wired != nullptr;
}

NodeId TopologyBuilder::vm_addr(std::uint32_t vm) const {
  SW_EXPECTS(vm < vms_.size());
  return vms_[vm].addr;
}

std::span<const int> TopologyBuilder::vm_machines(std::uint32_t vm) const {
  SW_EXPECTS(vm < vms_.size());
  const auto stride = static_cast<std::size_t>(effective_replicas());
  return std::span<const int>(machines_).subspan(vm * stride, stride);
}

int TopologyBuilder::replicas_of(std::uint32_t vm) const {
  SW_EXPECTS(vm < vms_.size());
  const VmEntry& entry = vms_[vm];
  return entry.wired ? static_cast<int>(entry.wired->replicas.size()) : 0;
}

hypervisor::GuestContext& TopologyBuilder::replica(std::uint32_t vm, int r) {
  SW_EXPECTS(vm < vms_.size());
  SW_EXPECTS_MSG(vms_[vm].wired,
                 "VM '" + vms_[vm].name +
                     "' is not wired: it is outside the activation set");
  const auto& replicas = vms_[vm].wired->replicas;
  SW_EXPECTS(r >= 0 && r < static_cast<int>(replicas.size()));
  return *replicas[static_cast<std::size_t>(r)];
}

const EgressStats& TopologyBuilder::egress_stats(std::uint32_t vm) const {
  SW_EXPECTS(vm < vms_.size());
  static const EgressStats kUnwired{};
  const VmEntry& entry = vms_[vm];
  return entry.wired ? entry.wired->egress_stats : kUnwired;
}

bool TopologyBuilder::replicas_deterministic(std::uint32_t vm) const {
  SW_EXPECTS(vm < vms_.size());
  const VmEntry& entry = vms_[vm];
  if (!entry.wired) return true;
  const auto& replicas = entry.wired->replicas;
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    const auto& a = replicas[0]->output_hashes();
    const auto& b = replicas[i]->output_hashes();
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t k = 0; k < n; ++k) {
      if (a[k] != b[k]) return false;
    }
  }
  return true;
}

std::uint64_t TopologyBuilder::total_divergences() const {
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

hypervisor::PolicyStats TopologyBuilder::aggregate_policy_stats() const {
  // The topology-level instance gates egress releases; each replica's
  // instance makes the delivery/aggregation decisions for that replica.
  hypervisor::PolicyStats total = policy_->stats();
  for (const auto& vm : vms_) {
    if (!vm.wired) continue;
    for (const auto& r : vm.wired->replicas) {
      const hypervisor::PolicyStats& s = r->policy().stats();
      total.deliveries_quantized += s.deliveries_quantized;
      total.egress_releases += s.egress_releases;
      total.replica_aggregations += s.replica_aggregations;
    }
  }
  return total;
}

void TopologyBuilder::on_addr_frame(std::uint32_t vm_index,
                                    const net::Frame& frame) {
  VmEntry& entry = vms_[vm_index];
  SW_EXPECTS_MSG(entry.wired,
                 "VM '" + entry.name +
                     "' is outside the activation set: a frame reached its "
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

void TopologyBuilder::on_ingress_packet(std::uint32_t vm_index,
                                        const net::Packet& pkt) {
  VmEntry& entry = vms_[vm_index];
  SW_ASSERT(entry.wired);  // on_addr_frame rejects unwired VMs
  WiredVm& w = *entry.wired;
  const int first_machine = vm_machines(vm_index).front();
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
    net_->send(std::move(f));
  }
}

void TopologyBuilder::on_machine_frame(int machine_idx,
                                       const net::Frame& frame) {
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
    const std::span<const int> machines = vm_machines(vm_index);
    const auto& replicas = entry.wired->replicas;
    for (std::size_t r = 0; r < replicas.size(); ++r) {
      if (machines[r] == machine_idx) {
        replicas[r]->on_direct_packet(gp->pkt);
        return;
      }
    }
  }
}

void TopologyBuilder::on_egress_frame(const net::Frame& frame) {
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
    if (egress_series_ != nullptr) {
      // Sample at gating time for both the inline and the held path: the
      // release instant is already decided here, so the rollup stays a
      // pure function of sim time (byte-identical across shard counts).
      const std::int64_t released_at =
          egress_core_->now().ns + std::max<std::int64_t>(hold.ns, 0);
      egress_series_->record(
          released_at,
          static_cast<std::uint64_t>(released_at - slot.first_copy_ns));
    }
    if (hold.ns <= 0) {
      if (egress_track_ != nullptr) {
        egress_track_->instant(egress_core_->now().ns, "release", "vm",
                               out->vm.value);
      }
      if (egress_tap_) egress_tap_(out->vm.value, egress_core_->now(), out->pkt);
      net::Frame f;
      f.src = egress_node_;
      f.dst = out->pkt.dst;
      f.size_bytes = out->pkt.size_bytes;
      f.payload = net::GuestPacketPayload{out->pkt};
      net_->send(std::move(f));
    } else {
      if (egress_track_ != nullptr) {
        // The hold is the attacker-relevant quantity: the span runs from
        // the gating copy's arrival to the policy's release instant.
        egress_track_->complete(egress_core_->now().ns, hold.ns, "egress_hold", "vm",
                                out->vm.value);
      }
      const std::uint32_t vm_index = out->vm.value;
      egress_core_->schedule_after(hold, [this, vm_index, pkt = out->pkt] {
        if (egress_track_ != nullptr) {
          egress_track_->instant(egress_core_->now().ns, "release", "vm", vm_index);
        }
        if (egress_tap_) egress_tap_(vm_index, egress_core_->now(), pkt);
        net::Frame f;
        f.src = egress_node_;
        f.dst = pkt.dst;
        f.size_bytes = pkt.size_bytes;
        f.payload = net::GuestPacketPayload{pkt};
        net_->send(std::move(f));
      });
    }
  }
  if (slot.copies >= static_cast<int>(w.replicas.size())) {
    w.egress_slots.erase(out->out_seq);
  }
}

}  // namespace stopwatch::topology
