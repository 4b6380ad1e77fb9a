// The guest VM model: a uniprocessor HVM guest whose externally visible
// behaviour is a *deterministic function* of (program, injected interrupt
// sequence, injection instruction points) — the property StopWatch enforces
// and exploits (paper Sec. VI).
//
// The guest is an instruction engine: it executes Tasks (instruction-costed
// units of work) from a run queue; when the queue is empty it runs an idle
// loop that still burns instructions, so guest progress (and hence virtual
// time) never stalls. Interrupt handlers are Tasks injected at the front of
// the queue at VM entries. Guest programs never see real time: the only
// clock available through GuestApi is the virtual clock provided by the VMM.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "net/packet.hpp"

namespace stopwatch::vm {

/// I/O operations a guest emits; collected by the VMM at guest-caused VM
/// exits (each one models a trapping I/O instruction).
struct DiskReadOp {
  std::uint64_t request_id{0};
  std::uint32_t bytes{0};
};
struct DiskWriteOp {
  std::uint64_t request_id{0};
  std::uint32_t bytes{0};
};
struct SendPacketOp {
  net::Packet pkt;
};
using GuestIoOp = std::variant<DiskReadOp, DiskWriteOp, SendPacketOp>;

/// The services a guest program may use. All of them are deterministic in
/// guest-visible state; none expose real time.
class GuestApi {
 public:
  virtual ~GuestApi() = default;

  /// Current virtual time (Eqn. 1 under StopWatch; real time under the
  /// unmodified-Xen baseline policy).
  [[nodiscard]] virtual VirtTime now() const = 0;

  /// Emulated time-stamp counter (cycles derived from the virtual clock).
  [[nodiscard]] virtual std::uint64_t rdtsc() const = 0;

  /// Emulated CMOS RTC: whole seconds of virtual time.
  [[nodiscard]] virtual std::uint64_t rtc_seconds() const = 0;

  /// Emulated PIT counter readback: the 16-bit down-counter reloaded at
  /// 250 Hz, paced by *virtual* time (paper Sec. IV-B "Reading counters").
  [[nodiscard]] virtual std::uint32_t pit_counter() const = 0;

  /// Instructions retired so far (for programs that self-meter work).
  [[nodiscard]] virtual std::uint64_t instructions() const = 0;

  /// Burn `instr` instructions of computation, then call `done`.
  virtual void compute(std::uint64_t instr, std::function<void()> done) = 0;

  /// Issue a disk read of `bytes`; `done` runs in the completion-interrupt
  /// handler.
  virtual void disk_read(std::uint32_t bytes, std::function<void()> done) = 0;

  /// Issue a disk write of `bytes`; `done` runs in the completion-interrupt
  /// handler.
  virtual void disk_write(std::uint32_t bytes, std::function<void()> done) = 0;

  /// Emit a network packet (the VMM decides how it leaves the machine).
  /// `pkt.src` is filled with the VM's logical address.
  virtual void send_packet(net::Packet pkt) = 0;

  /// One-shot timer in virtual time.
  virtual void set_timer(Duration delay, std::function<void()> cb) = 0;

  /// Deterministic per-VM randomness (identical across replicas).
  virtual Rng& det_rng() = 0;

  /// Logical network address of this VM.
  [[nodiscard]] virtual NodeId self_addr() const = 0;
};

/// A guest application. Implementations live in src/workload.
class GuestProgram {
 public:
  virtual ~GuestProgram() = default;
  virtual void on_boot(GuestApi& api) = 0;
  /// 250 Hz PIT tick (paper's experimental guest configuration).
  virtual void on_timer_tick(GuestApi& api, std::uint64_t tick) = 0;
  virtual void on_packet(GuestApi& api, const net::Packet& pkt) = 0;
};

/// Counters exposed for experiments.
struct GuestCounters {
  std::uint64_t timer_ticks{0};
  std::uint64_t net_interrupts{0};
  std::uint64_t disk_interrupts{0};
  std::uint64_t packets_sent{0};
  std::uint64_t disk_requests{0};
};

/// The instruction engine. Owned and driven by the hypervisor's
/// GuestContext; one instance per replica.
class GuestVm final : private GuestApi {
 public:
  /// `clock` maps the guest's retired-instruction count to virtual time and
  /// is owned by the VMM. `det_seed` must be identical across replicas.
  GuestVm(VmId id, NodeId self_addr, std::unique_ptr<GuestProgram> program,
          std::uint64_t det_seed, std::function<VirtTime()> clock);

  GuestVm(const GuestVm&) = delete;
  GuestVm& operator=(const GuestVm&) = delete;

  /// Runs on_boot. Must be called exactly once before execution.
  void boot();

  // --- Instruction engine (called by the VMM execution driver) ---

  /// Instructions retired so far.
  [[nodiscard]] std::uint64_t instr() const { return instr_; }

  /// Instructions until the current task (or idle chunk) completes. Always
  /// >= 1.
  [[nodiscard]] std::uint64_t instr_to_boundary() const;

  /// Advance exactly `n` instructions, n <= instr_to_boundary(). If the
  /// current task completes, its completion logic runs (and may enqueue
  /// further tasks and I/O operations).
  void advance(std::uint64_t n);

  /// Advances an idle guest by `n` instructions, its lone idle chunk
  /// restarting whenever it ends: the same as advance() over any run of
  /// exits that retire `n` in total, each within one chunk.
  void advance_idle(std::uint64_t n);

  // --- VM entry (interrupt injection; only at guest-caused exits) ---
  //
  // Injections are staged and applied by commit_injections() so that
  // handlers execute in injection order (vPIC priority order chosen by the
  // VMM), ahead of previously queued guest work.

  void inject_timer_tick();
  void inject_net_packet(const net::Packet& pkt);
  void inject_disk_complete(std::uint64_t request_id);

  /// Fire guest virtual-time timers due by `now_ns`, the guest clock at
  /// this exit (called by the VMM at guest-caused exits, where virtual time
  /// is well defined). Staged like interrupt handlers.
  void fire_due_timers(std::int64_t now_ns);

  /// Pushes staged handlers onto the run queue (in injection order) — the
  /// VM entry. Must be called after inject_* / fire_due_timers.
  void commit_injections();

  /// I/O operations emitted since the last drain.
  [[nodiscard]] std::vector<GuestIoOp> drain_io_ops();
  /// Whether drain_io_ops() would return anything.
  [[nodiscard]] bool has_io_ops() const { return !pending_io_.empty(); }

  /// True while the guest only runs its idle loop (used for the host load
  /// model, not for anything guest-visible).
  [[nodiscard]] bool is_idle() const {
    return run_queue_.front().idle && only_task();
  }

  /// Guest clock deadline of the earliest pending guest timer (INT64_MAX
  /// when none is set).
  [[nodiscard]] std::int64_t next_timer_ns() const {
    return timers_.empty() ? INT64_MAX : timers_.begin()->first;
  }

  /// Instructions in one idle-loop chunk: an idle guest alone in its run
  /// queue completes one chunk and starts the next at every chunk end.
  static constexpr std::uint64_t kIdleChunkInstr = 20'000;

  [[nodiscard]] const GuestCounters& counters() const { return counters_; }
  [[nodiscard]] VmId id() const { return id_; }
  [[nodiscard]] GuestProgram& program() { return *program_; }

 private:
  // GuestApi implementation.
  [[nodiscard]] VirtTime now() const override { return clock_(); }
  [[nodiscard]] std::uint64_t rdtsc() const override {
    // 3 "cycles" per virtual nanosecond, like a 3 GHz part.
    return static_cast<std::uint64_t>(clock_().ns) * 3;
  }
  [[nodiscard]] std::uint64_t rtc_seconds() const override {
    return static_cast<std::uint64_t>(clock_().ns / 1'000'000'000);
  }
  [[nodiscard]] std::uint32_t pit_counter() const override {
    // PIT oscillator 1.193182 MHz; reload for a 250 Hz tick = 4772 counts.
    constexpr double kPitHz = 1'193'182.0;
    constexpr std::uint32_t kReload = 4772;
    const auto ticks = static_cast<std::uint64_t>(
        static_cast<double>(clock_().ns) * kPitHz / 1e9);
    return kReload - static_cast<std::uint32_t>(ticks % kReload);
  }
  [[nodiscard]] std::uint64_t instructions() const override { return instr_; }
  void compute(std::uint64_t instr, std::function<void()> done) override;
  void disk_read(std::uint32_t bytes, std::function<void()> done) override;
  void disk_write(std::uint32_t bytes, std::function<void()> done) override;
  void send_packet(net::Packet pkt) override;
  void set_timer(Duration delay, std::function<void()> cb) override;
  Rng& det_rng() override { return det_rng_; }
  [[nodiscard]] NodeId self_addr() const override { return self_addr_; }

  struct Task {
    std::uint64_t remaining{0};
    std::function<void()> on_complete;  // may be null (idle chunk)
    bool idle{false};
  };

  void stage_handler(std::uint64_t cost, std::function<void()> body);
  void ensure_runnable();
  /// The run queue holds exactly one task (without deque::size()).
  [[nodiscard]] bool only_task() const {
    return &run_queue_.front() == &run_queue_.back();
  }

  static constexpr std::uint64_t kIrqHandlerInstr = 2'000;

  VmId id_{};
  NodeId self_addr_{};
  std::unique_ptr<GuestProgram> program_;
  Rng det_rng_;
  std::function<VirtTime()> clock_;

  std::uint64_t instr_{0};
  std::deque<Task> run_queue_;
  std::vector<Task> staged_handlers_;
  std::vector<GuestIoOp> pending_io_;
  std::map<std::uint64_t, std::function<void()>> disk_waiters_;
  std::uint64_t next_disk_request_{1};
  std::uint64_t timer_tick_count_{0};

  // Guest virtual-time timers: multimap deadline -> callback.
  std::multimap<std::int64_t, std::function<void()>> timers_;

  GuestCounters counters_;
  bool booted_{false};
};

}  // namespace stopwatch::vm
