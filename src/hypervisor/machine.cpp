// Exit planning: the machine merges its guests' exits in time order (see
// "Spans" in guest_context.hpp). GuestContext keeps the per-slice
// arithmetic; this file decides which exits run quietly and where the one
// exit event of the plan lands.
#include "hypervisor/machine.hpp"

#include "hypervisor/guest_context.hpp"

namespace stopwatch::hypervisor {

namespace {
/// A plan reaches at most this far past its start: one PIT period.
constexpr std::int64_t kPlanBoundNs = Duration::micros(4000).ns;
}  // namespace

void Machine::register_guest(GuestContext* guest) {
  SW_EXPECTS(guest != nullptr);
  add_source(guest, guest);
  guests_.push_back(guest);
}

void Machine::add_source(LoadSource* src, GuestContext* guest) {
  on_load_changed();
  sources_.push_back({src, guest});
  if (guest == nullptr) foreign_source_ = true;
}

double Machine::planned_load(const GuestContext* guest) const {
  // The same sum, in the same order, as load_excluding().
  double load = extra_load_;
  for (const Source& s : sources_) {
    if (s.guest == guest) continue;
    load += s.guest != nullptr ? s.guest->cursor_.activity
                               : s.source->activity();
  }
  return load;
}

GuestContext* Machine::earliest(const GuestContext* other_than) const {
  GuestContext* first = nullptr;
  for (GuestContext* g : guests_) {
    if (g == other_than || !g->plannable()) continue;
    if (first == nullptr || g->span_.back().before(first->span_.back())) {
      first = g;
    }
  }
  return first;
}

void Machine::settle() {
  if (last_ == nullptr) return;
  // Until a run_until() has closed now(), the exits at now() still run
  // after the ordinary events there (Tie::kExit).
  const std::int64_t limit =
      sim_->now_closed() ? sim_->now().ns : sim_->now().ns - 1;
  for (GuestContext* g : guests_) g->settle_to(limit);
}

void Machine::plan() {
  settle();
  last_ = nullptr;
  for (GuestContext* g : guests_) g->begin_plan();
  // A guest without an exit in flight starts its slice now, reading the
  // load as it stands.
  const std::int64_t now = sim_->now().ns;
  SliceModel model = slice_model();
  for (GuestContext* g : guests_) {
    if (!g->plannable() || g->in_flight()) continue;
    model.set_load(planned_load(g));
    g->start_first_slice(model, next_slice_seq_++);
  }
  // Merge: the guest with the earliest planned exit runs its quiet exits
  // up to the next guest's, each decaying its activity and starting its
  // next slice; the first exit that is not quiet ends the plan. A step
  // ends where the guest with the runner-up exit takes over, so only that
  // one is looked for; with two guests that takes no comparison.
  const std::int64_t t_bound = now + kPlanBoundNs;
  GuestContext* next = earliest(nullptr);
  while (next != nullptr && !foreign_source_) {
    GuestContext* second = earliest(next);
    const GuestContext::PlannedExit* horizon =
        second != nullptr ? &second->span_.back() : nullptr;
    model.set_load(planned_load(next));
    if (!next->extend(model, horizon, t_bound, next_slice_seq_)) break;
    next = second;
  }
  last_ = next;
  if (last_ != nullptr) {
    arm(last_->span_.back().at_ns);
  } else if (exit_event_) {
    sim_->cancel(*exit_event_);
    exit_event_.reset();
  }
}

void Machine::end_plan_at(GuestContext& guest, std::size_t exit) {
  const GuestContext::PlannedExit last = guest.span_[exit];
  for (GuestContext* g : guests_) {
    if (g->in_flight()) g->truncate_after(last);
  }
  last_ = &guest;
  arm(last.at_ns);
}

void Machine::cut(GuestContext& guest, bool in_flight) {
  settle();
  if (last_ == nullptr || !guest.in_flight()) return;
  const std::size_t exit = in_flight ? guest.span_next_ : guest.first_due_exit();
  // At or past the plan's last exit the next plan sees the input anyway.
  if (!guest.span_[exit].before(last_->span_.back())) return;
  end_plan_at(guest, exit);
}

void Machine::on_load_changed() {
  settle();
  if (last_ == nullptr) return;
  GuestContext* first = nullptr;
  for (GuestContext* g : guests_) {
    if (g->in_flight() &&
        (first == nullptr ||
         g->span_[g->span_next_].before(first->span_[first->span_next_]))) {
      first = g;
    }
  }
  end_plan_at(*first, first->span_next_);
}

void Machine::arm(std::int64_t at_ns) {
  const Duration until{at_ns - sim_->now().ns};
  if (exit_event_ && (sim_->is_executing(*exit_event_) ||
                      sim_->is_scheduled(*exit_event_))) {
    // The common case: the event that ended the last plan re-arms itself
    // — same arena slot, same Task, no allocation per plan.
    sim_->reschedule_after(*exit_event_, until);
  } else {
    exit_event_ = sim_->schedule_after(
        until, [this] { on_exit_event(); }, sim::Tie::kExit);
  }
}

void Machine::on_exit_event() {
  for (GuestContext* g : guests_) {
    if (g->in_flight()) g->run_quiet_exits(g->span_.size() - 1);
  }
  last_->run_last_exit();
  plan();
}

}  // namespace stopwatch::hypervisor
