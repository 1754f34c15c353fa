#include "sim/sharded_backend.hpp"

#include <algorithm>
#include <barrier>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "sim/simulator.hpp"

namespace tussle::sim {

namespace {

/// Installs/uninstalls the thread's ExecCtx with unwind safety: a throwing
/// event handler must not leave a stale context behind.
class CtxGuard {
 public:
  explicit CtxGuard(ExecCtx* ctx) noexcept { detail::set_exec_ctx(ctx); }
  ~CtxGuard() { detail::set_exec_ctx(nullptr); }
  CtxGuard(const CtxGuard&) = delete;
  CtxGuard& operator=(const CtxGuard&) = delete;
};

}  // namespace

ShardedBackend::Lp::~Lp() {
  for (auto& [base, entry] : lanes) {
    if (entry.destroy != nullptr) entry.destroy(entry.obj);
  }
}

ShardedBackend::ShardedBackend(Simulator& sim, std::size_t shards)
    : ExecutionBackend(sim), shards_(shards == 0 ? 1 : shards) {}

ShardedBackend::~ShardedBackend() = default;

// --------------------------------------------------------------- registry --

void ShardedBackend::register_owner(ShardId owner) {
  if (owner == kNoShard || owner == kSharedShard) return;  // sentinels own nothing
  if (index_.count(owner) != 0) return;
  if (running_) {
    throw std::logic_error(
        "ShardedBackend: owner " + std::to_string(owner) +
        " registered mid-run; the owner set must be fixed before run()");
  }
  auto lp = std::make_unique<Lp>();
  lp->owner = owner;
  // Namespace the owner's event ids so cancel() can route by id. Bits 40+
  // hold owner+1 (0 stays the control queue); bit 63 flags inbox-routed ids.
  lp->queue.set_id_base((static_cast<std::uint64_t>(owner) + 1) << 40);
  lp->rng = Rng::stream(sim_seed(), owner);
  const auto pos = std::lower_bound(
      lps_.begin(), lps_.end(), owner,
      [](const std::unique_ptr<Lp>& a, ShardId o) { return a->owner < o; });
  lps_.insert(pos, std::move(lp));
  index_.clear();
  for (std::size_t i = 0; i < lps_.size(); ++i) index_.emplace(lps_[i]->owner, i);
}

void ShardedBackend::register_lookahead(ShardId a, ShardId b, Duration latency) {
  if (a == b) return;  // intra-owner links do not bound the window
  const std::int64_t ns = latency.as_nanos() < 0 ? 0 : latency.as_nanos();
  if (lookahead_ns_ < 0 || ns < lookahead_ns_) lookahead_ns_ = ns;
}

Duration ShardedBackend::lookahead() const noexcept {
  if (lookahead_ns_ < 0) return SimTime::max();
  return SimTime::nanos(lookahead_ns_ < 1 ? 1 : lookahead_ns_);
}

ShardedBackend::Lp& ShardedBackend::lp_for(ShardId owner) {
  const auto it = index_.find(owner);
  if (it != index_.end()) return *lps_[it->second];
  register_owner(owner);  // throws mid-run
  const auto it2 = index_.find(owner);
  if (it2 == index_.end()) {
    throw std::logic_error("ShardedBackend: cannot schedule for sentinel owner " +
                           std::to_string(owner));
  }
  return *lps_[it2->second];
}

// ------------------------------------------------------------- scheduling --

EventId ShardedBackend::push_control(SimTime at, TaskTag tag, EventQueue::Action&& action) {
  const EventId id = control_.push(at, std::move(action), tag);
  if (MemProfiler* mm = mem_hook()) mm->on_schedule();
  return id;
}

EventId ShardedBackend::push_direct(Lp& lp, SimTime at, TaskTag tag,
                                    EventQueue::Action&& action) {
  const EventId id = lp.queue.push(at, std::move(action), tag);
  if (MemProfiler* mm = mem_hook()) mm->on_schedule();
  return id;
}

EventId ShardedBackend::schedule(SimTime at, TaskTag tag, EventQueue::Action&& action) {
  ExecCtx* c = current_exec_ctx();
  if (c != nullptr && c->sim == &sim() && c->lp != nullptr) {
    // A worker event scheduling for its own owner: plain per-owner push.
    Lp& lp = *static_cast<Lp*>(c->lp);
    const EventId id = lp.queue.push(at, std::move(action), tag);
    if (mem_hook() != nullptr) lp.mem.on_schedule();
    return id;
  }
  // Setup code or a control event: global work runs on the control queue at
  // a barrier, with every shard quiescent.
  return push_control(at, tag, std::move(action));
}

EventId ShardedBackend::schedule_for(ShardId owner, SimTime at, TaskTag tag,
                                     EventQueue::Action&& action) {
  ExecCtx* c = current_exec_ctx();
  const bool worker = c != nullptr && c->sim == &sim() && c->lp != nullptr;
  if (!worker) {
    // Setup or control context: the world is quiescent, push directly into
    // the owner's queue (deterministic — single-threaded by construction).
    if (owner == kNoShard || owner == kSharedShard) {
      return push_control(at, tag, std::move(action));
    }
    return push_direct(lp_for(owner), at, tag, std::move(action));
  }

  Lp& src = *static_cast<Lp*>(c->lp);
  if (owner == src.owner) {
    const EventId id = src.queue.push(at, std::move(action), tag);
    if (mem_hook() != nullptr) src.mem.on_schedule();
    return id;
  }

  // Cross-owner (or owner-less control) message from a worker event: park it
  // in this worker's outbox slot for the destination; the destination
  // gathers every worker's slot, sorts by (time, source owner, source
  // sequence), and enqueues at the next barrier. This path is taken even
  // when both owners share a worker — the event order a destination sees
  // must be a function of the simulation, not of the owner-to-worker
  // assignment.
  std::size_t slot;
  if (owner == kNoShard || owner == kSharedShard) {
    slot = lps_.size();  // the control-queue inbox
  } else {
    const auto it = index_.find(owner);
    if (it == index_.end()) {
      throw std::logic_error(
          "ShardedBackend::schedule_for: unknown owner " + std::to_string(owner) +
          "; owners must be registered (Network::add_node) before run()");
    }
    slot = it->second;
  }
  const std::uint64_t seq = src.out_seq++;
  Msg& m = (*src.outbox)[slot].emplace_back();
  m.at = at;
  m.src = src.owner;
  m.seq = seq;
  m.tag = tag;
  m.action = std::move(action);
  // A synthetic, non-cancellable id: the destination assigns the real one
  // when it drains the inbox.
  return EventId{kRemoteId | (((static_cast<std::uint64_t>(src.owner) + 1) << 40) + seq + 1)};
}

bool ShardedBackend::cancel(EventId id) {
  if (id.value == 0 || (id.value & kRemoteId) != 0) return false;  // inbox-routed
  const std::uint64_t owner_p1 = id.value >> 40;
  ExecCtx* c = current_exec_ctx();
  const bool worker = c != nullptr && c->sim == &sim() && c->lp != nullptr;
  if (owner_p1 == 0) {
    if (worker) return false;  // only quiescent code touches the control queue
    const bool ok = control_.cancel(id);
    if (ok && mem_hook() != nullptr) mem_hook()->on_cancel();
    return ok;
  }
  const auto it = index_.find(static_cast<ShardId>(owner_p1 - 1));
  if (it == index_.end()) return false;
  Lp& lp = *lps_[it->second];
  if (worker && c->lp != &lp) return false;  // cross-owner cancel would race
  const bool ok = lp.queue.cancel(id);
  if (ok && mem_hook() != nullptr) {
    // A worker counts into its own owner's lane; setup and control code
    // count into the attached counter directly.
    (worker ? &lp.mem : mem_hook())->on_cancel();
  }
  return ok;
}

std::size_t ShardedBackend::pending() const {
  std::size_t n = control_.size();
  for (const auto& lp : lps_) n += lp->queue.size();
  return n;
}

bool ShardedBackend::step() {
  throw std::logic_error(
      "Simulator::step() is not supported by the sharded backend: there is no "
      "single global next event; use run() or the serial backend");
}

// ---------------------------------------------------------------- dispatch --

std::size_t ShardedBackend::process_lp(Lp& lp, SimTime window_end,
                                       ExecProfiler::WorkerLane* xl) {
  ShardAuditor* const au = auditor_hook() != nullptr ? &lp.audit : nullptr;
  LoopProfiler* const pr = profiler_hook() != nullptr ? &lp.prof : nullptr;
  ExecCtx ctx;
  ctx.sim = &sim();
  ctx.lp = &lp;
  ctx.rng = &lp.rng;
  ctx.auditor = au;
  ctx.owner = lp.owner;
  CtxGuard guard(&ctx);
  std::size_t n = 0;
  while (!lp.queue.empty() && lp.queue.next_time() < window_end) {
    auto ev = lp.queue.pop();
    lp.lp_now = ev.time;
    ctx.now = ev.time;
    dispatch_event(ev, au, pr);
    ++lp.executed;
    ++n;
    if (stop_requested()) break;  // finish no more events; the window still closes
  }
  if (xl != nullptr && n > 0) xl->owner_events(lp.owner, n);
  return n;
}

template <typename OnSource>
void ShardedBackend::gather_inbox(std::size_t index, std::vector<Msg*>& order,
                                  OnSource on_source) {
  // Each outbox slot has exactly one reader (its destination's worker, or
  // the between-window step for the control slot) after the barrier, so
  // the gather is race-free without locks. A worker runs each of its owners
  // to completion within a window, so one source's messages are contiguous
  // in a slot and each run is reported once.
  order.clear();
  for (auto& outbox : outboxes_) {
    ShardId run_src = kNoShard;
    std::size_t run_n = 0;
    for (Msg& m : outbox[index]) {
      if (m.src != run_src) {
        if (run_n != 0) on_source(run_src, run_n);
        run_src = m.src;
        run_n = 0;
      }
      ++run_n;
      order.push_back(&m);
    }
    if (run_n != 0) on_source(run_src, run_n);
  }
  // Sorting pointers leaves the messages (and their closures) in place.
  std::sort(order.begin(), order.end(), [](const Msg* a, const Msg* b) {
    if (a->at != b->at) return a->at < b->at;
    if (a->src != b->src) return a->src < b->src;
    return a->seq < b->seq;
  });
}

void ShardedBackend::clear_inbox(std::size_t index) {
  for (auto& outbox : outboxes_) outbox[index].clear();
}

void ShardedBackend::drain_lp(std::size_t index, Lp& dst, ExecProfiler::WorkerLane* xl) {
  gather_inbox(index, dst.inbox, [&](ShardId src, std::size_t n) {
    if (xl != nullptr) xl->drained(src, dst.owner, n);
  });
  if (dst.inbox.empty()) return;
  // Arrivals are sorted by time, so the earliest one decides whether the
  // producer undercut the declared lookahead.
  if (const Msg& m = *dst.inbox.front(); m.at < dst.lp_now) {
    std::logic_error error(
        "ShardedBackend: cross-shard lookahead violated — owner " +
        std::to_string(m.src) + " sent an event for owner " +
        std::to_string(dst.owner) + " at t=" + std::to_string(m.at.as_nanos()) +
        "ns, which already executed up to t=" +
        std::to_string(dst.lp_now.as_nanos()) +
        "ns; register the true minimum cross-owner latency "
        "(Simulator::register_lookahead) or schedule no earlier than one "
        "lookahead ahead");
    clear_inbox(index);  // destroys m: the message is built first
    throw error;
  }
  const bool mem = mem_hook() != nullptr;
  for (Msg* m : dst.inbox) {
    dst.queue.push(m->at, std::move(m->action), m->tag);
    if (mem) dst.mem.on_schedule();
  }
  clear_inbox(index);
}

void ShardedBackend::drain_control_inbox() {
  ExecProfiler* const ex = exec_hook();
  const std::size_t index = lps_.size();
  gather_inbox(index, control_inbox_, [&](ShardId src, std::size_t n) {
    if (ex != nullptr) ex->record_drained(src, kNoShard, n);
  });
  if (control_inbox_.empty()) return;
  MemProfiler* const mm = mem_hook();
  for (Msg* m : control_inbox_) {
    control_.push(m->at, std::move(m->action), m->tag);
    if (mm != nullptr) mm->on_schedule();
  }
  clear_inbox(index);
}

std::size_t ShardedBackend::run_control_at(SimTime tc) {
  // Control events see the merged world: fold every state lane first, in
  // ascending owner order, so e.g. a time-series sample reads the same
  // counter values at any shard count.
  ExecProfiler* const ex = exec_hook();
  const double xt0 = ex != nullptr ? wall_now_seconds() : 0;
  fold_state_lanes();
  const double xt1 = ex != nullptr ? wall_now_seconds() : 0;
  std::size_t n = 0;
  ShardAuditor* au = auditor_hook();
  LoopProfiler* pr = profiler_hook();
  ExecCtx ctx;
  ctx.sim = &sim();
  ctx.control = true;
  ctx.rng = &base_rng();
  ctx.auditor = au;
  CtxGuard guard(&ctx);
  while (!control_.empty() && control_.next_time() == tc && !stop_requested()) {
    auto ev = control_.pop();
    set_base_now(ev.time);
    ctx.now = ev.time;
    dispatch_event(ev, au, pr, ev.tag.kind != nullptr ? ev.tag.kind : "control");
    ++n;
  }
  if (ex != nullptr) ex->record_control(xt0, xt1 - xt0, wall_now_seconds() - xt1, n);
  return n;
}

// ------------------------------------------------------------------ lanes --

void* ShardedBackend::lane(Lp& lp, void* base, LaneMakeFn make, LaneFoldFn fold,
                           LaneDestroyFn destroy) {
  auto it = lp.lanes.find(base);
  if (it == lp.lanes.end()) {
    LaneEntry e;
    e.obj = make(base, lp.owner);
    e.base = base;
    e.fold = fold;
    e.destroy = destroy;
    it = lp.lanes.emplace(base, e).first;
  }
  return it->second.obj;
}

void* shard_lane_raw(Simulator& sim, void* base, LaneMakeFn make, LaneFoldFn fold,
                     LaneDestroyFn destroy) {
  // Only ShardedBackend installs a context with `lp` set, so a non-null
  // `lp` is one of its logical processes.
  ExecCtx* c = current_exec_ctx();
  if (c == nullptr || c->sim != &sim || c->lp == nullptr) return nullptr;
  return ShardedBackend::lane(*static_cast<ShardedBackend::Lp*>(c->lp), base, make, fold,
                              destroy);
}

void ShardedBackend::fold_state_lanes() {
  // Ascending owner order (lps_ is sorted), so merged results never depend
  // on the shard count. Folds reset the lane, so they are incremental.
  for (auto& lp : lps_) {
    for (auto& [base, entry] : lp->lanes) entry.fold(entry.base, entry.obj);
  }
}

void ShardedBackend::merge_observability() {
  // Unlike state lanes, the profiling sinks merge once per run (their merge
  // semantics treat each source as a completed run), so this happens at the
  // end of run() only, again in ascending owner order. The schedule/cancel
  // counter merges here too: it is a plain sum, read only after run().
  ShardAuditor* au = auditor_hook();
  MemProfiler* mm = mem_hook();
  LoopProfiler* pr = profiler_hook();
  for (auto& lp : lps_) {
    if (au != nullptr) {
      au->merge(lp->audit);
      lp->audit = ShardAuditor{};
      lp->audit.set_fail_fast(au->fail_fast());
    }
    if (mm != nullptr) {
      mm->merge(lp->mem);
      lp->mem = MemProfiler{};
    }
    if (pr != nullptr) {
      pr->merge(lp->prof);
      lp->prof.reset();
    }
  }
}

// -------------------------------------------------------------------- run --

std::size_t ShardedBackend::run(SimTime horizon) {
  clear_stop();
  running_ = true;
  if (const ShardAuditor* au = auditor_hook()) {
    for (auto& lp : lps_) lp->audit.set_fail_fast(au->fail_fast());
  }
  // One outbox array per worker, each with a slot per owner plus the
  // control slot; owner i runs on worker i % nw and appends to its array.
  const std::size_t nw = std::min(shards_, lps_.size());
  outboxes_.resize(nw);
  for (auto& outbox : outboxes_) outbox.resize(lps_.size() + 1);
  for (std::size_t i = 0; i < lps_.size(); ++i) {
    lps_[i]->outbox = &outboxes_[i % nw];
    lps_[i]->error = nullptr;
  }

  const std::int64_t max_ns = SimTime::max().as_nanos();
  const std::int64_t la_ns =
      lookahead_ns_ < 0 ? max_ns : (lookahead_ns_ < 1 ? 1 : lookahead_ns_);

  std::size_t start_executed = 0;
  for (const auto& lp : lps_) start_executed += lp->executed;
  std::size_t control_n = 0;
  std::atomic<bool> failed{false};
  done_ = false;

  // Execution profiler: workers time their slice of each window through a
  // private lane; the step brackets windows and control batches. Detached
  // runs pay one null-pointer branch per window, never per event.
  ExecProfiler* const ex = exec_hook();
  const double run_wall = ex != nullptr ? ex->begin_run("sharded", nw, la_ns) : 0;
  const bool hb = heartbeat_active();
  if (hb) heartbeat_begin_run();

  // The between-window step. This thread runs it once before any worker
  // starts; after that it is window_closed's completion, run by whichever
  // worker arrives last while the others are parked in the barrier, so it
  // may touch every Lp. It closes the window just run, runs the control
  // rounds due before the next owner event, then publishes the next window
  // or sets done_. A barrier completion must not throw: an error is kept
  // and rethrown once the workers have joined.
  std::exception_ptr step_error;
  bool window_open = false;
  auto step = [&]() noexcept {
    try {
      if (window_open) {
        window_open = false;
        if (ex != nullptr) ex->end_window();
        drain_control_inbox();
        ++windows_;
        if (hb) {
          // Every owner has simulated through window_end_; the beat reports
          // lifetime events including this run's so far.
          std::size_t exec_now = 0;
          for (const auto& lp : lps_) exec_now += lp->executed;
          heartbeat_tick(window_end_,
                         sim().events_executed() + control_n + (exec_now - start_executed),
                         pending());
        }
      }
      while (!stop_requested() && !failed.load(std::memory_order_relaxed)) {
        // Next control time and next shard-event time decide the round kind.
        const bool have_c = !control_.empty();
        const SimTime tc = have_c ? control_.next_time() : SimTime::max();
        bool have_q = false;
        SimTime tq = SimTime::max();
        for (const auto& lp : lps_) {
          if (lp->queue.empty()) continue;
          have_q = true;
          tq = std::min(tq, lp->queue.next_time());
        }
        if ((!have_c && !have_q) || std::min(tc, tq) > horizon) break;
        if (have_c && tc <= tq) {
          // Control events run before shard events at the same instant, with
          // every shard quiescent and all state lanes folded.
          control_n += run_control_at(tc);
          continue;
        }
        // Publish one barrier window [tq, window_end_).
        const std::int64_t start_ns = tq.as_nanos();
        std::int64_t end_ns = (max_ns - start_ns > la_ns) ? start_ns + la_ns : max_ns;
        if (have_c) end_ns = std::min(end_ns, tc.as_nanos());
        if (horizon != SimTime::max()) end_ns = std::min(end_ns, horizon.as_nanos() + 1);
        window_end_ = SimTime::nanos(end_ns);
        if (ex != nullptr) ex->begin_window(start_ns, end_ns);
        window_open = true;
        return;
      }
    } catch (...) {
      step_error = std::current_exception();
    }
    done_ = true;
  };

  step();
  if (!done_) {
    // A window was published, so there is at least one owner and nw >= 1.
    // outboxes_final orders every send of the window before any drain;
    // window_closed orders every drain before the step, and the step before
    // the next window's dispatch.
    std::barrier outboxes_final(static_cast<std::ptrdiff_t>(nw));
    std::barrier window_closed(static_cast<std::ptrdiff_t>(nw), step);
    std::vector<std::jthread> workers;
    workers.reserve(nw);
    for (std::size_t w = 0; w < nw; ++w) {
      ExecProfiler::WorkerLane* const xl = ex != nullptr ? &ex->lane(w) : nullptr;
      workers.emplace_back([this, w, nw, &outboxes_final, &window_closed, &failed, xl,
                            run_wall] {
        do {
          // The wall readings bracket this worker's window: dispatch, the
          // wait for every outbox, drain, and the wait to close the window
          // (which includes the step).
          const double t0 = xl != nullptr ? wall_now_seconds() : 0;
          std::uint64_t events = 0;
          for (std::size_t i = w; i < lps_.size(); i += nw) {
            try {
              events += process_lp(*lps_[i], window_end_, xl);
            } catch (...) {
              lps_[i]->error = std::current_exception();
              failed.store(true, std::memory_order_relaxed);
            }
          }
          const double t1 = xl != nullptr ? wall_now_seconds() : 0;
          outboxes_final.arrive_and_wait();
          const double t2 = xl != nullptr ? wall_now_seconds() : 0;
          for (std::size_t i = w; i < lps_.size(); i += nw) {
            try {
              drain_lp(i, *lps_[i], xl);
            } catch (...) {
              lps_[i]->error = std::current_exception();
              failed.store(true, std::memory_order_relaxed);
            }
          }
          const double t3 = xl != nullptr ? wall_now_seconds() : 0;
          window_closed.arrive_and_wait();
          if (xl != nullptr) {
            xl->window((t2 - t1) + (wall_now_seconds() - t3), t1 - t0, t3 - t2,
                       t0 - run_wall, t2 - run_wall, events);
          }
        } while (!done_);
      });
    }
  }  // the jthreads join before the barriers they use are destroyed

  const double fold_wall = ex != nullptr ? wall_now_seconds() : 0;
  fold_state_lanes();
  merge_observability();
  running_ = false;
  if (ex != nullptr) {
    ex->record_fold(wall_now_seconds() - fold_wall);
    // Error paths skip end_run: a failed run's partial record is discarded
    // by the next begin_run rather than reported as a complete run.
    if (step_error == nullptr && !failed.load(std::memory_order_relaxed)) ex->end_run();
  }

  // Advance the global clock: the furthest any owner actually executed,
  // then the horizon if we drained before reaching it (serial semantics).
  SimTime end_now = base_now();
  for (const auto& lp : lps_) end_now = std::max(end_now, lp->lp_now);
  set_base_now(end_now);
  if (step_error != nullptr) std::rethrow_exception(step_error);
  for (const auto& lp : lps_) {
    if (lp->error != nullptr) std::rethrow_exception(lp->error);
  }
  if (!stop_requested() && base_now() < horizon && horizon != SimTime::max()) {
    set_base_now(horizon);
  }

  std::size_t executed_now = 0;
  for (const auto& lp : lps_) executed_now += lp->executed;
  const std::size_t n = control_n + (executed_now - start_executed);
  add_executed(n);
  return n;
}

}  // namespace tussle::sim
