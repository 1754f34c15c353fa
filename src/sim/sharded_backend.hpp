// Conservative barrier-synchronized parallel execution (PDES) for the
// Simulator, shaped like Shadow's scheduler/worker split.
//
// Model
// -----
// The unit of sequential execution is the *owner* — the AS id the
// ShardAuditor already uses as the provisional shard. Every owner gets a
// logical process (Lp): its own EventQueue, its own RNG stream
// (Rng::stream(seed, owner)), and its own observability lanes. A backend
// built with k shards runs min(k, owners) worker threads; worker w
// executes the owners at positions w, w+k, ... of the ascending owner
// list. All *determinism-bearing* state is per-owner, never per-worker,
// so results are byte-identical at any shard count, including k = 1.
//
// Time is cut into barrier windows of width L = the minimum registered
// cross-owner link latency (Network::connect feeds the registry; at
// least 1 ns, so zero-latency topologies degrade to lockstep rather
// than deadlock). Within a window [W, W_end) every owner dispatches its
// own events independently: an event may affect another owner no sooner
// than one lookahead away, which lands at or beyond the window end.
//
// Cross-owner scheduling NEVER touches another owner's queue directly —
// not even at k = 1, not even between owners on the same worker. Each
// worker has one outbox array indexed by destination slot (one slot per
// owner plus one for the control queue); schedule_for() to a different
// owner appends to the executing worker's slot for that destination. At
// the window barrier every destination gathers its slot from each of the
// workers, so a drain costs O(workers + arrivals) per owner rather than
// one read per source owner. One worker's slot mixes the messages of all
// its source owners, in an order that depends on which owners share the
// worker; but every message carries (time, source owner, source
// sequence), a total key because each source numbers its own sends, and
// the destination sorts its arrivals by that key before enqueueing them.
// The per-owner event order is therefore a pure function of the
// simulation, not of sharding. An arrival earlier than work its
// destination already executed means the producer undercut the declared
// lookahead; the drain throws.
//
// Each worker loops: dispatch its owners' window, wait at `outboxes_final`,
// drain its owners' inboxes, wait at `window_closed`. The work between two
// windows is one step, window_closed's completion function, run by the
// last worker to arrive while every owner is quiescent: it closes the
// window, runs the control rounds due, and publishes the next window or
// ends the run. run()'s own thread runs it once first, so a control-only
// run starts no thread.
//
// Events scheduled with no execution context (scenario setup) or from a
// control event go to a *control queue* that the step runs between
// windows, with every state lane folded first — control work (route
// installation, time-series sampling) sees fully merged state, matching
// the ShardAuditor's declare_control_event contract.
//
// Shared sinks (packet counters, id sources, auditor, profilers) never
// see concurrent writers: workers accumulate into per-owner lanes
// (shard_lane<T>, plus built-in auditor/counter/loop-profiler lanes) that
// are folded in ascending owner order — by the step before control
// events for state lanes, at the end of run() for observability — so
// merged output is shard-count-independent.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/exec_backend.hpp"
#include "sim/exec_profile.hpp"
#include "sim/mem_profile.hpp"
#include "sim/profiler.hpp"
#include "sim/random.hpp"
#include "sim/shard_audit.hpp"
#include "sim/time.hpp"

namespace tussle::sim {

class ShardedBackend final : public ExecutionBackend {
 public:
  /// Owner-directed EventIds carry the owner in bits 40+; ids of events
  /// routed through a barrier inbox set this flag and cannot be cancelled.
  static constexpr std::uint64_t kRemoteId = 1ull << 63;

  ShardedBackend(Simulator& sim, std::size_t shards);
  ~ShardedBackend() override;

  const char* name() const noexcept override { return "sharded"; }

  EventId schedule(SimTime at, TaskTag tag, EventQueue::Action&& action) override;
  EventId schedule_for(ShardId owner, SimTime at, TaskTag tag,
                       EventQueue::Action&& action) override;

  /// Same-owner and quiescent-context cancellation only: a worker may
  /// cancel its own owner's pending events; setup/control code may cancel
  /// anything still queued. Cross-owner cancels and inbox-routed ids
  /// return false — cancellation is state the owner must own.
  bool cancel(EventId id) override;

  std::size_t pending() const override;
  void register_owner(ShardId owner) override;
  void register_lookahead(ShardId a, ShardId b, Duration latency) override;
  std::size_t run(SimTime horizon) override;
  /// Not meaningful under parallel execution; throws std::logic_error.
  bool step() override;

  std::size_t shard_count() const noexcept { return shards_; }
  std::size_t owner_count() const noexcept { return lps_.size(); }
  /// The effective barrier lookahead (min registered cross-owner latency,
  /// clamped to >= 1 ns; one unbounded window when nothing is registered).
  Duration lookahead() const noexcept;
  /// Barrier windows completed across all run() calls (tests/diagnostics).
  std::size_t windows_run() const noexcept { return windows_; }

  // ----------------------------------------------------------- internals --
  /// A cross-owner message parked in a worker's outbox slot for its
  /// destination until the window barrier.
  struct Msg {
    SimTime at;
    ShardId src = kNoShard;
    std::uint64_t seq = 0;  ///< per-source send counter: the canonical tiebreak
    TaskTag tag;
    EventQueue::Action action;
  };

  struct LaneEntry {
    void* obj = nullptr;
    void* base = nullptr;
    LaneFoldFn fold = nullptr;
    LaneDestroyFn destroy = nullptr;
  };

  /// One owner's logical process. Mutated only by its worker inside a
  /// window (or by the between-window step).
  struct Lp {
    ShardId owner = kNoShard;
    EventQueue queue;
    SimTime lp_now{};
    Rng rng{1};
    std::uint64_t out_seq = 0;
    /// The executing worker's outbox array (set at run() start): slot i
    /// buffers messages for lps_[i], the last slot for the control queue.
    std::vector<std::vector<Msg>>* outbox = nullptr;
    /// Reused drain scratch: this owner's arrivals, sorted by pointer.
    std::vector<Msg*> inbox;
    std::map<const void*, LaneEntry> lanes;  ///< shard_lane<T> storage
    ShardAuditor audit;                      ///< lane when a base auditor is attached
    MemProfiler mem;                         ///< lane when a schedule/cancel counter is attached
    LoopProfiler prof;                       ///< lane when a base loop profiler is attached
    std::size_t executed = 0;
    std::exception_ptr error;

    ~Lp();
  };

  /// Lane lookup/creation for the owner `lp` (see shard_lane<T>).
  static void* lane(Lp& lp, void* base, LaneMakeFn make, LaneFoldFn fold,
                    LaneDestroyFn destroy);

 private:
  Lp& lp_for(ShardId owner);  ///< creates pre-run; throws for unknown owners mid-run
  EventId push_control(SimTime at, TaskTag tag, EventQueue::Action&& action);
  EventId push_direct(Lp& lp, SimTime at, TaskTag tag, EventQueue::Action&& action);
  /// Dispatches lp's events inside the window; returns how many ran. `xl`
  /// is the calling worker's exec-profiler lane (nullptr when detached).
  std::size_t process_lp(Lp& lp, SimTime window_end, ExecProfiler::WorkerLane* xl);
  /// Gathers inbox `index` (slot `index` of every worker's outbox) into
  /// `order` in canonical arrival order — (time, source owner, source
  /// sequence), a pure function of the simulation — calling
  /// `on_source(src_owner, count)` once per contiguous run of one source's
  /// messages in a slot. The messages stay in the outboxes until
  /// clear_inbox(index).
  template <typename OnSource>
  void gather_inbox(std::size_t index, std::vector<Msg*>& order, OnSource on_source);
  void clear_inbox(std::size_t index);
  void drain_lp(std::size_t index, Lp& dst, ExecProfiler::WorkerLane* xl);
  void drain_control_inbox();
  std::size_t run_control_at(SimTime tc);
  void fold_state_lanes();
  void merge_observability();

  std::size_t shards_ = 1;
  std::vector<std::unique_ptr<Lp>> lps_;  ///< ascending owner order
  /// outboxes_[w][slot]: worker w's messages for lps_[slot] (the last slot
  /// is the control queue's). Sized at run() start; capacity persists.
  std::vector<std::vector<std::vector<Msg>>> outboxes_;
  std::map<ShardId, std::size_t> index_;  ///< owner -> position in lps_
  EventQueue control_;
  std::vector<Msg*> control_inbox_;  ///< drain_control_inbox scratch
  std::int64_t lookahead_ns_ = -1;  ///< min registered cross-owner latency; -1 = none
  bool running_ = false;

  // Round state: written by the between-window step, read by workers after
  // window_closed returns (the barrier orders the accesses).
  SimTime window_end_{};
  bool done_ = false;
  std::size_t windows_ = 0;
};

}  // namespace tussle::sim
