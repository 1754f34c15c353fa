// ExecProfiler: wall-clock runtime observability for both backends.
//
// Under test: the window/stall accounting (phase totals, worker shares,
// occupancy buckets, outbox volumes assembled from worker lanes), the
// slice cap, the validation replay of the virtual-barrier LPT model, the
// serial-vs-sharded hook parity (both backends record runs with the same
// schema and event totals), Chrome-trace structure, merge semantics, and
// — the determinism side — that attaching or detaching the profiler never
// changes what a run computes.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/exec_profile.hpp"
#include "sim/sharded_backend.hpp"
#include "sim/simulator.hpp"

namespace tussle::sim {
namespace {

ShardedBackend& install_sharded(Simulator& sim, std::size_t shards) {
  sim.set_backend(std::make_unique<ShardedBackend>(sim, shards));
  return dynamic_cast<ShardedBackend&>(sim.backend());
}

/// One synthetic two-worker window with hand-picked timings, so the
/// accounting assertions are exact (wall-clock noise only enters through
/// Run::elapsed and Window::elapsed, which these tests treat as >= 0).
void record_synthetic_run(ExecProfiler& ep) {
  const double run_wall = ep.begin_run("sharded", 2, 1'000'000);
  ep.begin_window(0, 1'000'000);
  ExecProfiler::WorkerLane& w0 = ep.lane(0);
  w0.owner_events(1, 10);
  w0.drained(1, 2, 4);
  w0.window(/*barrier_s=*/0.10, /*dispatch_s=*/0.20, /*drain_s=*/0.02,
            /*dispatch_start=*/0.125, /*drain_start=*/0.5, /*events=*/10);
  ExecProfiler::WorkerLane& w1 = ep.lane(1);
  w1.owner_events(2, 6);
  w1.window(0.15, 0.10, 0.01, 0.15, 0.25, 6);
  ep.end_window();
  // wall_start is an absolute wall reading, as the backends pass it; the
  // profiler stores it run-relative.
  ep.record_control(/*wall_start=*/run_wall + 0.33, /*fold_s=*/0.01,
                    /*control_s=*/0.02, /*events=*/3);
  ep.record_drained(2, kNoShard, 2);
  ep.record_fold(0.04);
  ep.end_run();
}

TEST(ExecProfiler, WindowAccountingAssemblesLanes) {
  ExecProfiler ep;
  record_synthetic_run(ep);

  ASSERT_EQ(ep.runs(), 1u);
  EXPECT_EQ(ep.windows(), 1u);
  EXPECT_EQ(ep.max_workers(), 2u);
  const ExecProfiler::Run& r = ep.run_records()[0];
  EXPECT_EQ(r.backend, "sharded");
  EXPECT_EQ(r.lookahead_ns, 1'000'000);
  EXPECT_GE(r.elapsed, 0.0);
  EXPECT_EQ(r.control_events, 3u);

  ASSERT_EQ(r.windows.size(), 1u);
  const ExecProfiler::Window& w = r.windows[0];
  EXPECT_EQ(w.events, 16u);
  ASSERT_EQ(w.workers.size(), 2u);
  EXPECT_FLOAT_EQ(w.workers[0].dispatch_s, 0.20f);
  EXPECT_FLOAT_EQ(w.workers[1].barrier_s, 0.15f);
  EXPECT_EQ(w.workers[0].events, 10u);
  ASSERT_EQ(w.owner_events.size(), 2u);
  EXPECT_EQ(w.owner_events.at(1), 10u);
  EXPECT_EQ(w.owner_events.at(2), 6u);

  const ExecProfiler::PhaseTotals p = ep.phases();
  EXPECT_NEAR(p.dispatch, 0.30, 1e-6);
  EXPECT_NEAR(p.drain, 0.03, 1e-6);
  EXPECT_NEAR(p.barrier, 0.25, 1e-6);
  EXPECT_NEAR(p.control, 0.02, 1e-9);
  EXPECT_NEAR(p.fold, 0.05, 1e-9);  // record_control's fold_s + record_fold

  const auto shares = ep.worker_shares();
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_NEAR(shares[0].busy_s, 0.22, 1e-6);
  EXPECT_NEAR(shares[0].idle_s, 0.10, 1e-6);
  EXPECT_NEAR(shares[1].busy_s, 0.11, 1e-6);

  // 16 events -> log2 bucket 5 ([16, 31]).
  const auto hist = ep.occupancy_histogram();
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist.at(5), 1u);

  // Worker-drained (1 -> 2) plus drained into the control inbox (2 -> control).
  const auto vols = ep.volumes();
  ASSERT_EQ(vols.size(), 2u);
  EXPECT_EQ(vols.at({1, 2}).events, 4u);
  EXPECT_EQ(vols.at({2, kNoShard}).events, 2u);
}

TEST(ExecProfiler, ValidationReplaysLptModel) {
  ExecProfiler ep;
  record_synthetic_run(ep);
  const ExecProfiler::Validation v = ep.validate();

  EXPECT_EQ(v.workers, 2u);
  EXPECT_EQ(v.window_events, 16u);
  EXPECT_EQ(v.serial_events, 3u);
  // LPT over loads {10, 6} on 2 bins -> window cost 10; control events run
  // serially on both sides: predicted = (16 + 3) / (10 + 3).
  EXPECT_NEAR(v.predicted_speedup, 19.0 / 13.0, 1e-9);
  // Measured = busy / elapsed; the synthetic busy seconds dwarf the real
  // (microsecond) wall elapsed, so only sanity-check the sign.
  EXPECT_GT(v.measured_speedup, 0.0);
  // Loss decomposition: imbalance = max_dispatch - mean_dispatch; the real
  // window elapsed is far under max_dispatch, so barrier loss clamps to 0.
  EXPECT_NEAR(v.imbalance_seconds, 0.05, 1e-6);
  EXPECT_NEAR(v.drain_seconds, 0.02, 1e-6);
  EXPECT_NEAR(v.barrier_seconds, 0.0, 1e-9);
  EXPECT_STREQ(v.dominant_loss, "imbalance");
  EXPECT_EQ(v.windows_compared, 1u);

  const std::string json = ep.report_json();
  EXPECT_NE(json.find("\"model\":\"barrier-window-lpt\""), std::string::npos);
  EXPECT_NE(json.find("\"dominant\":\"imbalance\""), std::string::npos);
  EXPECT_NE(json.find("\"backends\":{\"sharded\":1}"), std::string::npos);
}

TEST(ExecProfiler, ValidationOnEmptyProfilerIsInert) {
  const ExecProfiler ep;
  const ExecProfiler::Validation v = ep.validate();
  EXPECT_EQ(v.window_events, 0u);
  EXPECT_EQ(v.predicted_speedup, 0.0);
  EXPECT_STREQ(v.dominant_loss, "none");
  EXPECT_NE(ep.report_json().find("\"runs\":0"), std::string::npos);
}

TEST(ExecProfiler, SliceCapDropsStartsKeepsAggregates) {
  ExecProfiler ep;
  ep.begin_run("sharded", 1, 1'000);
  const std::size_t n = ExecProfiler::kMaxSliceWindows + 40;
  for (std::size_t i = 0; i < n; ++i) {
    ep.begin_window(static_cast<std::int64_t>(i),
                    static_cast<std::int64_t>(i) + 1);
    ep.lane(0).window(0.0, 0.001, 0.0, 0.5, -1.0, 2);
    ep.end_window();
  }
  ep.end_run();

  const ExecProfiler::Run& r = ep.run_records()[0];
  ASSERT_EQ(r.windows.size(), n);
  EXPECT_GE(r.windows[0].wall_start, 0.0);
  EXPECT_GE(r.windows[0].workers[0].dispatch_start, 0.0);
  // Past the cap: starts are dropped (no per-slice memory growth)...
  EXPECT_EQ(r.windows[ExecProfiler::kMaxSliceWindows].wall_start, -1.0);
  EXPECT_EQ(r.windows[n - 1].workers[0].dispatch_start, -1.0);
  // ...but the aggregates stay complete.
  EXPECT_EQ(ep.windows(), n);
  EXPECT_NEAR(ep.phases().dispatch, 0.001 * static_cast<double>(n), 1e-4);
  EXPECT_EQ(ep.validate().window_events, 2u * n);
}

TEST(ExecProfiler, ErroredRunIsDiscardedByNextBeginRun) {
  ExecProfiler ep;
  ep.begin_run("sharded", 1, 1'000);
  ep.begin_window(0, 1'000);
  ep.lane(0).window(0, 0.5, 0, 0, -1, 7);
  ep.end_window();
  // No end_run(): the run failed. A fresh begin_run discards it.
  record_synthetic_run(ep);
  ASSERT_EQ(ep.runs(), 1u);
  EXPECT_EQ(ep.run_records()[0].windows[0].events, 16u);
}

// Drives the same three-owner ring on a given backend with the profiler
// attached; returns the per-owner execution log for identity checks.
using Log = std::vector<std::pair<std::int64_t, std::string>>;

Log ring(std::size_t shards, ExecProfiler* ep) {
  Simulator sim(42);
  if (shards > 0) install_sharded(sim, shards);
  if (ep != nullptr) sim.set_exec_profiler(ep);
  const ShardId owners[] = {3, 5, 9};
  for (ShardId o : owners) sim.register_owner(o);
  for (int i = 0; i < 3; ++i) {
    sim.register_lookahead(owners[i], owners[(i + 1) % 3], Duration::millis(2));
  }
  Log logs[3];
  std::function<void(int, int)> hop = [&](int at, int remaining) {
    logs[at].emplace_back(sim.now().as_nanos(),
                          std::to_string(sim.rng().next_u64() % 1000));
    if (remaining == 0) return;
    const int next = (at + 1) % 3;
    sim.schedule_for(owners[next], Duration::millis(2), TaskTag{"test", "hop"},
                     [&hop, next, remaining] { hop(next, remaining - 1); });
  };
  for (int i = 0; i < 3; ++i) {
    sim.schedule_for(owners[i], Duration::millis(1 + i), TaskTag{"test", "start"},
                     [&hop, i] { hop(i, 7); });
  }
  EXPECT_EQ(sim.run(), 3u * 8u);
  Log merged;
  for (const Log& l : logs) merged.insert(merged.end(), l.begin(), l.end());
  return merged;
}

TEST(ExecProfiler, SerialAndShardedHooksShareOneSchema) {
  ExecProfiler serial_ep;
  ring(0, &serial_ep);
  ASSERT_EQ(serial_ep.runs(), 1u);
  EXPECT_EQ(serial_ep.run_records()[0].backend, "serial");
  EXPECT_EQ(serial_ep.max_workers(), 1u);
  EXPECT_EQ(serial_ep.windows(), 1u);  // the whole serial loop is one window
  EXPECT_EQ(serial_ep.validate().window_events, 24u);

  ExecProfiler sharded_ep;
  ring(3, &sharded_ep);
  ASSERT_EQ(sharded_ep.runs(), 1u);
  const ExecProfiler::Run& r = sharded_ep.run_records()[0];
  EXPECT_EQ(r.backend, "sharded");
  EXPECT_EQ(r.workers, 3u);
  EXPECT_GT(r.windows.size(), 1u);  // real barrier windows, not one blob
  EXPECT_EQ(sharded_ep.validate().window_events + sharded_ep.validate().serial_events,
            24u);
  // Cross-owner hops drained through outboxes show up as volumes.
  EXPECT_FALSE(sharded_ep.volumes().empty());

  // Parity: both reports carry the same top-level schema.
  for (const ExecProfiler* ep : {&serial_ep, &sharded_ep}) {
    const std::string json = ep->report_json();
    for (const char* key : {"\"phases\":", "\"workers_detail\":", "\"occupancy\":",
                            "\"outbox\":", "\"validation\":"}) {
      EXPECT_NE(json.find(key), std::string::npos) << key;
    }
  }
}

TEST(ExecProfiler, AttachedProfilerNeverChangesRunResults) {
  // The determinism side of the exec contract: wall-clock observation must
  // not perturb what the simulation computes, on either backend.
  for (std::size_t k : {0u, 1u, 3u}) {
    ExecProfiler ep;
    const Log with = ring(k, &ep);
    const Log without = ring(k, nullptr);
    EXPECT_EQ(with, without) << "k=" << k;
  }
}

TEST(ExecProfiler, ChromeTraceStructure) {
  ExecProfiler ep;
  record_synthetic_run(ep);
  ring(2, &ep);  // a real sharded run alongside the synthetic one
  const std::string trace = exec_chrome_trace(ep);

  // Envelope and metadata: one process per run, named window-close/worker
  // tracks, wall-time "X" slices for each phase.
  EXPECT_EQ(trace.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  for (const char* needle :
       {"\"ph\":\"M\"", "\"ph\":\"X\"", "\"process_name\"", "\"thread_name\"",
        "\"window close\"", "\"worker 0\"", "\"worker 1\"",
        "\"name\":\"dispatch\"", "\"name\":\"window\"", "\"name\":\"control\"",
        "run 1 (sharded)", "run 2 (sharded)"}) {
    EXPECT_NE(trace.find(needle), std::string::npos) << needle;
  }
  // Synthetic run: worker 0's dispatch slice starts at 0.125 s = 125000 us
  // (an exactly-representable start, so the microsecond value is integral).
  EXPECT_NE(trace.find("\"ts\":125000,\"dur\":"), std::string::npos);
  EXPECT_EQ(trace.back(), '}');
}

TEST(ExecProfiler, DashboardIsSelfContained) {
  ExecProfiler ep;
  record_synthetic_run(ep);
  const std::string html = exec_dashboard(ep, "X1 · exec");
  for (const char* needle :
       {"<!DOCTYPE html>", "viz-root", "Worker timeline", "Window occupancy",
        "Stall breakdown", "rgba(var(--heat)", "dominant loss"}) {
    EXPECT_NE(html.find(needle), std::string::npos) << needle;
  }
  EXPECT_EQ(html.find("<script"), std::string::npos);  // zero-JS idiom
}

TEST(ExecProfiler, MergeAppendsRunRecords) {
  ExecProfiler a, b;
  record_synthetic_run(a);
  record_synthetic_run(b);
  ring(0, &b);
  a.merge(b);
  EXPECT_EQ(a.runs(), 3u);
  EXPECT_EQ(a.windows(), 3u);
  EXPECT_NEAR(a.phases().dispatch, 0.60, 0.2);  // 2x synthetic + tiny real run
  EXPECT_EQ(a.validate().window_events, 16u + 16u + 24u);
}

}  // namespace
}  // namespace tussle::sim
