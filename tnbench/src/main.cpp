// tnbench: the tussle-net benchmark program.
//
//   tnbench --workload <flood|flood-sharded|firewall-flows|model-sweep>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--out-dir <dir>] [--expect-digest <hex>] [--break <check>]...
//
// Repeats passes (set-up + timed phase over the inputs generated from the
// seed) for --seconds, checks every pass's outputs, and prints one JSON
// object as its last line: end-to-end metrics (medians over untraced
// passes, timings scaled to the reference host speed) with --trace 0,
// per-layer metrics with --trace 1. A traced run alternates untraced and
// traced passes, so the tracing overhead is the difference of their wall
// time medians, and writes its spans and per-layer self-time table to
// --out-dir. --break <check> hands one check a deliberately wrong
// expectation (run.py --self-test).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "calibrate.hpp"

namespace tnbench {
namespace {

constexpr std::size_t kMinPasses = 5;
constexpr double kMaxLoopSeconds = 120;

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"wall_s", "s"},           {"setup_s", "s"},           {"throughput_per_s", "1/s"},
    {"allocs_per_unit", "count"}, {"peak_rss_mb", "MB"},
};

const Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.run_s", "s"},
    {"sim.dispatch_ns_per_event", "ns"},
    {"sim.schedules", "count"},
    {"sim.cancels", "count"},
    {"sim.cancel_hit_ratio", "ratio"},
    {"shard.windows", "count"},
    {"shard.events_per_window", "count"},
    {"shard.barrier_wait_frac", "ratio"},
    {"shard.drain_s", "s"},
    {"net.originated", "count"},
    {"net.forwarded", "count"},
    {"net.delivered", "count"},
    {"net.dropped_queue", "count"},
    {"net.dropped_filter", "count"},
    {"net.delivered_ratio", "ratio"},
    {"net.hop_ns", "ns"},
    {"net.serialize_ns", "ns"},
    {"net.originate_ns", "ns"},
    {"net.fib_writes", "count"},
    {"net.fib_write_ns", "ns"},
    {"net.filter_swaps", "count"},
    {"policy.compiles", "count"},
    {"policy.compile_us", "us"},
    {"policy.evals", "count"},
    {"policy.eval_ns", "ns"},
    {"policy.deny_ratio", "ratio"},
    {"apps.flows", "count"},
    {"apps.flows_finished", "count"},
    {"apps.segments_received", "count"},
    {"routing.pv_computes", "count"},
    {"routing.pv_ms", "ms"},
    {"routing.pv_rounds", "count"},
    {"routing.rollout_ms", "ms"},
    {"routing.fib_install_ms", "ms"},
    {"econ.periods", "count"},
    {"econ.period_us", "us"},
    {"game.rounds", "count"},
    {"game.round_ns", "ns"},
    {"core.sweep_s", "s"},
    {"core.body_s", "s"},
    {"core.parallel_eff", "ratio"},
    {"proc.allocs_setup", "count"},
    {"proc.allocs_run", "count"},
    {"trace.wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.coverage", "ratio"},
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double median_of(const std::vector<PassStats>& passes,
                 const std::function<double(const PassStats&)>& f) {
  std::vector<double> v;
  for (const PassStats& p : passes) v.push_back(f(p));
  return median(v);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& s) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (s.empty() || used != s.size() || s[0] == '-') {
    throw std::invalid_argument(flag + " wants a whole number, got '" + s + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string val = argv[++i];
    if (flag == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, val);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(flag, val));
      if (o.seconds < 1 || o.seconds > 60) throw std::invalid_argument("--seconds must be 1..60");
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace must be 0 or 1");
      o.trace = val == "1";
    } else if (flag == "--out-dir") {
      o.out_dir = val;
    } else if (flag == "--expect-digest") {
      o.expect_digest = val;
    } else if (flag == "--break") {
      o.breaks.insert(val);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return o;
}

std::unique_ptr<Workload> make(const Options& o) {
  if (o.workload == "flood") return make_flood(o, 0);
  if (o.workload == "flood-sharded") return make_flood(o, 3);
  if (o.workload == "firewall-flows") return make_firewall(o);
  if (o.workload == "model-sweep") return make_sweep(o);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Peak resident set of this process image in MB. getrusage's ru_maxrss
/// would also count the launcher (python3 run.py), whose peak Linux carries
/// across exec, so read the image's own high-water mark.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Share of the traced timed phase that falls inside some layer's span:
/// 1 minus the benchmark's own (bench) self time over the timed wall time.
double coverage() {
  const auto self = Trace::self_times("bench.timed");
  double wall = 0;
  for (const SpanRecord& r : Trace::spans()) {
    if (std::string(r.name) == "bench.timed") wall += r.t1 - r.t0;
  }
  auto it = self.find("bench");
  return wall > 0 ? 1 - (it == self.end() ? 0 : it->second) / wall : 0;
}

int run(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Checks checks;
  // No other thread exists yet, so the count must be exact.
  constexpr std::uint64_t kProbeAllocs = 4096;
  checks.expect(alloc_self_check(kProbeAllocs, kProbeAllocs + (opt.broken("alloc-count") ? 1 : 0)),
                "allocation counter self-check");
  std::unique_ptr<Workload> w = make(opt);

  std::uint64_t attempted = 0;
  std::uint32_t index = 0;
  std::vector<std::uint64_t> digests;
  auto one = [&](Mode mode) {
    // Measured untraced passes of an untraced run are bracketed by the
    // host-speed reference (see calibrate.hpp); pass 0 is the warm-up.
    const bool ref = !opt.trace && mode == Mode::kPlain && index > 0;
    const double ref0 = ref ? reference_seconds(w->threads()) : 0;
    Trace::set_enabled(mode == Mode::kTraced);
    PassStats st = w->pass(index++, mode, checks);
    Trace::set_enabled(false);
    if (ref) st.ref_s = (ref0 + reference_seconds(w->threads())) / 2;
    attempted += st.ops;
    digests.push_back(st.digest);
    return st;
  };

  one(Mode::kPlain);  // warm-up: caches, lazy set-up, first-touch pages
  PassStats counted;
  if (opt.trace) counted = one(Mode::kCounted);
  std::vector<PassStats> plain, traced;
  const double t0 = now_s();
  for (;;) {
    plain.push_back(one(Mode::kPlain));
    if (opt.trace) traced.push_back(one(Mode::kTraced));
    const double elapsed = now_s() - t0;
    if ((plain.size() >= kMinPasses && elapsed >= opt.seconds) || elapsed > kMaxLoopSeconds) break;
  }
  w->finish(checks);

  // Attaching profilers must not change what is simulated, and a seed
  // always simulates the same thing.
  const std::uint64_t digest = digests.front();
  for (const std::uint64_t d : digests) checks.expect(d == digest, "digest differs between passes");
  if (!opt.expect_digest.empty()) {
    const std::string want = opt.broken("digest") ? "0" + opt.expect_digest : opt.expect_digest;
    checks.expect(hex(digest) == want, "digest " + hex(digest) + " != reference " + want);
  }

  // End-to-end numbers: medians over the untraced passes, with timings
  // scaled to the reference host speed when the passes were bracketed.
  const auto scale = [](const PassStats& p) {
    return p.ref_s > 0 ? kReferenceSeconds / p.ref_s : 1.0;
  };
  const double wall = median_of(plain, [&](const PassStats& p) { return p.run_s * scale(p); });
  const double setup =
      median_of(plain, [&](const PassStats& p) { return p.setup_s * scale(p); });
  const double rate = median_of(plain, [&](const PassStats& p) {
    return static_cast<double>(p.units) / (p.run_s * scale(p));
  });
  const double allocs_per_unit = median_of(plain, [](const PassStats& p) {
    return static_cast<double>(p.allocs_run) / static_cast<double>(std::max<std::uint64_t>(p.units, 1));
  });
  const double rss_mb = peak_rss_mb();
  const double host_wall = median_of(plain, [](const PassStats& p) { return p.run_s; });

  std::vector<std::pair<Metric, double>> out;
  if (!opt.trace) {
    out = {{kEndToEnd[0], wall},
           {kEndToEnd[1], setup},
           {kEndToEnd[2], rate},
           {kEndToEnd[3], allocs_per_unit},
           {kEndToEnd[4], rss_mb}};
  } else {
    std::map<std::string, double> layer;
    for (const Metric& m : kPerLayer) {
      std::vector<double> v;
      for (const PassStats& p : traced) {
        auto it = p.layer.find(m.name);
        if (it != p.layer.end()) v.push_back(it->second);
      }
      layer[m.name] = median(v);
    }
    for (const char* k : {"sim.schedules", "sim.cancels"}) {
      auto it = counted.layer.find(k);
      layer[k] = it == counted.layer.end() ? 0 : it->second;
    }
    layer["sim.cancel_hit_ratio"] =
        layer["sim.schedules"] > 0 ? layer["sim.cancels"] / layer["sim.schedules"] : 0;
    layer["proc.allocs_setup"] = median_of(plain, [](const PassStats& p) {
      return static_cast<double>(p.allocs_setup);
    });
    layer["proc.allocs_run"] = median_of(plain, [](const PassStats& p) {
      return static_cast<double>(p.allocs_run);
    });
    layer["trace.wall_s"] = median_of(traced, [](const PassStats& p) { return p.run_s; });
    layer["trace.overhead_s"] = layer["trace.wall_s"] - host_wall;
    layer["trace.coverage"] = coverage();
    for (const Metric& m : kPerLayer) out.emplace_back(m, layer[m.name]);

    std::filesystem::create_directories(opt.out_dir);
    const std::string prefix =
        opt.out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed);
    checks.expect(Trace::write(prefix), "cannot write trace files under " + opt.out_dir);
    std::cout << "spans: " << prefix << ".jsonl\nself-time table: " << prefix
              << ".selftime.txt\n";
  }

  // Human-readable report: the end-to-end metrics under the names a user
  // reads them by, then the checks.
  const double events = median_of(plain, [](const PassStats& p) { return static_cast<double>(p.events); });
  const double packets = median_of(plain, [](const PassStats& p) { return static_cast<double>(p.packets); });
  std::cout << "tnbench " << opt.workload << " seed " << opt.seed << ": " << plain.size()
            << " untraced + " << traced.size() << " traced passes, digest " << hex(digest) << "\n";
  auto row = [](const char* name, double v, const char* unit) {
    std::printf("  %-22s %16.6g %s\n", name, v, unit);
  };
  row("wall_s", wall, "s");
  row("setup_s", setup, "s");
  if (events > 0) {
    row("events_per_s", rate, "1/s");
    row("packets_per_s", rate * packets / events, "1/s");
    row("allocs_per_event", allocs_per_unit, "count");
  } else {
    row("runs_per_s", rate, "1/s");
    row("allocs_per_run", allocs_per_unit, "count");
  }
  row("peak_rss_mb", rss_mb, "MB");
  row("error_rate", attempted == 0 ? 0 : static_cast<double>(checks.failed()) / attempted, "ratio");
  row("host_wall_s", host_wall, "s");
  row("host_slowdown", median_of(plain, [&](const PassStats& p) { return 1 / scale(p); }), "x");
  for (const std::string& msg : checks.messages()) std::cout << "  CHECK FAILED: " << msg << "\n";
  std::fflush(stdout);

  std::string json = "{\"correct\": " + std::string(checks.failed() == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(checks.failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + std::string(out[i].first.name) +
            "\": {\"value\": " + number(out[i].second) + ", \"unit\": \"" +
            out[i].first.unit + "\"}";
  }
  std::cout << json << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace tnbench

int main(int argc, char** argv) {
  try {
    return tnbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "tnbench: " << e.what() << "\n";
    return 2;
  }
}
