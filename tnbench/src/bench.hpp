// Shared vocabulary of the tnbench program: options, checks, per-pass
// results and the workload interface.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "trace.hpp"

namespace tnbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  /// Reference digest for this workload and seed ("" = none recorded).
  std::string expect_digest;
  /// Checks to run against a deliberately wrong expectation (self-test).
  std::set<std::string> breaks;

  bool broken(const std::string& check) const { return breaks.count(check) != 0; }
};

/// Output checks. Every failure is counted against the operations
/// attempted; `weight` is how many operations the failure spoils.
class Checks {
 public:
  void expect(bool ok, const std::string& what, std::uint64_t weight = 1) {
    if (ok) return;
    failed_ += weight;
    if (messages_.size() < 20) messages_.push_back(what);
  }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& messages() const noexcept { return messages_; }

 private:
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// What one pass measured. A pass is one set-up followed by one timed
/// phase over the same generated inputs.
struct PassStats {
  double setup_s = 0;
  double run_s = 0;
  /// Reference-kernel seconds around the pass (0 when not measured).
  double ref_s = 0;
  std::uint64_t units = 0;    ///< simulator events, or sweep runs
  std::uint64_t events = 0;   ///< simulator events (0 for model-sweep)
  std::uint64_t packets = 0;  ///< packets resolved: delivered or dropped
  std::uint64_t ops = 0;      ///< operations attempted: probes, packets or runs
  std::uint64_t allocs_setup = 0;
  std::uint64_t allocs_run = 0;
  std::uint64_t digest = 0;
  /// Per-layer metrics; complete only on traced passes.
  std::map<std::string, double> layer;
};

/// Brackets the set-up and timed phases of a pass: wall time, real
/// allocations and, when tracing, the bench.setup / bench.timed root spans.
class PassClock {
 public:
  explicit PassClock(PassStats& st) : st_(st) { open("bench.setup"); }
  /// Ends set-up, starts the timed phase.
  void start_timed() {
    close(st_.setup_s, st_.allocs_setup);
    open("bench.timed");
  }
  /// Ends the timed phase.
  void stop() { close(st_.run_s, st_.allocs_run); }

 private:
  void open(const char* name) {
    root_ = Trace::enabled() ? Trace::begin(name) : 0;
    allocs0_ = alloc_counts().allocs;
    t0_ = now_s();
  }
  void close(double& secs, std::uint64_t& allocs) {
    secs = now_s() - t0_;
    allocs = alloc_counts().allocs - allocs0_;
    if (root_ != 0) Trace::end(root_);
  }

  PassStats& st_;
  std::uint64_t root_ = 0;
  std::uint64_t allocs0_ = 0;
  double t0_ = 0;
};

/// How a pass is observed. kTraced attaches sim::LoopProfiler (and
/// sim::ExecProfiler when sharded) and times the hot calls; kCounted
/// attaches sim::MemProfiler for exact schedule/cancel counts, whose hooks
/// would distort the timed split of a traced pass.
enum class Mode { kPlain, kTraced, kCounted };

class Workload {
 public:
  virtual ~Workload() = default;
  /// Threads the timed phase keeps busy.
  virtual int threads() const = 0;
  /// Runs one pass and checks its outputs into `checks`.
  virtual PassStats pass(std::uint32_t index, Mode mode, Checks& checks) = 0;
  /// Checks that compare passes or configurations, run once at the end.
  virtual void finish(Checks& checks) { (void)checks; }
};

std::unique_ptr<Workload> make_flood(const Options& opt, std::size_t shards);
std::unique_ptr<Workload> make_firewall(const Options& opt);
std::unique_ptr<Workload> make_sweep(const Options& opt);

/// FNV-1a over 64-bit words: the digest of a pass's simulated statistics.
class Digest {
 public:
  Digest& add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  Digest& add(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace tnbench
