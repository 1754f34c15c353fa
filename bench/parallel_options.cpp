#include "parallel_options.hpp"

#include <cstdlib>

namespace tussle::bench {

namespace {

/// A positive integer from the environment, or nullopt (unset, empty,
/// non-numeric, zero, and negative all mean "not configured").
std::optional<std::uint64_t> env_positive(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  const auto n = parse_number<std::uint64_t>(v);
  if (!n || *n == 0) return std::nullopt;
  return n;
}

}  // namespace

ParallelOptions ParallelOptions::resolve(std::optional<std::uint64_t> seed_flag,
                                         std::optional<std::size_t> jobs_flag,
                                         std::optional<std::size_t> replicas_flag,
                                         std::optional<std::size_t> shards_flag) {
  ParallelOptions o;
  if (seed_flag) {
    o.seed = *seed_flag;
  } else if (auto e = env_positive("TUSSLE_SEED")) {
    o.seed = *e;
  }
  if (jobs_flag) {
    o.jobs = *jobs_flag;
  } else if (auto e = env_positive("TUSSLE_JOBS")) {
    o.jobs = static_cast<std::size_t>(*e);
  }
  if (replicas_flag) {
    o.replicas = *replicas_flag;
  } else if (auto e = env_positive("TUSSLE_REPLICAS")) {
    o.replicas = static_cast<std::size_t>(*e);
  }
  if (shards_flag) {
    o.shards = *shards_flag;
  } else if (auto e = env_positive("TUSSLE_SHARDS")) {
    o.shards = static_cast<std::size_t>(*e);
  }
  return o;
}

std::size_t ParallelOptions::sweep_jobs(bool serial_sinks) const noexcept {
  if (serial_sinks) return 1;
  if (shards > 0 && jobs == 0) return 1;
  return jobs;
}

std::size_t ParallelOptions::run_shards(bool serial_only_instrumentation) const noexcept {
  return serial_only_instrumentation ? 0 : shards;
}

}  // namespace tussle::bench
