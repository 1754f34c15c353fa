// Real heap-allocation counting for the benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete family, so every
// allocation the tussle_* libraries make inside this process is counted —
// no LD_PRELOAD, no modelled units. The counters are per-thread slots on
// their own cache lines, so the sharded workload's workers never contend.
#pragma once

#include <cstdint>

namespace tnbench {

struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
};

/// Allocations and frees made so far by every thread of the process.
AllocCounts alloc_counts() noexcept;

/// Calls ::operator new / ::operator delete exactly `n` times each and
/// returns true when each counter moved by exactly `expect`. Run it while
/// no other thread allocates.
bool alloc_self_check(std::uint64_t n, std::uint64_t expect);

}  // namespace tnbench
