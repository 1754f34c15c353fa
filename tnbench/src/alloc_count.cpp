#include "alloc_count.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

namespace tnbench {
namespace {

constexpr std::size_t kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> frees{0};
};

Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};

Slot& my_slot() noexcept {
  thread_local Slot* slot = &g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots];
  return *slot;
}

void* counted_alloc(std::size_t n, std::size_t align) {
  if (n == 0) n = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (n + align - 1) / align * align)
                : std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  my_slot().allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  my_slot().frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

AllocCounts alloc_counts() noexcept {
  AllocCounts c;
  for (const Slot& s : g_slots) {
    c.allocs += s.allocs.load(std::memory_order_relaxed);
    c.frees += s.frees.load(std::memory_order_relaxed);
  }
  return c;
}

bool alloc_self_check(std::uint64_t n, std::uint64_t expect) {
  std::vector<void*> blocks;
  blocks.reserve(n);
  const AllocCounts before = alloc_counts();
  for (std::uint64_t i = 0; i < n; ++i) blocks.push_back(::operator new(16));
  const AllocCounts mid = alloc_counts();
  for (void* p : blocks) ::operator delete(p);
  const AllocCounts after = alloc_counts();
  return mid.allocs - before.allocs == expect && mid.frees == before.frees &&
         after.frees - mid.frees == expect && after.allocs == mid.allocs;
}

}  // namespace tnbench

// The replaceable global allocation functions ([new.delete]). Array and
// nothrow forms route here too, so nothing escapes the count.
void* operator new(std::size_t n) { return tnbench::counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return tnbench::counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return tnbench::counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return tnbench::counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return tnbench::counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return tnbench::counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { tnbench::counted_free(p); }
void operator delete[](void* p) noexcept { tnbench::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { tnbench::counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tnbench::counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { tnbench::counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { tnbench::counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  tnbench::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  tnbench::counted_free(p);
}
