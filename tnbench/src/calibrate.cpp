#include "calibrate.hpp"

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "trace.hpp"

namespace tnbench {
namespace {

struct Event {
  std::uint64_t at = 0;
  std::uint64_t seq = 0;
  std::function<void()> fn;
  bool operator>(const Event& o) const { return at != o.at ? at > o.at : seq > o.seq; }
};

struct Box {
  std::uint64_t count = 0;
  std::uint64_t words[31] = {};
};

double kernel_seconds() {
  constexpr std::uint64_t kBoxes = 512;
  constexpr std::uint64_t kKeys = 4 * kBoxes;
  constexpr std::uint64_t kEvents = 60000;
  constexpr std::uint64_t kMul = 2654435761u;
  std::vector<Box> boxes(kBoxes);
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t i = 0; i < kKeys; ++i) table[i * kMul] = i % kBoxes;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::uint64_t x = 0x9e3779b97f4a7c15ull, seq = 0, done = 0, now = 0;
  auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::function<void(std::uint64_t, std::uint64_t)> post = [&](std::uint64_t at,
                                                              std::uint64_t key) {
    heap.push(Event{at, seq++, [&, key, at, s = seq] {
                      Box& b = boxes[table.at(key)];
                      b.count += at;
                      b.words[(key ^ at) % 31] += s;
                      if (++done < kEvents) post(now + 1 + rnd() % 997, (rnd() % kKeys) * kMul);
                    }});
  };
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < kBoxes; ++i) post(rnd() % 1000, i * kMul);
  while (!heap.empty()) {
    Event ev = heap.top();
    heap.pop();
    now = ev.at;
    ev.fn();
  }
  return now_s() - t0;
}

}  // namespace

double reference_seconds(int threads) {
  if (threads <= 1) return kernel_seconds();
  std::vector<double> secs(static_cast<std::size_t>(threads));
  {
    std::vector<std::jthread> pool;
    for (std::size_t i = 0; i < secs.size(); ++i) {
      pool.emplace_back([&secs, i] { secs[i] = kernel_seconds(); });
    }
  }
  double sum = 0;
  for (const double s : secs) sum += s;
  return sum / threads;
}

}  // namespace tnbench
