#include "net/queue.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "sim/callback.hpp"

namespace tussle::net {
namespace {

Packet pkt(ServiceClass tos, std::uint32_t size = 1000, std::uint64_t uid = 0) {
  Packet p;
  p.tos = tos;
  p.size_bytes = size;
  p.uid = uid;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(10);
  for (std::uint64_t i = 1; i <= 5; ++i)
    ASSERT_TRUE(q.enqueue(pkt(ServiceClass::kBestEffort, 100, i)));
  for (std::uint64_t i = 1; i <= 5; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p);
    EXPECT_EQ(p->uid, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueue, DropsWhenFull) {
  DropTailQueue q(2);
  EXPECT_TRUE(q.enqueue(pkt(ServiceClass::kBestEffort)));
  EXPECT_TRUE(q.enqueue(pkt(ServiceClass::kBestEffort)));
  EXPECT_FALSE(q.enqueue(pkt(ServiceClass::kBestEffort)));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.packets(), 2u);
}

TEST(DropTailQueue, ByteAccountingConserved) {
  DropTailQueue q(10);
  q.enqueue(pkt(ServiceClass::kBestEffort, 300));
  q.enqueue(pkt(ServiceClass::kBestEffort, 700));
  EXPECT_EQ(q.bytes(), 1000u);
  q.dequeue();
  EXPECT_EQ(q.bytes(), 700u);
  q.dequeue();
  EXPECT_EQ(q.bytes(), 0u);
}

TEST(DropTailQueue, RingKeepsFifoBytesAndDropsAcrossGrowthAndWrap) {
  // Capacity 13 is not a power of two, so the ring's last doubling is
  // clamped; the uneven fill/drain pattern wraps the head and tail around
  // the ring at every size it passes through.
  DropTailQueue q(13);
  std::deque<std::uint64_t> oracle;
  std::uint64_t oracle_bytes = 0;
  std::uint64_t oracle_drops = 0;
  std::uint64_t next_uid = 1;
  for (int round = 0; round < 60; ++round) {
    const int adds = 1 + (round * 5) % 9;
    for (int k = 0; k < adds; ++k) {
      const std::uint32_t size = 40 + static_cast<std::uint32_t>(next_uid % 17) * 10;
      const bool accepted = q.enqueue(pkt(ServiceClass::kBestEffort, size, next_uid));
      EXPECT_EQ(accepted, oracle.size() < 13u);
      if (accepted) {
        oracle.push_back(next_uid);
        oracle_bytes += size;
      } else {
        ++oracle_drops;
      }
      ++next_uid;
    }
    const int takes = 1 + (round * 3) % 7;
    for (int k = 0; k < takes && !oracle.empty(); ++k) {
      auto p = q.dequeue();
      ASSERT_TRUE(p);
      EXPECT_EQ(p->uid, oracle.front());
      oracle_bytes -= p->size_bytes;
      oracle.pop_front();
    }
    ASSERT_EQ(q.packets(), oracle.size());
    ASSERT_EQ(q.bytes(), oracle_bytes);
    ASSERT_EQ(q.drops(), oracle_drops);
    if (!oracle.empty()) {
      ASSERT_TRUE(q.head_size());
    }
  }
  EXPECT_GT(oracle_drops, 0u);
  while (auto p = q.dequeue()) {
    EXPECT_EQ(p->uid, oracle.front());
    oracle.pop_front();
  }
  EXPECT_TRUE(oracle.empty());
  EXPECT_EQ(q.bytes(), 0u);
  EXPECT_FALSE(q.head_size());
}

TEST(DropTailQueue, ZeroCapacityDropsEverything) {
  DropTailQueue q(0);
  EXPECT_FALSE(q.enqueue(pkt(ServiceClass::kBestEffort)));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_FALSE(q.dequeue());
}

TEST(LinkHop, PacketClosureFitsCallbackInline) {
  // The link's serialize and propagate closures capture `this`, one
  // reference or node id, and the Packet by value; they must not take the
  // callback's heap fallback.
  struct Link {
  } link;
  int dir = 0;
  Packet p = pkt(ServiceClass::kPremium, 1200, 9);
  p.payload_tag = "a payload tag longer than the small-string buffer";
  sim::Callback cb([l = &link, &dir, pkt = std::move(p)]() mutable {
    (void)l;
    dir = static_cast<int>(pkt.size_bytes);
  });
  EXPECT_FALSE(cb.on_heap());
  cb();
  EXPECT_EQ(dir, 1200);
}

TEST(PriorityQueue, PremiumServedFirst) {
  PriorityQueue q(10);
  q.enqueue(pkt(ServiceClass::kBestEffort, 100, 1));
  q.enqueue(pkt(ServiceClass::kPremium, 100, 2));
  q.enqueue(pkt(ServiceClass::kAssured, 100, 3));
  EXPECT_EQ(q.dequeue()->uid, 2u);
  EXPECT_EQ(q.dequeue()->uid, 3u);
  EXPECT_EQ(q.dequeue()->uid, 1u);
}

TEST(PriorityQueue, PerClassIsolation) {
  PriorityQueue q(2);
  // Fill best-effort; premium must still be accepted.
  EXPECT_TRUE(q.enqueue(pkt(ServiceClass::kBestEffort)));
  EXPECT_TRUE(q.enqueue(pkt(ServiceClass::kBestEffort)));
  EXPECT_FALSE(q.enqueue(pkt(ServiceClass::kBestEffort)));
  EXPECT_TRUE(q.enqueue(pkt(ServiceClass::kPremium)));
  EXPECT_EQ(q.class_drops(ServiceClass::kBestEffort), 1u);
  EXPECT_EQ(q.class_drops(ServiceClass::kPremium), 0u);
}

TEST(PriorityQueue, FifoWithinClass) {
  PriorityQueue q(10);
  q.enqueue(pkt(ServiceClass::kAssured, 100, 1));
  q.enqueue(pkt(ServiceClass::kAssured, 100, 2));
  EXPECT_EQ(q.dequeue()->uid, 1u);
  EXPECT_EQ(q.dequeue()->uid, 2u);
}

TEST(DrrQueue, AllClassesEventuallyServed) {
  DrrQueue q(100, {1.0, 1.0, 1.0});
  for (int i = 0; i < 30; ++i) {
    q.enqueue(pkt(ServiceClass::kBestEffort));
    q.enqueue(pkt(ServiceClass::kAssured));
    q.enqueue(pkt(ServiceClass::kPremium));
  }
  int counts[3] = {0, 0, 0};
  while (auto p = q.dequeue()) counts[static_cast<int>(p->tos)]++;
  EXPECT_EQ(counts[0], 30);
  EXPECT_EQ(counts[1], 30);
  EXPECT_EQ(counts[2], 30);
}

TEST(DrrQueue, NoStarvationUnderSkewedWeights) {
  DrrQueue q(100, {1.0, 1.0, 8.0});
  for (int i = 0; i < 50; ++i) {
    q.enqueue(pkt(ServiceClass::kBestEffort));
    q.enqueue(pkt(ServiceClass::kPremium));
  }
  // Within the first 20 dequeues, best-effort must appear.
  int be_seen = 0;
  for (int i = 0; i < 20; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p);
    be_seen += (p->tos == ServiceClass::kBestEffort);
  }
  EXPECT_GT(be_seen, 0);
}

TEST(DrrQueue, ServiceRoughlyProportionalToWeights) {
  // Weights 1:1:4 with persistent backlog: count per-class service among
  // the first 60 dequeues; the premium class should get ~4x the others.
  DrrQueue q(1000, {1.0, 1.0, 4.0});
  for (int i = 0; i < 300; ++i) {
    q.enqueue(pkt(ServiceClass::kBestEffort, 1500));
    q.enqueue(pkt(ServiceClass::kAssured, 1500));
    q.enqueue(pkt(ServiceClass::kPremium, 1500));
  }
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 60; ++i) {
    auto p = q.dequeue();
    ASSERT_TRUE(p);
    counts[static_cast<int>(p->tos)]++;
  }
  EXPECT_GT(counts[2], 2 * counts[0]);
  EXPECT_GT(counts[0], 0);  // no starvation
  EXPECT_GT(counts[1], 0);
}

TEST(MakeQueue, FactoryProducesRequestedKind) {
  auto dt = make_queue(QueueKind::kDropTail, 4);
  auto pr = make_queue(QueueKind::kPriority, 4);
  auto dr = make_queue(QueueKind::kDrr, 4);
  ASSERT_TRUE(dt && pr && dr);
  // Behavioral check: priority queue reorders, drop-tail does not.
  dt->enqueue(pkt(ServiceClass::kBestEffort, 100, 1));
  dt->enqueue(pkt(ServiceClass::kPremium, 100, 2));
  EXPECT_EQ(dt->dequeue()->uid, 1u);
  pr->enqueue(pkt(ServiceClass::kBestEffort, 100, 1));
  pr->enqueue(pkt(ServiceClass::kPremium, 100, 2));
  EXPECT_EQ(pr->dequeue()->uid, 2u);
}

// Property sweep: conservation (everything enqueued is dequeued or dropped)
// across disciplines and loads.
class QueueConservation : public ::testing::TestWithParam<std::tuple<QueueKind, int>> {};

TEST_P(QueueConservation, InEqualsOutPlusDrops) {
  auto [kind, load] = GetParam();
  auto q = make_queue(kind, 16);
  int accepted = 0;
  for (int i = 0; i < load; ++i) {
    auto cls = static_cast<ServiceClass>(i % 3);
    accepted += q->enqueue(pkt(cls, 100 + i % 500));
  }
  int out = 0;
  while (q->dequeue()) ++out;
  EXPECT_EQ(out, accepted);
  EXPECT_EQ(static_cast<int>(q->drops()) + accepted, load);
  EXPECT_EQ(q->packets(), 0u);
  EXPECT_EQ(q->bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueueConservation,
    ::testing::Combine(::testing::Values(QueueKind::kDropTail, QueueKind::kPriority,
                                         QueueKind::kDrr),
                       ::testing::Values(1, 10, 16, 48, 200)));

}  // namespace
}  // namespace tussle::net
