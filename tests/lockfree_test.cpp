// common/lockfree: MPSC queue (conservation + ticket order under N
// producers), epoch domain / RcuCell (reader-writer churn with safe
// reclamation), arena (concurrent bump allocation), and the flight
// recorder's EventRing (single writer vs. concurrent exporter). These
// are the TSan hammer targets for the lock-free data plane — run them
// under scripts/tsan_check.sh as well as in the tier-1 suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/lockfree/arena.hpp"
#include "common/lockfree/epoch.hpp"
#include "common/lockfree/event_ring.hpp"
#include "common/lockfree/mpsc_queue.hpp"
#include "common/lockfree/spsc_ring.hpp"
#include "scone/ring_buffer.hpp"

namespace securecloud::lockfree {
namespace {

// ------------------------------------------------------------- MpscQueue

TEST(MpscQueue, SerialPushesDrainInCallOrder) {
  MpscQueue<int> queue(4);  // tiny segments force chain growth
  for (int i = 0; i < 100; ++i) queue.push(i);
  std::vector<MpscQueue<int>::Item> out;
  queue.drain(out);
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].ticket, static_cast<std::uint64_t>(i));
    EXPECT_EQ(out[static_cast<std::size_t>(i)].value, i);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(MpscQueue, InterleavedDrainsPreserveResidue) {
  MpscQueue<int> queue(8);
  std::vector<MpscQueue<int>::Item> out;
  queue.push(1);
  queue.drain(out);
  queue.push(2);
  queue.push(3);
  queue.drain(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].value, 1);
  EXPECT_EQ(out[1].value, 2);
  EXPECT_EQ(out[2].value, 3);
}

TEST(MpscQueue, HammerConservesEveryPush) {
  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 20'000;
  MpscQueue<std::uint64_t> queue(64);

  std::atomic<bool> stop{false};
  std::vector<MpscQueue<std::uint64_t>::Item> out;
  // Consumer drains concurrently with the producers; value encodes
  // producer id * kPerProducer + local index.
  std::thread consumer([&] {
    while (!stop.load(std::memory_order_acquire)) queue.drain(out);
    queue.drain(out);
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        queue.push(static_cast<std::uint64_t>(p) * kPerProducer + i);
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  consumer.join();

  ASSERT_EQ(out.size(), kProducers * kPerProducer);
  // Every ticket exactly once...
  std::set<std::uint64_t> tickets;
  for (const auto& item : out) tickets.insert(item.ticket);
  EXPECT_EQ(tickets.size(), out.size());
  // ...every value exactly once...
  std::vector<std::uint64_t> values;
  values.reserve(out.size());
  for (const auto& item : out) values.push_back(item.value);
  std::sort(values.begin(), values.end());
  for (std::uint64_t i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_EQ(values[i], i);
  }
  // ...and per-producer values in push order within the merged stream.
  std::vector<std::uint64_t> next_local(kProducers, 0);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.ticket < b.ticket; });
  for (const auto& item : out) {
    const auto p = item.value / kPerProducer;
    EXPECT_EQ(item.value % kPerProducer, next_local[p]++);
  }
}

// ----------------------------------------------------- EpochDomain / Rcu

TEST(EpochDomain, ReclaimWaitsForActiveReaders) {
  EpochDomain domain;
  std::atomic<int> freed{0};
  int* obj = new int(7);
  {
    EpochDomain::Guard guard(domain);
    domain.retire(obj, [](void* p) { delete static_cast<int*>(p); });
    // A reader pinned before the retirement blocks reclamation.
    EXPECT_EQ(domain.try_reclaim(), 0u);
    EXPECT_EQ(domain.retired_count(), 1u);
    (void)freed;
  }
  EXPECT_EQ(domain.try_reclaim(), 1u);
  EXPECT_EQ(domain.retired_count(), 0u);
}

TEST(EpochDomain, GuardsNest) {
  EpochDomain domain;
  EpochDomain::Guard outer(domain);
  {
    EpochDomain::Guard inner(domain);
    EXPECT_NE(domain.min_active_epoch(), UINT64_MAX);
  }
  // Inner guard release must not unpin the outer critical section.
  EXPECT_NE(domain.min_active_epoch(), UINT64_MAX);
}

TEST(RcuCell, ReadersSeeConsistentSnapshots) {
  RcuCell<std::vector<int>> cell(std::vector<int>{0});
  cell.update([](std::vector<int>& v) { v.push_back(1); });
  auto ref = cell.read();
  ASSERT_EQ(ref->size(), 2u);
  // A writer racing the held reference must not invalidate it.
  cell.store(std::vector<int>{42});
  EXPECT_EQ((*ref)[1], 1);
  EXPECT_EQ(cell.read()->at(0), 42);
}

TEST(RcuCell, HammerReadersNeverSeeTornState) {
  // Invariant: the vector always holds k, k+1, ..., k+7 for some k.
  // A torn or reclaimed-under-reader snapshot breaks it (and TSan
  // flags the access).
  RcuCell<std::vector<std::uint64_t>> cell([] {
    std::vector<std::uint64_t> v(8);
    std::iota(v.begin(), v.end(), 0);
    return v;
  }());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 6; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto ref = cell.read();
        ASSERT_EQ(ref->size(), 8u);
        for (std::size_t i = 1; i < ref->size(); ++i) {
          ASSERT_EQ((*ref)[i], (*ref)[0] + i);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < 2'000; ++i) {
        cell.update([](std::vector<std::uint64_t>& v) {
          for (auto& x : v) ++x;
        });
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);
  const auto settled = cell.read();
  EXPECT_EQ((*settled)[0], 4'000u);
}

// ------------------------------------------------------------------ Arena

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena(512);
  std::vector<std::pair<char*, std::size_t>> regions;
  for (std::size_t i = 1; i <= 64; ++i) {
    auto* p = static_cast<char*>(arena.allocate(i * 3, 16));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    std::memset(p, static_cast<int>(i), i * 3);
    regions.emplace_back(p, i * 3);
  }
  // Contents survive later allocations (no overlap).
  for (std::size_t i = 1; i <= 64; ++i) {
    auto [p, n] = regions[i - 1];
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(static_cast<unsigned char>(p[j]), i);
    }
  }
}

TEST(Arena, OversizedRequestGetsOwnBlock) {
  Arena arena(256);
  auto* big = static_cast<char*>(arena.allocate(10'000));
  std::memset(big, 0xAB, 10'000);
  auto* small = static_cast<char*>(arena.allocate(16));
  std::memset(small, 0xCD, 16);
  EXPECT_EQ(static_cast<unsigned char>(big[9'999]), 0xABu);
}

TEST(Arena, HammerConcurrentAllocatorsGetDisjointMemory) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4'000;
  Arena arena(4 * 1024);
  std::vector<std::vector<std::uint64_t*>> owned(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto* slot = arena.create<std::uint64_t>(
            static_cast<std::uint64_t>(t) << 32 | static_cast<std::uint32_t>(i));
        owned[static_cast<std::size_t>(t)].push_back(slot);
      }
    });
  }
  for (auto& t : threads) t.join();
  // If any two allocations overlapped, somebody's value got clobbered.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      ASSERT_EQ(*owned[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)],
                static_cast<std::uint64_t>(t) << 32 | static_cast<std::uint32_t>(i));
    }
  }
}

// -------------------------------------------------------------- EventRing

struct StampedEvent {
  std::uint64_t seq;
  std::string detail;
};

TEST(EventRing, KeepsLastCapacityEvents) {
  EpochDomain domain;
  EventRing<StampedEvent> ring(domain, 4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.append(new StampedEvent{i, "e" + std::to_string(i)});
  }
  std::vector<const StampedEvent*> out;
  {
    EpochDomain::Guard guard(domain);
    ring.collect(out);
  }
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i]->seq, 6 + i);  // oldest-first tail of the stream
  }
  EXPECT_EQ(ring.appended(), 10u);
}

TEST(EventRing, HammerWriterVsExporterUnderReclamation) {
  EpochDomain domain;
  EventRing<StampedEvent> ring(domain, 32);
  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> exports{0};
  std::atomic<bool> exporter_done{false};

  std::thread exporter([&] {
    // Marks the exit even when an ASSERT below returns early, so the
    // writer's wait for a first export cannot hang on a failure.
    struct DoneMark {
      std::atomic<bool>& done;
      ~DoneMark() { done.store(true, std::memory_order_release); }
    } done_mark{exporter_done};
    std::vector<const StampedEvent*> out;
    started.store(true, std::memory_order_release);
    while (!stop.load(std::memory_order_acquire)) {
      out.clear();
      EpochDomain::Guard guard(domain);
      ring.collect(out);
      // Dereference everything we collected: epoch reclamation must keep
      // each pointer alive for the whole guard (TSan + ASan checkable).
      for (const auto* ev : out) {
        ASSERT_FALSE(ev->detail.empty());
        ASSERT_LT(ev->seq, 50'000u);
      }
      exports.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Single writer churns far past capacity so every append retires an
  // event while the exporter may be mid-walk. On a loaded host the
  // writer could otherwise finish before the exporter is scheduled at
  // all, so it starts only once the exporter runs and stops it only
  // after one full export pass.
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  for (std::uint64_t i = 0; i < 50'000; ++i) {
    ring.append(new StampedEvent{i, "event-" + std::to_string(i)});
  }
  while (exports.load(std::memory_order_relaxed) == 0 &&
         !exporter_done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  exporter.join();
  EXPECT_GT(exports.load(), 0u);
  EXPECT_EQ(ring.appended(), 50'000u);
}

// ---------------------------------------------------- scone alias intact

TEST(LockfreeSpsc, SconeAliasIsTheSameType) {
  // The consolidation kept scone::SpscRing as an alias; both names must
  // refer to one implementation.
  static_assert(
      std::is_same_v<SpscRing<int>, ::securecloud::scone::SpscRing<int>>);
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_EQ(ring.try_pop().value(), 1);
}

}  // namespace
}  // namespace securecloud::lockfree
