#include "heap/double_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "util/random.h"

namespace twrs {
namespace {

constexpr HeapSide kSides[] = {HeapSide::kBottom, HeapSide::kTop};

void PushAll(DoubleHeap* heap, HeapSide side, std::initializer_list<Key> keys) {
  for (Key k : keys) ASSERT_TRUE(heap->Push(side, k));
}

void PushAllNextRun(DoubleHeap* heap, HeapSide side,
                    std::initializer_list<Key> keys) {
  for (Key k : keys) ASSERT_TRUE(heap->PushNextRun(side, k));
}

std::vector<Key> Drain(DoubleHeap* heap, HeapSide side) {
  std::vector<Key> out;
  while (heap->HasCurrent(side)) out.push_back(heap->Pop(side));
  return out;
}

TEST(DoubleHeapTest, StartsEmpty) {
  DoubleHeap heap(10);
  EXPECT_EQ(heap.capacity(), 10u);
  EXPECT_EQ(heap.size(), 0u);
  for (HeapSide side : kSides) {
    EXPECT_TRUE(heap.Empty(side));
    EXPECT_FALSE(heap.HasCurrent(side));
  }
}

TEST(DoubleHeapTest, BottomPopsDescending) {
  DoubleHeap heap(10);
  PushAll(&heap, HeapSide::kBottom, {3, 1, 4, 1, 5});
  EXPECT_EQ(Drain(&heap, HeapSide::kBottom), std::vector<Key>({5, 4, 3, 1, 1}));
}

TEST(DoubleHeapTest, TopPopsAscending) {
  DoubleHeap heap(10);
  PushAll(&heap, HeapSide::kTop, {3, 1, 4, 1, 5});
  EXPECT_EQ(Drain(&heap, HeapSide::kTop), std::vector<Key>({1, 1, 3, 4, 5}));
}

TEST(DoubleHeapTest, SidesShareCapacity) {
  DoubleHeap heap(4);
  PushAll(&heap, HeapSide::kBottom, {1, 2});
  PushAll(&heap, HeapSide::kTop, {3, 4});
  EXPECT_TRUE(heap.Full());
  EXPECT_FALSE(heap.Push(HeapSide::kBottom, 5));
  EXPECT_FALSE(heap.Push(HeapSide::kTop, 5));
  // Popping one side frees a slot the other side can claim (Figs 4.4/4.5).
  heap.Pop(HeapSide::kBottom);
  EXPECT_TRUE(heap.Push(HeapSide::kTop, 6));
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 3u);
  EXPECT_EQ(heap.SideSize(HeapSide::kBottom), 1u);
}

TEST(DoubleHeapTest, NextRunPoolsShareTheSameCapacity) {
  // The budget counts both runs on both sides: a slot freed by a current-run
  // pop on one side can hold a next-run key on the other.
  DoubleHeap heap(4);
  PushAll(&heap, HeapSide::kBottom, {1, 2});
  PushAllNextRun(&heap, HeapSide::kTop, {3});
  PushAllNextRun(&heap, HeapSide::kBottom, {0});
  EXPECT_TRUE(heap.Full());
  EXPECT_EQ(heap.SideSize(HeapSide::kBottom), 3u);
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 1u);
  EXPECT_FALSE(heap.PushNextRun(HeapSide::kTop, 9));
  EXPECT_EQ(heap.Pop(HeapSide::kBottom), 2);
  EXPECT_TRUE(heap.PushNextRun(HeapSide::kTop, 9));
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 2u);
  EXPECT_TRUE(heap.IsValid());
}

TEST(DoubleHeapTest, FullSideRefusesPushAndPushNextRun) {
  // One side holding the whole budget, split between its heap and its
  // pool, refuses further records of either run on either side and keeps
  // its contents.
  DoubleHeap heap(5);
  PushAll(&heap, HeapSide::kTop, {10, 20, 30});
  PushAllNextRun(&heap, HeapSide::kTop, {1, 2});
  ASSERT_TRUE(heap.Full());
  for (HeapSide side : kSides) {
    EXPECT_FALSE(heap.Push(side, 15));
    EXPECT_FALSE(heap.PushNextRun(side, 15));
  }
  EXPECT_EQ(heap.size(), 5u);
  EXPECT_TRUE(heap.Empty(HeapSide::kBottom));
  EXPECT_EQ(Drain(&heap, HeapSide::kTop), std::vector<Key>({10, 20, 30}));
  heap.StartNextRun();
  EXPECT_EQ(Drain(&heap, HeapSide::kTop), std::vector<Key>({1, 2}));
}

TEST(DoubleHeapTest, OneSideCanFillTheWholeArray) {
  // §4.1: if the TopHeap grows to occupy the whole memory, the algorithm is
  // equivalent to RS.
  DoubleHeap heap(8);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(heap.Push(HeapSide::kTop, i));
  EXPECT_TRUE(heap.Full());
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 8u);
  const std::vector<Key> out = Drain(&heap, HeapSide::kTop);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(DoubleHeapTest, PaperFigure42Example) {
  // Figure 4.2/4.3: BottomHeap {33,28,32,16,20,22,4} (max), TopHeap
  // {52,54,72,75,64,81,77} (min) sharing one budget.
  DoubleHeap heap(14);
  PushAll(&heap, HeapSide::kBottom, {33, 28, 32, 16, 20, 22, 4});
  PushAll(&heap, HeapSide::kTop, {52, 54, 72, 75, 64, 81, 77});
  ASSERT_TRUE(heap.IsValid());
  EXPECT_EQ(heap.Top(HeapSide::kBottom), 33);
  EXPECT_EQ(heap.Top(HeapSide::kTop), 52);
  // Figure 4.4: removing the BottomHeap top leaves room...
  EXPECT_EQ(heap.Pop(HeapSide::kBottom), 33);
  // ...Figure 4.5: which the TopHeap can use (inserting 53).
  EXPECT_TRUE(heap.Push(HeapSide::kTop, 53));
  ASSERT_TRUE(heap.IsValid());
  EXPECT_EQ(heap.Top(HeapSide::kTop), 52);
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 8u);
  EXPECT_EQ(heap.SideSize(HeapSide::kBottom), 6u);
}

TEST(DoubleHeapTest, LaterRunRecordsSinkBelowCurrentRun) {
  // A next-run key waits in the side's pool: it never becomes the root, even
  // when it beats every current-run key, until StartNextRun.
  DoubleHeap heap(8);
  ASSERT_TRUE(heap.Push(HeapSide::kTop, 100));
  ASSERT_TRUE(heap.PushNextRun(HeapSide::kTop, 1));
  EXPECT_EQ(heap.Top(HeapSide::kTop), 100);
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 2u);
  EXPECT_EQ(heap.Pop(HeapSide::kTop), 100);
  EXPECT_FALSE(heap.HasCurrent(HeapSide::kTop));
  EXPECT_FALSE(heap.Empty(HeapSide::kTop));

  ASSERT_TRUE(heap.Push(HeapSide::kBottom, 1));
  ASSERT_TRUE(heap.PushNextRun(HeapSide::kBottom, 100));
  EXPECT_EQ(heap.Top(HeapSide::kBottom), 1);
  EXPECT_TRUE(heap.HasCurrent(HeapSide::kBottom));
}

TEST(DoubleHeapTest, StartNextRunPromotesBothPools) {
  DoubleHeap heap(16);
  PushAll(&heap, HeapSide::kBottom, {50});
  PushAll(&heap, HeapSide::kTop, {60});
  PushAllNextRun(&heap, HeapSide::kBottom, {7, 3, 9, 1});
  PushAllNextRun(&heap, HeapSide::kTop, {8, 2, 6});
  EXPECT_EQ(heap.Pop(HeapSide::kBottom), 50);
  EXPECT_EQ(heap.Pop(HeapSide::kTop), 60);
  ASSERT_FALSE(heap.HasCurrent(HeapSide::kBottom));
  ASSERT_FALSE(heap.HasCurrent(HeapSide::kTop));

  heap.StartNextRun();
  EXPECT_TRUE(heap.IsValid());
  EXPECT_EQ(heap.size(), 7u);
  EXPECT_EQ(heap.SideSize(HeapSide::kBottom), 4u);
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 3u);
  EXPECT_EQ(Drain(&heap, HeapSide::kBottom), std::vector<Key>({9, 7, 3, 1}));
  EXPECT_EQ(Drain(&heap, HeapSide::kTop), std::vector<Key>({2, 6, 8}));
}

TEST(DoubleHeapTest, StartNextRunPromotesAPoolFillingTheArray) {
  DoubleHeap heap(4);
  PushAllNextRun(&heap, HeapSide::kBottom, {4, 2, 3, 1});
  ASSERT_TRUE(heap.Full());
  heap.StartNextRun();
  EXPECT_TRUE(heap.IsValid());
  EXPECT_EQ(Drain(&heap, HeapSide::kBottom), std::vector<Key>({4, 3, 2, 1}));
}

TEST(DoubleHeapTest, AppendCurrentRunKeysSkipsNextRunPool) {
  DoubleHeap heap(8);
  PushAll(&heap, HeapSide::kBottom, {5, 3});
  PushAll(&heap, HeapSide::kTop, {40});
  PushAllNextRun(&heap, HeapSide::kBottom, {99});
  PushAllNextRun(&heap, HeapSide::kTop, {-1});
  std::vector<Key> keys = {1000};  // appends, keeps what is there
  heap.AppendCurrentRunKeys(&keys);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, std::vector<Key>({3, 5, 40, 1000}));
}

// A capacity whose side arrays exceed kPageAllocBytes, so each side lives
// in pages mapped for it (util/page_allocator.h), as a 1 Mi-record sort's
// heaps do; the snapshot is a PageVector as in 2WRS's bootstrap.
TEST(DoubleHeapTest, PageMappedCapacityKeepsEveryKey) {
  constexpr size_t kCapacity = 3 * kPageAllocBytes / sizeof(Key);
  DoubleHeap heap(kCapacity);
  Random rng(7);
  std::vector<Key> bottom;
  std::vector<Key> top;
  for (size_t i = 0; i < kCapacity; ++i) {
    const Key k = static_cast<Key>(rng.Next() >> 1);
    const bool to_bottom = rng.OneIn2();
    ASSERT_TRUE(heap.Push(to_bottom ? HeapSide::kBottom : HeapSide::kTop, k));
    (to_bottom ? bottom : top).push_back(k);
  }
  ASSERT_TRUE(heap.Full());
  ASSERT_TRUE(heap.IsValid());
  PageVector<Key> snapshot;
  heap.AppendCurrentRunKeys(&snapshot);
  std::vector<Key> all(bottom);
  all.insert(all.end(), top.begin(), top.end());
  std::sort(all.begin(), all.end());
  std::sort(snapshot.begin(), snapshot.end());
  EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(), all.begin(),
                         all.end()));
  std::sort(bottom.rbegin(), bottom.rend());
  std::sort(top.begin(), top.end());
  EXPECT_EQ(Drain(&heap, HeapSide::kBottom), bottom);
  EXPECT_EQ(Drain(&heap, HeapSide::kTop), top);
}

TEST(DoubleHeapTest, PopLastLeafShrinksSide) {
  DoubleHeap heap(6);
  PushAll(&heap, HeapSide::kBottom, {1, 2, 3});
  const Key leaf = heap.PopLastLeaf(HeapSide::kBottom);
  EXPECT_EQ(heap.SideSize(HeapSide::kBottom), 2u);
  EXPECT_TRUE(heap.IsValid());
  // Leaf is one of the stored records, and never the root.
  EXPECT_TRUE(leaf >= 1 && leaf <= 2);
}

TEST(DoubleHeapTest, PopLastLeafLeavesNextRunPoolAlone) {
  DoubleHeap heap(6);
  PushAll(&heap, HeapSide::kTop, {5});
  PushAllNextRun(&heap, HeapSide::kTop, {1, 2});
  EXPECT_EQ(heap.PopLastLeaf(HeapSide::kTop), 5);
  EXPECT_FALSE(heap.HasCurrent(HeapSide::kTop));
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 2u);
}

TEST(DoubleHeapTest, ReplaceTopEvictsBottomRoot) {
  DoubleHeap heap(8);
  PushAll(&heap, HeapSide::kBottom, {3, 1, 4, 1, 5});
  // Bottom is a max-heap: the root is 5; replacing it with 2 returns it.
  EXPECT_EQ(heap.ReplaceTop(HeapSide::kBottom, 2), 5);
  EXPECT_TRUE(heap.IsValid());
  EXPECT_EQ(heap.Top(HeapSide::kBottom), 4);
  EXPECT_EQ(heap.SideSize(HeapSide::kBottom), 5u);  // size unchanged
  EXPECT_EQ(Drain(&heap, HeapSide::kBottom), std::vector<Key>({4, 3, 2, 1, 1}));
}

TEST(DoubleHeapTest, ReplaceTopEvictsTopRoot) {
  DoubleHeap heap(8);
  PushAll(&heap, HeapSide::kTop, {30, 10, 40, 20});
  // Top is a min-heap: the root is 10; the replacement may itself become
  // the new root.
  EXPECT_EQ(heap.ReplaceTop(HeapSide::kTop, 5), 10);
  EXPECT_TRUE(heap.IsValid());
  EXPECT_EQ(heap.Top(HeapSide::kTop), 5);
  // And one that sinks past the root.
  EXPECT_EQ(heap.ReplaceTop(HeapSide::kTop, 35), 5);
  EXPECT_TRUE(heap.IsValid());
  EXPECT_EQ(Drain(&heap, HeapSide::kTop), std::vector<Key>({20, 30, 35, 40}));
}

TEST(DoubleHeapTest, ReplaceTopLeavesOtherSideIntact) {
  DoubleHeap heap(8);
  PushAll(&heap, HeapSide::kBottom, {1, 2, 3});
  PushAll(&heap, HeapSide::kTop, {10, 20, 30});
  EXPECT_EQ(heap.ReplaceTop(HeapSide::kBottom, 0), 3);
  EXPECT_EQ(heap.ReplaceTop(HeapSide::kTop, 40), 10);
  EXPECT_TRUE(heap.IsValid());
  EXPECT_EQ(heap.SideSize(HeapSide::kBottom), 3u);
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 3u);
  EXPECT_EQ(heap.Top(HeapSide::kBottom), 2);
  EXPECT_EQ(heap.Top(HeapSide::kTop), 20);
}

TEST(DoubleHeapTest, RandomizedReplaceTopKeepsInvariants) {
  Random rng(79);
  DoubleHeap heap(32);
  while (!heap.Full()) {
    const HeapSide side = rng.OneIn2() ? HeapSide::kBottom : HeapSide::kTop;
    ASSERT_TRUE(heap.Push(side, static_cast<Key>(rng.Uniform(1000))));
  }
  for (int step = 0; step < 2000; ++step) {
    const HeapSide side = rng.OneIn2() ? HeapSide::kBottom : HeapSide::kTop;
    if (!heap.HasCurrent(side)) continue;
    const Key root = heap.Top(side);
    const Key evicted =
        heap.ReplaceTop(side, static_cast<Key>(rng.Uniform(1000)));
    ASSERT_EQ(evicted, root) << "step " << step;
    ASSERT_TRUE(heap.IsValid()) << "step " << step;
  }
  EXPECT_EQ(heap.size(), heap.capacity());  // replace never changes size
}

TEST(DoubleHeapTest, HeapSideNames) {
  EXPECT_STREQ(HeapSideName(HeapSide::kBottom), "Bottom");
  EXPECT_STREQ(HeapSideName(HeapSide::kTop), "Top");
}

// Runs every operation at random against a model holding, per side, the
// multiset of current-run keys and the multiset of next-run keys. Each
// removal must return the model's extreme (or, for PopLastLeaf, some
// current-run key), and the structure must stay valid after every step.
TEST(DoubleHeapTest, RandomizedMixedOperationsKeepInvariants) {
  struct SideModel {
    std::multiset<Key> current;
    std::multiset<Key> next;
  };
  Random rng(80);
  for (size_t capacity : {1u, 2u, 7u, 64u}) {
    DoubleHeap heap(capacity);
    SideModel model[2];
    auto at = [&](HeapSide side) -> SideModel& {
      return model[side == HeapSide::kBottom ? 0 : 1];
    };
    // The root of a side: the max for Bottom, the min for Top.
    auto extreme = [&](HeapSide side) {
      const std::multiset<Key>& c = at(side).current;
      return side == HeapSide::kBottom ? std::prev(c.end()) : c.begin();
    };
    size_t held = 0;
    for (int step = 0; step < 4000; ++step) {
      const HeapSide side = rng.OneIn2() ? HeapSide::kBottom : HeapSide::kTop;
      SideModel& m = at(side);
      const Key key = static_cast<Key>(rng.Uniform(50));
      switch (rng.Uniform(7)) {
        case 0:
        case 1:
          ASSERT_EQ(heap.Push(side, key), held < capacity);
          if (held < capacity) {
            m.current.insert(key);
            ++held;
          }
          break;
        case 2:
          ASSERT_EQ(heap.PushNextRun(side, key), held < capacity);
          if (held < capacity) {
            m.next.insert(key);
            ++held;
          }
          break;
        case 3:
          if (m.current.empty()) break;
          ASSERT_EQ(heap.Pop(side), *extreme(side));
          m.current.erase(extreme(side));
          --held;
          break;
        case 4:
          if (m.current.empty()) break;
          ASSERT_EQ(heap.ReplaceTop(side, key), *extreme(side));
          m.current.erase(extreme(side));
          m.current.insert(key);
          break;
        case 5: {
          if (m.current.empty()) break;
          const auto it = m.current.find(heap.PopLastLeaf(side));
          ASSERT_NE(it, m.current.end());
          m.current.erase(it);
          --held;
          break;
        }
        case 6:
          // Drain whatever the current run still holds, then promote.
          for (HeapSide s : kSides) {
            while (!at(s).current.empty()) {
              ASSERT_EQ(heap.Pop(s), *extreme(s));
              at(s).current.erase(extreme(s));
              --held;
            }
          }
          heap.StartNextRun();
          for (SideModel& sm : model) std::swap(sm.current, sm.next);
          break;
      }
      ASSERT_TRUE(heap.IsValid()) << "capacity " << capacity << " step "
                                  << step;
      ASSERT_EQ(heap.size(), held);
      for (HeapSide s : kSides) {
        ASSERT_EQ(heap.SideSize(s), at(s).current.size() + at(s).next.size());
        ASSERT_EQ(heap.HasCurrent(s), !at(s).current.empty());
        if (heap.HasCurrent(s)) {
          ASSERT_EQ(heap.Top(s), *extreme(s));
        }
      }
      std::vector<Key> current;
      heap.AppendCurrentRunKeys(&current);
      std::multiset<Key> expected = model[0].current;
      expected.insert(model[1].current.begin(), model[1].current.end());
      ASSERT_EQ(std::multiset<Key>(current.begin(), current.end()), expected);
    }
  }
}

// The same kind of model check at capacities above the insertion bound, so
// each side's insertion heap spills into sequences and the spills merge,
// and StartNextRun promotes pools larger than the bound. Each run fills the
// heap, then replaces records the way 2WRS does (a removal, then a push of
// either run), with ReplaceTop and PopLastLeaf mixed in after the spills,
// and ends by draining both sides.
TEST(DoubleHeapTest, RandomizedSpillsAndMergesMatchModel) {
  struct SideModel {
    std::multiset<Key> current;
    std::multiset<Key> next;
  };
  Random rng(81);
  for (size_t capacity : {5000u, 20000u, 70000u}) {
    DoubleHeap heap(capacity);
    SideModel model[2];
    auto at = [&](HeapSide side) -> SideModel& {
      return model[side == HeapSide::kBottom ? 0 : 1];
    };
    auto extreme = [&](HeapSide side) {
      const std::multiset<Key>& c = at(side).current;
      return side == HeapSide::kBottom ? std::prev(c.end()) : c.begin();
    };
    size_t held = 0;
    uint64_t bottom_share = 2;  // of 4; skewed anew every run
    auto random_side = [&] {
      return rng.Uniform(4) < bottom_share ? HeapSide::kBottom
                                           : HeapSide::kTop;
    };
    // Pushes a key to a random side: the next run one time in `next_in`.
    auto push = [&](uint64_t next_in) {
      const HeapSide side = random_side();
      const Key key = static_cast<Key>(rng.Uniform(1000000));
      const bool next = rng.Uniform(next_in) == 0;
      const bool stored =
          next ? heap.PushNextRun(side, key) : heap.Push(side, key);
      ASSERT_EQ(stored, held < capacity);
      if (stored) {
        (next ? at(side).next : at(side).current).insert(key);
        ++held;
      }
    };
    auto check = [&](int run) {
      ASSERT_TRUE(heap.IsValid()) << "capacity " << capacity << " run " << run;
      ASSERT_EQ(heap.size(), held);
      for (HeapSide s : kSides) {
        ASSERT_EQ(heap.SideSize(s), at(s).current.size() + at(s).next.size());
        ASSERT_EQ(heap.HasCurrent(s), !at(s).current.empty());
        if (heap.HasCurrent(s)) {
          ASSERT_EQ(heap.Top(s), *extreme(s));
        }
      }
    };
    size_t largest_pool = 0;
    for (int run = 0; run < 4; ++run) {
      bottom_share = 1 + rng.Uniform(3);
      while (held < capacity) push(4);
      check(run);
      for (size_t step = 0; step < 8 * capacity; ++step) {
        const HeapSide side = random_side();
        SideModel& m = at(side);
        const uint64_t op = rng.Uniform(16);
        if (m.current.empty() || op >= 13) {
          push(16);  // refused when full
        } else if (op < 9) {
          ASSERT_EQ(heap.Pop(side), *extreme(side));
          m.current.erase(extreme(side));
          --held;
          push(16);
        } else if (op < 12) {
          const Key key = static_cast<Key>(rng.Uniform(1000000));
          ASSERT_EQ(heap.ReplaceTop(side, key), *extreme(side));
          m.current.erase(extreme(side));
          m.current.insert(key);
        } else {
          const auto it = m.current.find(heap.PopLastLeaf(side));
          ASSERT_NE(it, m.current.end());
          m.current.erase(it);
          --held;
          push(16);
        }
        if (step % 997 == 0) check(run);
      }
      check(run);
      for (HeapSide s : kSides) {
        while (!at(s).current.empty()) {
          ASSERT_EQ(heap.Pop(s), *extreme(s));
          at(s).current.erase(extreme(s));
          --held;
        }
        largest_pool = std::max(largest_pool, at(s).next.size());
      }
      heap.StartNextRun();
      for (SideModel& sm : model) std::swap(sm.current, sm.next);
      check(run);
    }
    if (capacity > 2 * DoubleHeap::kInsertionBound) {
      EXPECT_GT(largest_pool, DoubleHeap::kInsertionBound)
          << "capacity " << capacity;
    }
  }
}

TEST(DoubleHeapTest, DrainAfterMixedInsertsIsSorted) {
  Random rng(78);
  for (int trial = 0; trial < 20; ++trial) {
    DoubleHeap heap(128);
    while (!heap.Full()) {
      const HeapSide side = rng.OneIn2() ? HeapSide::kBottom : HeapSide::kTop;
      ASSERT_TRUE(heap.Push(side, static_cast<Key>(rng.Uniform(100000))));
    }
    const std::vector<Key> bottom = Drain(&heap, HeapSide::kBottom);
    const std::vector<Key> top = Drain(&heap, HeapSide::kTop);
    EXPECT_TRUE(std::is_sorted(bottom.rbegin(), bottom.rend()));
    EXPECT_TRUE(std::is_sorted(top.begin(), top.end()));
  }
}

}  // namespace
}  // namespace twrs
