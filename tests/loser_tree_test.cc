#include "merge/loser_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/random.h"

namespace twrs {
namespace {

// Reference merge through the loser tree.
std::vector<Key> MergeWithTree(const std::vector<std::vector<Key>>& ways) {
  LoserTree tree(ways.size());
  std::vector<size_t> pos(ways.size(), 0);
  for (size_t w = 0; w < ways.size(); ++w) {
    if (!ways[w].empty()) tree.SetInitial(w, ways[w][0]);
  }
  tree.Build();
  std::vector<Key> out;
  while (!tree.Exhausted()) {
    const size_t w = tree.WinnerIndex();
    out.push_back(tree.WinnerKey());
    if (++pos[w] < ways[w].size()) {
      tree.ReplaceWinner(ways[w][pos[w]]);
    } else {
      tree.RetireWinner();
    }
  }
  return out;
}

TEST(LoserTreeTest, SingleWay) {
  EXPECT_EQ(MergeWithTree({{1, 2, 3}}), std::vector<Key>({1, 2, 3}));
}

TEST(LoserTreeTest, TwoWays) {
  EXPECT_EQ(MergeWithTree({{1, 3, 5}, {2, 4, 6}}),
            std::vector<Key>({1, 2, 3, 4, 5, 6}));
}

TEST(LoserTreeTest, PaperThreeWayExample) {
  // §2.1.2's worked 3-way merge.
  EXPECT_EQ(MergeWithTree({{2, 8, 12, 16}, {3, 13, 14, 17}, {1, 7, 9, 18}}),
            std::vector<Key>({1, 2, 3, 7, 8, 9, 12, 13, 14, 16, 17, 18}));
}

TEST(LoserTreeTest, EmptyWaysAreSkipped) {
  EXPECT_EQ(MergeWithTree({{}, {5}, {}, {1, 9}}),
            std::vector<Key>({1, 5, 9}));
}

TEST(LoserTreeTest, AllWaysEmpty) {
  EXPECT_TRUE(MergeWithTree({{}, {}}).empty());
  LoserTree zero(0);
  zero.Build();
  EXPECT_TRUE(zero.Exhausted());
}

TEST(LoserTreeTest, DuplicateKeysAcrossWays) {
  EXPECT_EQ(MergeWithTree({{5, 5}, {5}, {5, 5, 5}}),
            std::vector<Key>({5, 5, 5, 5, 5, 5}));
}

TEST(LoserTreeTest, TieBreakIsStableByWayIndex) {
  LoserTree tree(3);
  tree.SetInitial(0, 7);
  tree.SetInitial(1, 7);
  tree.SetInitial(2, 7);
  tree.Build();
  EXPECT_EQ(tree.WinnerIndex(), 0u);
  tree.RetireWinner();
  EXPECT_EQ(tree.WinnerIndex(), 1u);
  tree.RetireWinner();
  EXPECT_EQ(tree.WinnerIndex(), 2u);
}

TEST(LoserTreeTest, NonPowerOfTwoWayCounts) {
  for (size_t k : {3u, 5u, 6u, 7u, 9u, 13u}) {
    std::vector<std::vector<Key>> ways(k);
    std::vector<Key> all;
    for (size_t w = 0; w < k; ++w) {
      for (size_t i = 0; i < 10; ++i) {
        ways[w].push_back(static_cast<Key>(w + i * k));
        all.push_back(ways[w].back());
      }
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(MergeWithTree(ways), all) << "k=" << k;
  }
}

TEST(LoserTreeTest, RandomizedAgainstSortProperty) {
  Random rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t k = 1 + rng.Uniform(12);
    std::vector<std::vector<Key>> ways(k);
    std::vector<Key> all;
    for (auto& way : ways) {
      const size_t n = rng.Uniform(50);
      way.resize(n);
      for (Key& key : way) key = static_cast<Key>(rng.Uniform(1000));
      std::sort(way.begin(), way.end());
      all.insert(all.end(), way.begin(), way.end());
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(MergeWithTree(ways), all) << "trial " << trial;
  }
}

TEST(LoserTreeTest, WinnerSequenceMatchesLowestIndexModel) {
  // Keys from a domain of 4 make ties the common case, and short ways
  // retire throughout the merge, so ties and slot erasures interleave. The
  // model picks the lowest way among the minimum current keys every step.
  Random rng(29);
  for (size_t k = 1; k <= 12; ++k) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::vector<Key>> ways(k);
      for (auto& way : ways) {
        way.resize(rng.Uniform(12));
        for (Key& key : way) key = static_cast<Key>(rng.Uniform(4));
        std::sort(way.begin(), way.end());
      }
      std::vector<size_t> model_pos(k, 0);
      std::vector<size_t> tree_pos(k, 0);
      LoserTree tree(k);
      for (size_t w = 0; w < k; ++w) {
        if (!ways[w].empty()) tree.SetInitial(w, ways[w][0]);
      }
      tree.Build();
      for (;;) {
        size_t expect = k;
        for (size_t w = 0; w < k; ++w) {
          if (model_pos[w] == ways[w].size()) continue;
          if (expect == k ||
              ways[w][model_pos[w]] < ways[expect][model_pos[expect]]) {
            expect = w;
          }
        }
        if (expect == k) break;
        ++model_pos[expect];
        ASSERT_FALSE(tree.Exhausted()) << "k=" << k << " trial=" << trial;
        const size_t w = tree.WinnerIndex();
        ASSERT_EQ(w, expect) << "k=" << k << " trial=" << trial;
        ASSERT_EQ(tree.WinnerKey(), ways[w][tree_pos[w]]);
        if (++tree_pos[w] < ways[w].size()) {
          tree.ReplaceWinner(ways[w][tree_pos[w]]);
        } else {
          tree.RetireWinner();
        }
      }
      EXPECT_TRUE(tree.Exhausted()) << "k=" << k << " trial=" << trial;
    }
  }
}

}  // namespace
}  // namespace twrs
