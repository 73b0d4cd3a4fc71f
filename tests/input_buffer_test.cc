#include "core/input_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/record_source.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace twrs {
namespace {

TEST(MedianTrackerTest, SingleElement) {
  MedianTracker tracker;
  tracker.Insert(5);
  EXPECT_EQ(tracker.Median(), 5);
}

TEST(MedianTrackerTest, LowerMedianOfEvenCount) {
  MedianTracker tracker;
  for (Key k : {1, 2, 3, 4}) tracker.Insert(k);
  EXPECT_EQ(tracker.Median(), 2);  // lower median
}

TEST(MedianTrackerTest, OddCount) {
  MedianTracker tracker;
  for (Key k : {9, 1, 5}) tracker.Insert(k);
  EXPECT_EQ(tracker.Median(), 5);
}

TEST(MedianTrackerTest, EraseUpdatesMedian) {
  MedianTracker tracker;
  for (Key k : {1, 2, 3, 4, 5}) tracker.Insert(k);
  EXPECT_EQ(tracker.Median(), 3);
  tracker.Erase(1);
  EXPECT_EQ(tracker.Median(), 3);  // {2,3,4,5} lower median
  tracker.Erase(3);
  EXPECT_EQ(tracker.Median(), 4);  // {2,4,5}
  tracker.Erase(5);
  EXPECT_EQ(tracker.Median(), 2);  // {2,4}
}

TEST(MedianTrackerTest, DuplicatesSupported) {
  MedianTracker tracker;
  for (Key k : {7, 7, 7, 1}) tracker.Insert(k);
  EXPECT_EQ(tracker.Median(), 7);
  tracker.Erase(7);
  tracker.Erase(7);
  EXPECT_EQ(tracker.Median(), 1);  // {1, 7}
}

TEST(MedianTrackerTest, MatchesNthElementOnRandomStreams) {
  Random rng(3);
  MedianTracker tracker;
  std::vector<Key> window;
  for (int step = 0; step < 3000; ++step) {
    if (window.size() < 40 || rng.OneIn2()) {
      const Key k = static_cast<Key>(rng.Uniform(1000));
      tracker.Insert(k);
      window.push_back(k);
    } else {
      const size_t victim = rng.Uniform(window.size());
      tracker.Erase(window[victim]);
      window.erase(window.begin() + victim);
    }
    if (!window.empty()) {
      std::vector<Key> sorted = window;
      std::sort(sorted.begin(), sorted.end());
      const Key expected = sorted[(sorted.size() - 1) / 2];  // lower median
      ASSERT_EQ(tracker.Median(), expected) << "step " << step;
    }
  }
}

TEST(InputBufferTest, PassThroughWhenCapacityZero) {
  VectorSource source({1, 2, 3});
  InputBuffer buffer(&source, 0);
  Key k;
  EXPECT_TRUE(testing::Pop(&buffer, &k));
  EXPECT_EQ(k, 1);
  EXPECT_FALSE(buffer.HasStats());
  EXPECT_TRUE(testing::Pop(&buffer, &k));
  EXPECT_TRUE(testing::Pop(&buffer, &k));
  EXPECT_FALSE(testing::Pop(&buffer, &k));
}

TEST(InputBufferTest, PreservesInputOrder) {
  VectorSource source({4, 8, 15, 16, 23, 42});
  InputBuffer buffer(&source, 3);
  std::vector<Key> out;
  Key k;
  while (testing::Pop(&buffer, &k)) out.push_back(k);
  EXPECT_EQ(out, std::vector<Key>({4, 8, 15, 16, 23, 42}));
}

TEST(InputBufferTest, StatsMatchPaperWorkedExample) {
  // §4.5: input begins {40, 50, 39, 51, 38, 52, ...} with a 4-record input
  // buffer. The first decision sees mean 45 (window {40,50,39,51}); the
  // second sees mean 44.5 (window {50,39,51,38}).
  VectorSource source({40, 50, 39, 51, 38, 52, 37, 53});
  InputBuffer buffer(&source, 4);
  Key k;
  ASSERT_TRUE(testing::Pop(&buffer, &k));
  EXPECT_EQ(k, 40);
  ASSERT_TRUE(buffer.HasStats());
  EXPECT_DOUBLE_EQ(buffer.Mean(), 45.0);
  ASSERT_TRUE(testing::Pop(&buffer, &k));
  EXPECT_EQ(k, 50);
  EXPECT_DOUBLE_EQ(buffer.Mean(), 44.5);
}

TEST(InputBufferTest, MedianTracksWindow) {
  VectorSource source({10, 20, 30, 40, 50});
  InputBuffer buffer(&source, 4);
  Key k;
  ASSERT_TRUE(testing::Pop(&buffer, &k));  // window {10,20,30,40}
  EXPECT_EQ(buffer.Median(), 20);
  ASSERT_TRUE(testing::Pop(&buffer, &k));  // window {20,30,40,50}
  EXPECT_EQ(buffer.Median(), 30);
}

TEST(InputBufferTest, WindowShrinksAtEndOfInput) {
  VectorSource source({1, 2});
  InputBuffer buffer(&source, 8);
  Key k;
  ASSERT_TRUE(testing::Pop(&buffer, &k));
  EXPECT_EQ(k, 1);
  EXPECT_DOUBLE_EQ(buffer.Mean(), 1.5);  // window {1,2}
  ASSERT_TRUE(testing::Pop(&buffer, &k));
  EXPECT_EQ(k, 2);
  EXPECT_DOUBLE_EQ(buffer.Mean(), 2.0);  // window {2}
  EXPECT_FALSE(testing::Pop(&buffer, &k));
}

TEST(InputBufferTest, EmptySource) {
  VectorSource source({});
  InputBuffer buffer(&source, 4);
  Key k;
  EXPECT_FALSE(testing::Pop(&buffer, &k));
  EXPECT_FALSE(buffer.HasStats());
}

}  // namespace
}  // namespace twrs
