#include "core/heuristics.h"

#include <gtest/gtest.h>

#include "core/input_buffer.h"
#include "core/record_source.h"
#include "tests/test_util.h"

namespace twrs {
namespace {

// Stores a current-run key; every heap below has room for it.
void Put(DoubleHeap* heap, HeapSide side, Key key) {
  ASSERT_TRUE(heap->Push(side, key));
}

TEST(HeuristicNamesTest, AllNamed) {
  EXPECT_STREQ(InputHeuristicName(InputHeuristic::kRandom), "Random");
  EXPECT_STREQ(InputHeuristicName(InputHeuristic::kAlternate), "Alternate");
  EXPECT_STREQ(InputHeuristicName(InputHeuristic::kMean), "Mean");
  EXPECT_STREQ(InputHeuristicName(InputHeuristic::kMedian), "Median");
  EXPECT_STREQ(InputHeuristicName(InputHeuristic::kUseful), "Useful");
  EXPECT_STREQ(InputHeuristicName(InputHeuristic::kBalancing), "Balancing");
  EXPECT_STREQ(OutputHeuristicName(OutputHeuristic::kRandom), "Random");
  EXPECT_STREQ(OutputHeuristicName(OutputHeuristic::kAlternate), "Alternate");
  EXPECT_STREQ(OutputHeuristicName(OutputHeuristic::kUseful), "Useful");
  EXPECT_STREQ(OutputHeuristicName(OutputHeuristic::kBalancing), "Balancing");
  EXPECT_STREQ(OutputHeuristicName(OutputHeuristic::kMinDistance),
               "MinDistance");
}

TEST(HeuristicsTest, AlternateInputAlternates) {
  HeuristicEngine engine(InputHeuristic::kAlternate, OutputHeuristic::kRandom,
                         1);
  DoubleHeap heap(4);
  const HeapSide first = engine.ChooseInsertSide(0, nullptr, heap);
  const HeapSide second = engine.ChooseInsertSide(0, nullptr, heap);
  EXPECT_NE(first, second);
  EXPECT_EQ(engine.ChooseInsertSide(0, nullptr, heap), first);
}

TEST(HeuristicsTest, MeanReproducesPaperExampleDecisions) {
  // §4.5: with input {40, 50, 39, 51, ...}, 40 goes to the BottomHeap
  // (below the sample mean) and 50 to the TopHeap (above it). The engine
  // pools the records seen so far with the buffered lookahead, which
  // reproduces the same decisions as the thesis' window-only mean.
  HeuristicEngine engine(InputHeuristic::kMean, OutputHeuristic::kRandom, 1);
  VectorSource source({40, 50, 39, 51});
  InputBuffer buffer(&source, 4);
  DoubleHeap heap(4);
  Key k;
  ASSERT_TRUE(testing::Pop(&buffer, &k));
  engine.OnRecordSeen(k);  // seen {40}, lookahead {50, 39, 51}: mean 45
  EXPECT_EQ(engine.ChooseInsertSide(40, &buffer, heap), HeapSide::kBottom);
  ASSERT_TRUE(testing::Pop(&buffer, &k));
  engine.OnRecordSeen(k);  // seen {40, 50}, lookahead {39, 51}: mean 45
  EXPECT_EQ(engine.ChooseInsertSide(50, &buffer, heap), HeapSide::kTop);
}

TEST(HeuristicsTest, MeanFallsBackToRunningMeanWithoutBuffer) {
  HeuristicEngine engine(InputHeuristic::kMean, OutputHeuristic::kRandom, 1);
  DoubleHeap heap(4);
  engine.OnRecordSeen(10);
  engine.OnRecordSeen(20);  // running mean 15
  EXPECT_EQ(engine.ChooseInsertSide(16, nullptr, heap), HeapSide::kTop);
  EXPECT_EQ(engine.ChooseInsertSide(14, nullptr, heap), HeapSide::kBottom);
}

TEST(HeuristicsTest, MedianUsesBufferWindow) {
  HeuristicEngine engine(InputHeuristic::kMedian, OutputHeuristic::kRandom, 1);
  VectorSource source({10, 20, 100, 30});
  InputBuffer buffer(&source, 4);
  DoubleHeap heap(4);
  Key k;
  ASSERT_TRUE(testing::Pop(&buffer, &k));  // window {10,20,100,30}, median 20
  EXPECT_EQ(engine.ChooseInsertSide(25, &buffer, heap), HeapSide::kTop);
  EXPECT_EQ(engine.ChooseInsertSide(15, &buffer, heap), HeapSide::kBottom);
}

TEST(HeuristicsTest, BalancingInsertsIntoSmallerHeap) {
  HeuristicEngine engine(InputHeuristic::kBalancing, OutputHeuristic::kRandom,
                         1);
  DoubleHeap heap(8);
  Put(&heap, HeapSide::kBottom, 1);
  Put(&heap, HeapSide::kBottom, 2);
  Put(&heap, HeapSide::kTop, 3);
  EXPECT_EQ(engine.ChooseInsertSide(0, nullptr, heap), HeapSide::kTop);
}

TEST(HeuristicsTest, BalancingRebalancesAtRunStart) {
  HeuristicEngine engine(InputHeuristic::kBalancing, OutputHeuristic::kRandom,
                         1);
  DoubleHeap heap(16);
  for (int i = 0; i < 10; ++i) Put(&heap, HeapSide::kBottom, i);
  engine.OnRunStart(&heap);
  EXPECT_LE(heap.SideSize(HeapSide::kBottom), 6u);
  EXPECT_GE(heap.SideSize(HeapSide::kTop), 4u);
  EXPECT_EQ(heap.size(), 10u);
  EXPECT_TRUE(heap.IsValid());
}

TEST(HeuristicsTest, BalancingCountsNextRunRecords) {
  // Side sizes include the records parked for the next run, as in the
  // paper's single tagged array.
  HeuristicEngine engine(InputHeuristic::kBalancing, OutputHeuristic::kRandom,
                         1);
  DoubleHeap heap(8);
  Put(&heap, HeapSide::kBottom, 1);
  Put(&heap, HeapSide::kBottom, 2);
  for (Key k : {5, 6, 7}) ASSERT_TRUE(heap.PushNextRun(HeapSide::kTop, k));
  EXPECT_EQ(engine.ChooseInsertSide(0, nullptr, heap), HeapSide::kBottom);
}

TEST(HeuristicsTest, BalancingRebalancesPromotedNextRun) {
  HeuristicEngine engine(InputHeuristic::kBalancing, OutputHeuristic::kRandom,
                         1);
  DoubleHeap heap(16);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(heap.PushNextRun(HeapSide::kTop, i));
  }
  heap.StartNextRun();
  engine.OnRunStart(&heap);
  EXPECT_EQ(heap.SideSize(HeapSide::kBottom), 4u);
  EXPECT_EQ(heap.SideSize(HeapSide::kTop), 5u);
  EXPECT_TRUE(heap.HasCurrent(HeapSide::kBottom));
  EXPECT_TRUE(heap.IsValid());
}

TEST(HeuristicsTest, UsefulPrefersProductiveSide) {
  HeuristicEngine engine(InputHeuristic::kUseful, OutputHeuristic::kUseful, 1);
  DoubleHeap heap(8);
  Put(&heap, HeapSide::kBottom, 1);
  Put(&heap, HeapSide::kBottom, 2);
  Put(&heap, HeapSide::kTop, 10);
  Put(&heap, HeapSide::kTop, 11);
  // Record three outputs from Top, none from Bottom.
  engine.OnOutput(HeapSide::kTop, 10);
  engine.OnOutput(HeapSide::kTop, 11);
  engine.OnOutput(HeapSide::kTop, 12);
  EXPECT_EQ(engine.ChooseInsertSide(5, nullptr, heap), HeapSide::kTop);
  EXPECT_EQ(engine.ChooseOutputSide(heap), HeapSide::kTop);
}

TEST(HeuristicsTest, OutputAlternateStartsWithBottom) {
  HeuristicEngine engine(InputHeuristic::kRandom, OutputHeuristic::kAlternate,
                         1);
  DoubleHeap heap(4);
  Put(&heap, HeapSide::kBottom, 1);
  Put(&heap, HeapSide::kTop, 2);
  EXPECT_EQ(engine.ChooseOutputSide(heap), HeapSide::kBottom);
  EXPECT_EQ(engine.ChooseOutputSide(heap), HeapSide::kTop);
  EXPECT_EQ(engine.ChooseOutputSide(heap), HeapSide::kBottom);
  // A new run restarts the alternation at the BottomHeap.
  engine.OnRunStart(nullptr);
  EXPECT_EQ(engine.ChooseOutputSide(heap), HeapSide::kBottom);
}

TEST(HeuristicsTest, OutputBalancingPopsLargerHeap) {
  HeuristicEngine engine(InputHeuristic::kRandom, OutputHeuristic::kBalancing,
                         1);
  DoubleHeap heap(8);
  Put(&heap, HeapSide::kBottom, 1);
  Put(&heap, HeapSide::kBottom, 2);
  Put(&heap, HeapSide::kBottom, 3);
  Put(&heap, HeapSide::kTop, 4);
  EXPECT_EQ(engine.ChooseOutputSide(heap), HeapSide::kBottom);
}

TEST(HeuristicsTest, MinDistancePopsClosestToFirstOutput) {
  HeuristicEngine engine(InputHeuristic::kRandom,
                         OutputHeuristic::kMinDistance, 1);
  DoubleHeap heap(8);
  Put(&heap, HeapSide::kBottom, 90);
  Put(&heap, HeapSide::kTop, 200);
  engine.OnOutput(HeapSide::kTop, 100);  // first output = 100
  // |90-100| = 10 < |200-100| = 100.
  EXPECT_EQ(engine.ChooseOutputSide(heap), HeapSide::kBottom);
  engine.OnRunStart(nullptr);  // new run forgets the reference
  // Without a first output the choice is random; just check it runs.
  (void)engine.ChooseOutputSide(heap);
}

TEST(HeuristicsTest, RandomSidesAreBothUsed) {
  HeuristicEngine engine(InputHeuristic::kRandom, OutputHeuristic::kRandom,
                         123);
  DoubleHeap heap(4);
  Put(&heap, HeapSide::kBottom, 1);
  Put(&heap, HeapSide::kTop, 2);
  int bottom = 0;
  for (int i = 0; i < 200; ++i) {
    if (engine.ChooseInsertSide(0, nullptr, heap) == HeapSide::kBottom) {
      ++bottom;
    }
  }
  EXPECT_GT(bottom, 60);
  EXPECT_LT(bottom, 140);
}

}  // namespace
}  // namespace twrs
