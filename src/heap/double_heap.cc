#include "heap/double_heap.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

#include "simd/kernels.h"

namespace twrs {

namespace {

// Each side is a min-queue; the std heap algorithms keep the greatest
// element under their ordering at the root, so they take std::greater.
using MinFirst = std::greater<Key>;

// More sequences than this make a spill merge one more regardless of size,
// bounding the heads Pop() compares.
constexpr size_t kMaxSequences = 16;

// Stores `key` at the root of the min-heap heap[0, n) and sifts it down.
void SiftDownFromRoot(Key* heap, size_t n, Key key) {
  size_t hole = 0;
  for (;;) {
    size_t child = 2 * hole + 1;
    if (child >= n) break;
    if (child + 1 < n && heap[child + 1] < heap[child]) ++child;
    if (!(heap[child] < key)) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = key;
}

// Merges the ascending ranges a[0, na) and b[0, nb) into out. The loop
// picks each output with a compare and two conditional increments instead
// of a data-dependent branch.
void MergeAscending(const Key* a, size_t na, const Key* b, size_t nb,
                    Key* out) {
  const Key* const a_end = a + na;
  const Key* const b_end = b + nb;
  while (a != a_end && b != b_end) {
    const bool take_b = *b < *a;
    *out++ = take_b ? *b : *a;
    a += !take_b;
    b += take_b;
  }
  out = std::copy(a, a_end, out);
  std::copy(b, b_end, out);
}

}  // namespace

const char* HeapSideName(HeapSide side) {
  return side == HeapSide::kBottom ? "Bottom" : "Top";
}

DoubleHeap::DoubleHeap(size_t capacity) : capacity_(capacity) {
  for (Side& s : sides_) s.ins.reserve(std::min(capacity, kInsertionBound));
}

void DoubleHeap::Side::Insert(Key key) {
  if (ins.size() == kInsertionBound) Spill();
  ins.push_back(key);
  std::push_heap(ins.begin(), ins.end(), MinFirst());
  if (current++ == 0 || key < min) min = key;
}

Key DoubleHeap::Side::PopMin() {
  const Key key = min;
  --current;
  if (MinInInsertionHeap()) {
    std::pop_heap(ins.begin(), ins.end(), MinFirst());
    ins.pop_back();
  } else {
    DropSequenceHead();
  }
  FindMin();
  return key;
}

// Drops the best sequence's head without touching `current` or `min`.
void DoubleHeap::Side::DropSequenceHead() {
  Sequence& seq = seqs[best];
  if (++seq.head == seq.keys.size()) seqs.erase(seqs.begin() + best);
  FindBest();
}

// Sorts the full insertion heap into a new sequence and merges it into the
// newest ones while their remainders are at most twice its size.
void DoubleHeap::Side::Spill() {
  simd::SortKeysBlock(ins.data(), ins.size());
  PageVector<Key> run;
  run.swap(ins);
  ins.reserve(kInsertionBound);
  while (!seqs.empty() && (seqs.back().size() <= 2 * run.size() ||
                           seqs.size() >= kMaxSequences)) {
    const Sequence& newest = seqs.back();
    PageVector<Key> merged(newest.size() + run.size());
    MergeAscending(newest.keys.data() + newest.head, newest.size(),
                   run.data(), run.size(), merged.data());
    run.swap(merged);
    seqs.pop_back();
  }
  seqs.push_back(Sequence{std::move(run), 0});
  FindBest();
}

void DoubleHeap::Side::FindBest() {
  best = 0;
  for (size_t i = 1; i < seqs.size(); ++i) {
    if (seqs[i].Front() < seqs[best].Front()) best = i;
  }
}

// Recomputes `min` from the insertion-heap root and the best sequence head.
void DoubleHeap::Side::FindMin() {
  if (seqs.empty()) {
    if (!ins.empty()) min = ins[0];
    return;
  }
  const Key head = seqs[best].Front();
  min = ins.empty() || head < ins[0] ? head : ins[0];
}

bool DoubleHeap::Push(HeapSide side, Key key) {
  if (Full()) return false;
  sides_[Index(side)].Insert(Flip(side, key));
  ++size_;
  return true;
}

bool DoubleHeap::PushNextRun(HeapSide side, Key key) {
  if (Full()) return false;
  sides_[Index(side)].pool.push_back(Flip(side, key));
  ++size_;
  return true;
}

Key DoubleHeap::Pop(HeapSide side) {
  assert(HasCurrent(side));
  --size_;
  return Flip(side, sides_[Index(side)].PopMin());
}

Key DoubleHeap::ReplaceTop(HeapSide side, Key key) {
  assert(HasCurrent(side));
  Side& s = sides_[Index(side)];
  const Key stored = Flip(side, key);
  const Key evicted = s.min;
  if (s.MinInInsertionHeap()) {
    SiftDownFromRoot(s.ins.data(), s.ins.size(), stored);
  } else {
    s.DropSequenceHead();
    --s.current;
    s.Insert(stored);
  }
  s.FindMin();
  return Flip(side, evicted);
}

Key DoubleHeap::PopLastLeaf(HeapSide side) {
  assert(HasCurrent(side));
  Side& s = sides_[Index(side)];
  --s.current;
  --size_;
  Key key;
  if (!s.ins.empty()) {
    key = s.ins.back();
    s.ins.pop_back();
  } else {
    Sequence& newest = s.seqs.back();
    key = newest.keys.back();
    newest.keys.pop_back();
    if (newest.size() == 0) {
      s.seqs.pop_back();
      s.FindBest();
    }
  }
  s.FindMin();
  return Flip(side, key);
}

void DoubleHeap::StartNextRun() {
  for (Side& s : sides_) {
    assert(s.current == 0);
    if (s.pool.empty()) continue;
    simd::SortKeysBlock(s.pool.data(), s.pool.size());
    s.current = s.pool.size();
    s.seqs.push_back(Sequence{std::move(s.pool), 0});  // leaves pool empty
    s.best = 0;
    s.min = s.seqs[0].Front();
  }
}

bool DoubleHeap::IsValid() const {
  if (size_ > capacity_ ||
      size_ != SideSize(HeapSide::kBottom) + SideSize(HeapSide::kTop)) {
    return false;
  }
  for (const Side& s : sides_) {
    if (s.ins.size() > kInsertionBound ||
        !std::is_heap(s.ins.begin(), s.ins.end(), MinFirst())) {
      return false;
    }
    size_t held = s.ins.size();
    for (const Sequence& seq : s.seqs) {
      if (seq.size() == 0 ||
          !std::is_sorted(seq.keys.begin() + seq.head, seq.keys.end()) ||
          seq.Front() < s.seqs[s.best].Front()) {
        return false;
      }
      held += seq.size();
    }
    if (held != s.current || s.seqs.size() > kMaxSequences) return false;
    if (held > 0) {
      Key min = s.ins.empty() ? s.seqs[s.best].Front() : s.ins[0];
      if (!s.seqs.empty()) min = std::min(min, s.seqs[s.best].Front());
      if (min != s.min) return false;
    }
  }
  return true;
}

}  // namespace twrs
