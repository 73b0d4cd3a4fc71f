#ifndef TWRS_MERGE_LOSER_TREE_H_
#define TWRS_MERGE_LOSER_TREE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "core/record.h"

namespace twrs {

/// Tournament (loser) tree over k input ways, the k-way merge selector of
/// §2.1.2 (log k comparisons per record instead of the naive k-1). The live
/// ways sit in slots in way order, and a match compares (key, slot) pairs,
/// so ties go to the lowest way and the merge order is a strict total
/// order. Internal nodes hold the losing (key, slot) of their match; the
/// overall winner is the live way with the smallest current key. A retired
/// way's slot is erased and the tree rebuilt over the remaining ones.
class LoserTree {
 public:
  /// Creates a tree over `k` ways; all ways start exhausted.
  explicit LoserTree(size_t k);

  /// Sets the initial key of way `w`. Call for each live way, then Build().
  void SetInitial(size_t w, Key key);

  /// Runs the initial tournament.
  void Build();

  /// Way holding the smallest key. Requires !Exhausted().
  size_t WinnerIndex() const {
    assert(!Exhausted());
    return ways_[winner_];
  }

  /// Key of the winning way.
  Key WinnerKey() const {
    assert(!Exhausted());
    return keys_[winner_];
  }

  /// Replaces the winner's key with its next key and replays its path.
  void ReplaceWinner(Key key);

  /// Drops the winning way and replays the tournament over the others.
  void RetireWinner();

  /// True when every way is exhausted.
  bool Exhausted() const { return keys_.empty(); }

  size_t ways() const { return k_; }

 private:
  struct Entry {
    Key key;
    size_t slot;
  };

  // True when (a_key, a_slot) sorts before (b_key, b_slot). Bitwise ops
  // keep the match free of branches.
  static bool Before(Key a_key, size_t a_slot, Key b_key, size_t b_slot) {
    return (a_key < b_key) | ((a_key == b_key) & (a_slot < b_slot));
  }

  size_t k_;
  std::vector<Key> keys_;        // slot -> current key
  std::vector<size_t> ways_;     // slot -> way, increasing
  std::vector<Entry> nodes_;     // internal nodes [1, slots): match losers
  size_t winner_ = 0;            // slot of the overall winner
};

inline LoserTree::LoserTree(size_t k) : k_(k), nodes_(k) {}

inline void LoserTree::SetInitial(size_t w, Key key) {
  assert(w < k_);
  const auto pos = std::lower_bound(ways_.begin(), ways_.end(), w);
  assert(pos == ways_.end() || *pos != w);
  keys_.insert(keys_.begin() + (pos - ways_.begin()), key);
  ways_.insert(pos, w);
}

inline void LoserTree::Build() {
  // Slot s is leaf n + s; node i plays the winners of 2i and 2i+1.
  const size_t n = keys_.size();
  std::vector<Entry> winners(2 * n);
  for (size_t s = 0; s < n; ++s) winners[n + s] = {keys_[s], s};
  for (size_t node = n; node-- > 1;) {
    const Entry& a = winners[2 * node];
    const Entry& b = winners[2 * node + 1];
    const bool a_wins = Before(a.key, a.slot, b.key, b.slot);
    nodes_[node] = a_wins ? b : a;
    winners[node] = a_wins ? a : b;
  }
  winner_ = n > 1 ? winners[1].slot : 0;
}

inline void LoserTree::ReplaceWinner(Key key) {
  assert(!Exhausted());
  keys_[winner_] = key;
  size_t slot = winner_;
  for (size_t node = (keys_.size() + slot) / 2; node >= 1; node /= 2) {
    Entry& loser = nodes_[node];
    const Key other_key = loser.key;
    const size_t other_slot = loser.slot;
    // When the stored loser beats the climbing entry the two trade places,
    // through masked XORs that compilers keep branch-free.
    const bool beats = Before(other_key, other_slot, key, slot);
    const Key key_flip = (key ^ other_key) & -static_cast<Key>(beats);
    const size_t slot_flip = (slot ^ other_slot) & (size_t{0} - beats);
    loser.key = other_key ^ key_flip;
    loser.slot = other_slot ^ slot_flip;
    key ^= key_flip;
    slot ^= slot_flip;
  }
  winner_ = slot;
}

inline void LoserTree::RetireWinner() {
  assert(!Exhausted());
  keys_.erase(keys_.begin() + static_cast<ptrdiff_t>(winner_));
  ways_.erase(ways_.begin() + static_cast<ptrdiff_t>(winner_));
  Build();
}

}  // namespace twrs

#endif  // TWRS_MERGE_LOSER_TREE_H_
