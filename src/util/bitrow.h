#ifndef COMPTX_UTIL_BITROW_H_
#define COMPTX_UTIL_BITROW_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace comptx {

/// A windowed bitset over uint32_t ids: the words cover ids in
/// [base_word * 64, (base_word + words.size()) * 64).  The window grows on
/// demand in either direction, so memory is proportional to the id *span*
/// actually used, not to the size of the global id space — important
/// because relation rows are keyed by global node ids while their targets
/// cluster (children of one transaction, operations of one schedule).
///
/// This is the same words-per-row bit layout as graph::TransitiveClosure,
/// with the row rebased so sparse high ids stay cheap.
class BitRow {
 public:
  bool Test(uint32_t id) const {
    const uint32_t w = id >> 6;
    if (w < base_word_ || w - base_word_ >= words_.size()) return false;
    return (words_[w - base_word_] >> (id & 63)) & 1;
  }

  /// Sets the bit for `id`; returns true iff it was previously clear.
  bool TestAndSet(uint32_t id) {
    const uint32_t w = id >> 6;
    if (words_.empty()) {
      base_word_ = w;
      words_.push_back(0);
    } else if (w < base_word_) {
      words_.insert(words_.begin(), base_word_ - w, 0);
      base_word_ = w;
    } else if (w - base_word_ >= words_.size()) {
      words_.resize(w - base_word_ + 1, 0);
    }
    uint64_t& word = words_[w - base_word_];
    const uint64_t mask = uint64_t{1} << (id & 63);
    if (word & mask) return false;
    word |= mask;
    return true;
  }

  /// Invokes `f(uint32_t id)` for every set bit in ascending id order.
  template <typename F>
  void ForEachSet(F f) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t word = words_[w];
      const uint32_t word_base = (base_word_ + static_cast<uint32_t>(w)) << 6;
      while (word != 0) {
        const int bit = std::countr_zero(word);
        f(word_base + static_cast<uint32_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Clears the bit for `id`.  Zero words at either end of the window are
  /// trimmed, so a row's window always starts and ends on a set bit and
  /// Empty() stays exact under removal.
  void Reset(uint32_t id) {
    const uint32_t w = id >> 6;
    if (w < base_word_ || w - base_word_ >= words_.size()) return;
    words_[w - base_word_] &= ~(uint64_t{1} << (id & 63));
    while (!words_.empty() && words_.back() == 0) words_.pop_back();
    size_t lead = 0;
    while (lead < words_.size() && words_[lead] == 0) ++lead;
    if (lead > 0) {
      words_.erase(words_.begin(), words_.begin() + lead);
      base_word_ += static_cast<uint32_t>(lead);
    }
  }

  /// Clears every bit, keeping the word buffer's capacity for reuse.
  void Clear() { words_.clear(); }

  /// this |= other.
  void OrWith(const BitRow& other) {
    if (other.words_.empty()) return;
    const uint32_t lo = other.base_word_;
    const uint32_t hi = lo + static_cast<uint32_t>(other.words_.size());
    if (words_.empty()) {
      words_ = other.words_;
      base_word_ = lo;
      return;
    }
    if (lo < base_word_) {
      words_.insert(words_.begin(), base_word_ - lo, 0);
      base_word_ = lo;
    }
    if (hi - base_word_ > words_.size()) words_.resize(hi - base_word_, 0);
    for (size_t w = 0; w < other.words_.size(); ++w) {
      words_[lo - base_word_ + w] |= other.words_[w];
    }
  }

  /// Invokes `f(uint32_t id)` for every id set here but not in `mask`, in
  /// ascending order.
  template <typename F>
  void ForEachSetAndNot(const BitRow& mask, F f) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      const uint32_t abs = base_word_ + static_cast<uint32_t>(w);
      uint64_t word = words_[w] & ~mask.WordAt(abs);
      while (word != 0) {
        const int bit = std::countr_zero(word);
        f((abs << 6) + static_cast<uint32_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// True iff some id is set here but not in `mask`.
  bool AnyAndNot(const BitRow& mask) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] & ~mask.WordAt(base_word_ + static_cast<uint32_t>(w))) {
        return true;
      }
    }
    return false;
  }

  size_t Count() const {
    size_t n = 0;
    for (uint64_t word : words_) n += static_cast<size_t>(std::popcount(word));
    return n;
  }

  bool Empty() const { return words_.empty(); }

 private:
  /// The word covering ids [abs_word * 64, abs_word * 64 + 64); 0 outside
  /// the window.
  uint64_t WordAt(uint32_t abs_word) const {
    if (abs_word < base_word_ || abs_word - base_word_ >= words_.size()) {
      return 0;
    }
    return words_[abs_word - base_word_];
  }

  std::vector<uint64_t> words_;
  uint32_t base_word_ = 0;
};

}  // namespace comptx

#endif  // COMPTX_UTIL_BITROW_H_
