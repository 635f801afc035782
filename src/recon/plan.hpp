// Per-stripe reconstruction read plans.
//
// A plan holds, for one stripe, the element reads required to recover
// every lost data/mirror element ("availability reads" — what Table I
// and Figs. 7/9 count), plus the extra reads needed to recompute a lost
// parity column (which the paper's availability metric excludes: a lost
// parity disk loses no user data).
//
// The number of read accesses of a plan is the maximum per-disk read
// count: under RAID parallel I/O every disk can deliver one element per
// synchronous access (paper Section III). A ReadSet keeps that count per
// disk as reads are added, so the metric is a max over per-disk counts
// and no read list is ever built to find it.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include "layout/architecture.hpp"
#include "util/status.hpp"

namespace sma::recon {

struct ElementRead {
  int logical_disk = 0;
  int row = 0;
  bool operator==(const ElementRead&) const = default;
  auto operator<=>(const ElementRead&) const = default;
};

/// The element reads of one stripe: a row bitmap per logical disk
/// (ceil(rows / 64) words; bit r % 64 of word r / 64 is row r) and a
/// per-disk read count that insert keeps. Iteration yields ElementRead
/// in ascending (logical_disk, row) order. A default-constructed set
/// covers no disk and is empty.
class ReadSet {
 public:
  class const_iterator;

  ReadSet() = default;
  ReadSet(int disks, int rows)
      : rows_(rows),
        words_per_disk_((static_cast<std::size_t>(rows) + 63) / 64),
        words_(static_cast<std::size_t>(disks) * words_per_disk_, 0),
        counts_(static_cast<std::size_t>(disks), 0) {}

  /// Adds (disk, row); true when it was not in the set yet.
  bool insert(int disk, int row) {
    std::uint64_t& word = words_[word_index(disk, row)];
    const std::uint64_t bit = std::uint64_t{1} << (row % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++counts_[static_cast<std::size_t>(disk)];
    ++size_;
    return true;
  }

  bool contains(int disk, int row) const {
    return (words_[word_index(disk, row)] >> (row % 64)) & 1;
  }

  /// Adds every row of `disk` (a RAID column), one word at a time.
  void insert_all_rows(int disk) {
    if (rows_ == 0) return;
    const std::size_t first = word_index(disk, 0);
    const std::size_t last = first + words_per_disk_;
    for (std::size_t w = first; w < last; ++w) words_[w] = ~std::uint64_t{0};
    // Rows past the last one stay clear: a partial last word keeps only
    // its low rows % 64 bits.
    if (const int tail = rows_ % 64; tail != 0)
      words_[last - 1] = (std::uint64_t{1} << tail) - 1;
    int& count = counts_[static_cast<std::size_t>(disk)];
    size_ += static_cast<std::size_t>(rows_ - count);
    count = rows_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int disks() const { return static_cast<int>(counts_.size()); }
  /// Reads of `disk` in the set.
  int count(int disk) const {
    assert(disk >= 0 && disk < disks());
    return counts_[static_cast<std::size_t>(disk)];
  }
  /// The largest per-disk count; 0 for an empty set.
  int max_per_disk() const {
    if (counts_.empty()) return 0;
    return *std::max_element(counts_.begin(), counts_.end());
  }

  const_iterator begin() const;
  const_iterator end() const;

 private:
  std::size_t word_index(int disk, int row) const {
    assert(disk >= 0 && disk < disks() && row >= 0 && row < rows_);
    return static_cast<std::size_t>(disk) * words_per_disk_ +
           static_cast<std::size_t>(row / 64);
  }

  int rows_ = 0;
  std::size_t words_per_disk_ = 0;
  std::vector<std::uint64_t> words_;  // disk d's rows at [d w, (d + 1) w)
  std::vector<int> counts_;
  std::size_t size_ = 0;
};

/// Forward iterator over a ReadSet's reads; dereferencing yields the
/// read by value.
class ReadSet::const_iterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = ElementRead;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = ElementRead;

  const_iterator() = default;

  ElementRead operator*() const {
    const std::size_t per_disk = set_->words_per_disk_;
    const auto bit = static_cast<std::size_t>(std::countr_zero(bits_));
    return {static_cast<int>(word_ / per_disk),
            static_cast<int>(word_ % per_disk * 64 + bit)};
  }
  const_iterator& operator++() {
    bits_ &= bits_ - 1;
    if (bits_ == 0) {
      ++word_;
      settle();
    }
    return *this;
  }
  const_iterator operator++(int) {
    const const_iterator before = *this;
    ++*this;
    return before;
  }
  bool operator==(const const_iterator&) const = default;

 private:
  friend class ReadSet;
  const_iterator(const ReadSet* set, std::size_t word)
      : set_(set), word_(word) {
    settle();
  }
  /// Moves to the first word at or after word_ with a row in it; the
  /// end is (words_.size(), 0).
  void settle() {
    const auto& words = set_->words_;
    for (; word_ < words.size(); ++word_)
      if ((bits_ = words[word_]) != 0) return;
    bits_ = 0;
  }

  const ReadSet* set_ = nullptr;
  std::size_t word_ = 0;    // index into set_->words_
  std::uint64_t bits_ = 0;  // the rows of words_[word_] not yet visited
};

inline ReadSet::const_iterator ReadSet::begin() const {
  return const_iterator(this, 0);
}

inline ReadSet::const_iterator ReadSet::end() const {
  return const_iterator(this, words_.size());
}

/// The copy one lost cell is recovered from.
struct CellSource {
  int lost_disk = 0;
  int lost_row = 0;
  ElementRead from;
};

/// A plan's set with no reads may be default-constructed (empty and
/// covering no disk), so check size() before asking count(disk).
struct StripePlan {
  /// Reads needed to recover lost data/mirror elements.
  ReadSet availability_reads;
  /// With R >= 2 replica arrays, the copy each lost cell is read from
  /// (failed-disk order, then row): the planner's least-loaded choice
  /// among its live copies. Empty at R = 1, where a lost cell has one
  /// live copy or the parity row.
  std::vector<CellSource> sources;
  /// Additional reads (none of them in availability_reads) needed to
  /// recompute a lost parity column. Empty when no parity disk failed.
  ReadSet parity_rebuild_reads;

  /// Paper metric: the largest per-disk count of availability_reads.
  int read_accesses(const layout::Architecture& arch) const;
};

/// Build the reconstruction plan for a stripe of `arch` with the given
/// failed logical disks. Fails with kUnrecoverable when the failure set
/// exceeds the architecture's fault tolerance.
Result<StripePlan> plan_reconstruction(const layout::Architecture& arch,
                                       const std::vector<int>& failed);

}  // namespace sma::recon
