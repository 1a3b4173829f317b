// FileIndex: FileId -> uint32_t slot, the residency index of the file
// caches. Open addressing with linear probing over a power-of-two table of
// 8-byte cells, a multiplicative (Fibonacci) hash whose top bits pick the
// home cell, backward-shift deletion (no tombstones, so probe runs stay
// short however many files come and go) and a load factor of at most ½.
// The table grows with the number of resident files, never with the
// catalogue: a node that holds 3,000 files indexes them in 64 KiB whatever
// the trace's file count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "l2sim/cache/file_cache.hpp"

namespace l2s::cache {

class FileIndex {
 public:
  /// find()/erase() result for a file that is not indexed.
  static constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();

  FileIndex();

  /// The slot stored for `id`, or kAbsent.
  [[nodiscard]] std::uint32_t find(FileId id) const {
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      const Cell& c = cells_[i];
      if (c.slot == kAbsent || c.id == id) return c.slot;
    }
  }

  /// Store `slot` (not kAbsent) for `id`, which must not be indexed.
  void insert(FileId id, std::uint32_t slot);

  /// Remove `id`; returns the slot it held, or kAbsent.
  std::uint32_t erase(FileId id);

  /// Remove every file (the table keeps its size).
  void clear();

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Cells in the table (a power of two, at least twice size()).
  [[nodiscard]] std::size_t cells() const { return cells_.size(); }

  /// The multiplicative hash; a table of 2^b cells homes `id` at its top
  /// b bits.
  [[nodiscard]] static std::uint32_t hash(FileId id) {
    return static_cast<std::uint32_t>(id * 0x9E3779B9U);
  }

 private:
  struct Cell {
    FileId id = 0;
    std::uint32_t slot = kAbsent;  ///< kAbsent marks an empty cell
  };

  [[nodiscard]] std::size_t home(FileId id) const { return hash(id) >> shift_; }
  /// Double the table and re-home every file.
  void grow();

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
  std::size_t size_ = 0;
};

}  // namespace l2s::cache
