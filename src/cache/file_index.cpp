#include "l2sim/cache/file_index.hpp"

#include <utility>

#include "l2sim/common/error.hpp"

namespace l2s::cache {

namespace {
constexpr unsigned kFirstBits = 4;  // 16 cells
}  // namespace

FileIndex::FileIndex()
    : cells_(std::size_t{1} << kFirstBits),
      mask_((std::size_t{1} << kFirstBits) - 1),
      shift_(32 - kFirstBits) {}

void FileIndex::insert(FileId id, std::uint32_t slot) {
  L2S_REQUIRE(slot != kAbsent);
  if (2 * (size_ + 1) > cells_.size()) grow();
  std::size_t i = home(id);
  while (cells_[i].slot != kAbsent) {
    L2S_REQUIRE(cells_[i].id != id);
    i = (i + 1) & mask_;
  }
  cells_[i] = Cell{id, slot};
  ++size_;
}

std::uint32_t FileIndex::erase(FileId id) {
  std::size_t i = home(id);
  while (cells_[i].slot != kAbsent && cells_[i].id != id) i = (i + 1) & mask_;
  const std::uint32_t slot = cells_[i].slot;
  if (slot == kAbsent) return kAbsent;
  // Backward shift: walk the rest of the probe run and pull back every file
  // whose home lies at or before the hole, so no lookup ever crosses an
  // empty cell before reaching its file.
  for (std::size_t j = (i + 1) & mask_; cells_[j].slot != kAbsent; j = (j + 1) & mask_) {
    const std::size_t from_home = (j - home(cells_[j].id)) & mask_;
    if (from_home >= ((j - i) & mask_)) {
      cells_[i] = cells_[j];
      i = j;
    }
  }
  cells_[i].slot = kAbsent;
  --size_;
  return slot;
}

void FileIndex::clear() {
  for (Cell& c : cells_) c.slot = kAbsent;
  size_ = 0;
}

void FileIndex::grow() {
  std::vector<Cell> old(cells_.size() * 2);
  std::swap(old, cells_);
  mask_ = cells_.size() - 1;
  --shift_;
  for (const Cell& c : old) {
    if (c.slot == kAbsent) continue;
    std::size_t i = home(c.id);
    while (cells_[i].slot != kAbsent) i = (i + 1) & mask_;
    cells_[i] = c;
  }
}

}  // namespace l2s::cache
