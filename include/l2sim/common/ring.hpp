// Overwrite-oldest ring buffer: keeps the newest `capacity` items recorded
// (capacity 0 keeps them all) and counts the ones it overwrote. Telemetry's
// span ring and the flight recorder's decision ring are this class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace l2s {

template <typename T>
class Ring {
 public:
  /// Reserves a bounded ring up front, so it never allocates once full.
  explicit Ring(std::size_t capacity) : capacity_(capacity) { items_.reserve(capacity); }

  void record(const T& item) {
    ++recorded_;
    if (capacity_ == 0 || items_.size() < capacity_) {
      items_.push_back(item);
      return;
    }
    // Branch instead of modulo: this is the steady-state path of a full
    // ring, and a 64-bit division per item is most of the cost.
    items_[head_] = item;
    if (++head_ == capacity_) head_ = 0;
  }

  /// The retained items, oldest first.
  [[nodiscard]] std::vector<T> chronological() const {
    const auto oldest = items_.begin() + static_cast<std::ptrdiff_t>(head_);
    std::vector<T> out;
    out.reserve(items_.size());
    out.insert(out.end(), oldest, items_.end());
    out.insert(out.end(), items_.begin(), oldest);
    return out;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  /// Items recorded since construction or the last reset().
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Items lost to wraparound (== recorded() - size()).
  [[nodiscard]] std::uint64_t overwritten() const { return recorded_ - items_.size(); }

  /// Drop every item; the capacity stays.
  void reset() {
    items_.clear();
    head_ = 0;
    recorded_ = 0;
  }

 private:
  std::vector<T> items_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< oldest slot once the ring is full (0 before)
  std::uint64_t recorded_ = 0;
};

}  // namespace l2s
