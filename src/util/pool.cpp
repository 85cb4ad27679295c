#include "hzccl/util/pool.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

namespace hzccl {
namespace {

std::atomic<uint64_t> g_heap_allocations{0};

/// Smallest class whose buffers are guaranteed to hold `bytes`.
size_t class_at_least(size_t bytes) {
  const size_t width = std::bit_width(std::max<size_t>(bytes, 1) - 1);  // ceil log2
  return width <= 6 ? 0 : width - 6;
}

/// Largest class a buffer of `capacity` can serve (floor log2).
size_t class_at_most(size_t capacity) {
  const size_t width = static_cast<size_t>(std::bit_width(capacity)) - 1;  // floor log2
  return width <= 6 ? 0 : width - 6;
}

size_t class_bytes(size_t index) { return size_t{1} << (index + 6); }

}  // namespace

uint64_t pool_heap_allocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

std::vector<uint8_t> BufferPool::acquire(size_t min_bytes) {
  ++stats_.acquires;
  const size_t idx = std::min(class_at_least(min_bytes), kNumClasses - 1);
  auto& list = free_[idx];
  if (!list.empty()) {
    std::vector<uint8_t> buf = std::move(list.back());
    list.pop_back();
    ++stats_.reuses;
    stats_.resident_bytes -= buf.capacity();
    return buf;
  }
  ++stats_.fresh_allocations;
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  std::vector<uint8_t> buf;
  buf.reserve(std::max(class_bytes(idx), min_bytes));
  return buf;
}

void BufferPool::release(std::vector<uint8_t>&& buf) {
  ++stats_.releases;
  if (buf.capacity() < (size_t{1} << kMinClassLog2)) return;  // not worth parking
  if (poison_) std::fill(buf.begin(), buf.end(), kPoolPoisonByte);
  const size_t idx = std::min(class_at_most(buf.capacity()), kNumClasses - 1);
  auto& list = free_[idx];
  if (list.size() >= kMaxPerClass) {
    ++stats_.dropped;
    return;  // buffer freed here; the class is already well stocked
  }
  stats_.resident_bytes += buf.capacity();
  buf.clear();
  list.push_back(std::move(buf));
}

void BufferPool::trim() {
  for (auto& list : free_) list.clear();
  stats_.resident_bytes = 0;
}

BufferPool& BufferPool::local() {
  thread_local BufferPool pool;
  return pool;
}

size_t ScratchArena::capacity_bytes() const {
  size_t total = 0;
  for (const auto& b : blocks_) total += b.size;
  return total;
}

void* ScratchArena::raw(size_t bytes, size_t align) {
  constexpr size_t kMinBlock = 64 * 1024;
  for (;;) {
    if (cur_ < blocks_.size()) {
      Block& block = blocks_[cur_];
      const size_t aligned = (off_ + align - 1) / align * align;
      if (aligned + bytes <= block.size && aligned + bytes >= aligned) {
        off_ = aligned + bytes;
        return block.data.get() + aligned;
      }
      // Current block exhausted for this request: move on (its tail is
      // wasted until the next rewind, which is fine for scratch).
      ++cur_;
      off_ = 0;
      continue;
    }
    const size_t last = blocks_.empty() ? 0 : blocks_.back().size;
    const size_t want = std::max({kMinBlock, last * 2, bytes + align});
    // Uninitialized: alloc() zeroes what it hands out, and
    // alloc_for_overwrite() regions are written before they are read.
    blocks_.push_back(Block{std::make_unique_for_overwrite<uint8_t[]>(want), want});
    ++block_allocations_;
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

ScratchArena& ScratchArena::local() {
  thread_local ScratchArena arena;
  return arena;
}

}  // namespace hzccl
