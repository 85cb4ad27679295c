// Zero-allocation substrate for the compress -> communicate -> reduce hot
// path: a capacity-class buffer recycler and a thread-local bump arena.
//
// The paper's headline claim is that hZ-dynamic turns DOC into a single-pass
// operation; re-allocating every stream, offset table and partial buffer per
// round would put malloc on that pass.  The two facilities here remove it in
// steady state:
//
//  * BufferPool  — recycles the byte vectors behind CompressedBuffer,
//    bucketed by power-of-two capacity class.  An op acquires its output
//    storage from the pool and the caller releases consumed operands back;
//    after a few warm-up rounds every acquire is served from a free list and
//    the fresh-allocation counter stops moving.  Pools are intentionally
//    NOT thread-safe: use one per thread (BufferPool::local()), which in
//    simmpi means one per rank — the "per-Comm pool" the ring collectives
//    share across rounds and across calls.
//
//  * ScratchArena — a rewindable bump allocator for per-op scratch
//    (assembler offset tables and worst-case chunk regions, per-chunk
//    pipeline stats).  ArenaScope marks the cursor on entry and rewinds on
//    exit; blocks are never freed, so nested ops (hz_add inside a collective
//    round) reuse the same few blocks forever.  Scopes must nest LIFO, which
//    RAII enforces naturally.  Blocks are minted uninitialized: alloc()
//    zeroes what it hands out, alloc_for_overwrite() does not, so a region
//    the caller fully writes before reading costs no zero-fill (and no page
//    faults on the pages it never touches).
//
// Observability: every fresh heap block either facility has to mint is also
// counted into a process-wide atomic, pool_heap_allocations().  The perf
// harness (bench_kernels --json) differences that counter around a steady-
// state loop to report allocations-per-op, and CI fails the perf-smoke job
// if the hz_add path ever regresses above its budget (see docs/ANALYSIS.md,
// "Performance architecture").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace hzccl {

/// Byte released buffers are filled with when poison mode is on.  A stale
/// FzView (or any span) into a released buffer then reads 0xA5 garbage that
/// no valid stream contains past its header, so use-after-release surfaces
/// as a parse/decode failure instead of silently reading recycled data.
inline constexpr uint8_t kPoolPoisonByte = 0xA5;

/// Process-wide count of fresh heap blocks minted by all BufferPools and
/// ScratchArenas (any thread).  Monotone; difference it around a loop to get
/// allocations-per-op.  Recycled acquires do not move it — that is the point.
uint64_t pool_heap_allocations();

/// Per-pool counters (single pool, so unsynchronized).
struct PoolStats {
  uint64_t acquires = 0;           ///< acquire() calls
  uint64_t fresh_allocations = 0;  ///< acquires that had to mint a new vector
  uint64_t reuses = 0;             ///< acquires served from a free list
  uint64_t releases = 0;           ///< release() calls
  uint64_t dropped = 0;            ///< releases discarded (class list full)
  uint64_t resident_bytes = 0;     ///< capacity currently parked in free lists
};

/// Recycling pool for byte buffers, keyed by power-of-two capacity class.
/// acquire(n) returns an empty vector whose capacity is at least n; release
/// parks a spent vector for the next acquire of its class.  Not thread-safe:
/// one pool per thread (see local()).
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Empty vector with capacity >= min_bytes (recycled when possible).
  std::vector<uint8_t> acquire(size_t min_bytes);

  /// Park a spent buffer for reuse.  The buffer's logical contents are dead
  /// after this call (and scribbled with kPoolPoisonByte in poison mode);
  /// any span or view still pointing into it is invalid.
  void release(std::vector<uint8_t>&& buf);

  /// Poison released buffers to surface use-after-release (test mode).
  void set_poison(bool on) { poison_ = on; }
  bool poison() const { return poison_; }

  const PoolStats& stats() const { return stats_; }

  /// Drop every parked buffer (frees the memory, keeps the stats).
  void trim();

  /// This thread's pool.  simmpi runs one thread per rank, so this is the
  /// per-rank ("per-Comm") pool the collectives recycle through.
  static BufferPool& local();

 private:
  static constexpr int kMinClassLog2 = 6;  ///< smallest class: 64 B
  static constexpr size_t kNumClasses = 42;
  static constexpr size_t kMaxPerClass = 8;  ///< parked buffers per class

  std::array<std::vector<std::vector<uint8_t>>, kNumClasses> free_;
  PoolStats stats_;
  bool poison_ = false;
};

/// Rewindable bump allocator for trivially-copyable per-op scratch.  Grows a
/// chain of uninitialized blocks on demand and never frees them; rewinding
/// (ArenaScope) just moves the cursor back, so steady-state allocation cost
/// is zero.  Not thread-safe: one arena per thread (see local()).
class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  struct Marker {
    size_t block = 0;
    size_t offset = 0;
  };

  Marker mark() const { return {cur_, off_}; }
  void rewind(const Marker& m) {
    cur_ = m.block;
    off_ = m.offset;
  }

  /// Zero-initialized span of n values of T, valid until the enclosing
  /// scope rewinds past it.  T must be trivially copyable (the arena never
  /// runs destructors).
  template <class T>
  std::span<T> alloc(size_t n) {
    const std::span<T> s = alloc_for_overwrite<T>(n);
    if (!s.empty()) std::memset(static_cast<void*>(s.data()), 0, s.size_bytes());
    return s;
  }

  /// Like alloc, but the values are left as they are: whatever an earlier
  /// scope wrote there, or nothing.  For regions the caller writes before
  /// it reads them.
  template <class T>
  std::span<T> alloc_for_overwrite(size_t n) {
    static_assert(std::is_trivially_copyable_v<T>, "arena scratch must be trivially copyable");
    if (n == 0) return {};
    return {static_cast<T*>(raw(n * sizeof(T), alignof(T))), n};
  }

  /// Blocks minted so far (steady state: stops moving).
  uint64_t block_allocations() const { return block_allocations_; }
  /// Total capacity across all blocks.
  size_t capacity_bytes() const;

  static ScratchArena& local();

 private:
  void* raw(size_t bytes, size_t align);

  struct Block {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;
  };
  std::vector<Block> blocks_;
  size_t cur_ = 0;  ///< block index the cursor is in
  size_t off_ = 0;  ///< byte offset within blocks_[cur_]
  uint64_t block_allocations_ = 0;
};

/// RAII arena region: allocations made through the scope (or directly from
/// the arena while it is the innermost scope) are reclaimed on destruction.
class ArenaScope {
 public:
  explicit ArenaScope(ScratchArena& arena = ScratchArena::local())
      : arena_(arena), marker_(arena.mark()) {}
  ~ArenaScope() { arena_.rewind(marker_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  template <class T>
  std::span<T> alloc(size_t n) {
    return arena_.alloc<T>(n);
  }

  template <class T>
  std::span<T> alloc_for_overwrite(size_t n) {
    return arena_.alloc_for_overwrite<T>(n);
  }

 private:
  ScratchArena& arena_;
  ScratchArena::Marker marker_;
};

}  // namespace hzccl
