// The Transport concept: what a collective body needs from its executor.
//
// Every collective schedule is one coroutine body templated on a Transport
// (see schedules.hpp).  The only thing the executors disagree on is how a
// receive completes, so that is the only thing the concept leaves open:
// `recv` and `recv_into` return awaitables.  Two types model it:
//
//   * CommTransport (below), a thin adapter over simmpi::Comm whose
//     awaitables are always ready: the rank thread blocks inside the await
//     and the body runs to completion via run_to_completion;
//   * sched::Port, the engine's per-rank handle, whose awaitables suspend
//     until the discrete-event loop delivers the matching frame.
//
// Everything else is synchronous: eager sends, the fault-plan refetch (only
// ever called when FaultPlan::enabled(); both executors serve it from the
// in-flight window of the one link layer, simmpi/link.hpp), clock charges,
// zero-length integrity markers and the integrity counters.
#pragma once

#include <concepts>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hzccl/simmpi/runtime.hpp"
#include "hzccl/stats/metrics.hpp"
#include "hzccl/util/pool.hpp"

namespace hzccl::coll {

/// An awaitable whose await_resume yields R.
template <typename A, typename R>
concept AwaitableOf = requires(A a) {
  { a.await_ready() } -> std::convertible_to<bool>;
  { a.await_resume() } -> std::same_as<R>;
};

/// The executor surface a collective body is written against.  Ranks are
/// virtual ranks of the current group, as in simmpi::Comm.
template <typename T>
concept Transport = std::copy_constructible<T> &&
    requires(T t, const T ct, int peer, int tag, std::span<const uint8_t> bytes,
             std::span<const float> floats, std::span<uint8_t> out, simmpi::CostBucket bucket,
             double seconds, trace::EventKind kind, uint64_t n) {
  { ct.rank() } -> std::same_as<int>;
  { ct.size() } -> std::same_as<int>;
  { ct.group() } -> std::same_as<const std::vector<int>&>;
  { ct.net() } -> std::same_as<const simmpi::NetModel&>;
  { ct.faults() } -> std::same_as<const simmpi::FaultPlan&>;
  { ct.pool() } -> std::same_as<BufferPool&>;
  t.send(peer, tag, bytes);
  t.send_floats(peer, tag, floats);
  { t.recv(peer, tag) } -> AwaitableOf<std::vector<uint8_t>>;
  { t.recv_into(peer, tag, out) } -> AwaitableOf<void>;
  {
    t.refetch(peer, tag, simmpi::Comm::Refetch::kRetransmit, size_t{0})
  } -> std::same_as<std::vector<uint8_t>>;
  t.charge(bucket, seconds, kind, n, n);
  t.mark(kind);
  { t.integrity() } -> std::same_as<IntegrityStats&>;
};

/// simmpi::Comm as a Transport.  A copyable handle (bodies take their
/// transport by value); the Comm must outlive every body it drives.
class CommTransport {
 public:
  explicit CommTransport(simmpi::Comm& comm) : comm_(&comm) {}

  /// Blocking receive dressed as an awaitable that never suspends.
  struct RecvAwaitable {
    simmpi::Comm* comm;
    int src;
    int tag;
    bool await_ready() const noexcept { return true; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    std::vector<uint8_t> await_resume() const { return comm->recv(src, tag); }
  };
  /// Blocking one-copy receive (Comm::recv_into) into a caller buffer.
  struct RecvIntoAwaitable {
    simmpi::Comm* comm;
    int src;
    int tag;
    std::span<uint8_t> out;
    bool await_ready() const noexcept { return true; }
    void await_suspend(std::coroutine_handle<>) const noexcept {}
    void await_resume() const { comm->recv_into(src, tag, out); }
  };

  int rank() const { return comm_->rank(); }
  int size() const { return comm_->size(); }
  const std::vector<int>& group() const { return comm_->group(); }
  const simmpi::NetModel& net() const { return comm_->net(); }
  const simmpi::FaultPlan& faults() const { return comm_->faults(); }
  /// One pool per rank thread: the threaded runtime runs each rank on its
  /// own thread, so the thread-local pool is a per-rank pool.
  BufferPool& pool() const { return BufferPool::local(); }

  void send(int dst, int tag, std::span<const uint8_t> payload) { comm_->send(dst, tag, payload); }
  void send_floats(int dst, int tag, std::span<const float> values) {
    comm_->send_floats(dst, tag, values);
  }
  RecvAwaitable recv(int src, int tag) { return {comm_, src, tag}; }
  RecvIntoAwaitable recv_into(int src, int tag, std::span<uint8_t> out) {
    return {comm_, src, tag, out};
  }
  std::vector<uint8_t> refetch(int src, int tag, simmpi::Comm::Refetch mode,
                               size_t raw_bytes_hint = 0) {
    return comm_->refetch(src, tag, mode, raw_bytes_hint);
  }
  void charge(simmpi::CostBucket bucket, double seconds, trace::EventKind kind,
              uint64_t bytes = 0, uint64_t bytes_out = 0) {
    comm_->charge(bucket, seconds, kind, bytes, bytes_out);
  }
  /// Zero-duration integrity marker (kSdcDetected / kRecompute) at virtual
  /// now; no clock advance, no bytes, no peer.
  void mark(trace::EventKind kind) { comm_->endpoint().mark(kind, trace::kNoJob); }
  IntegrityStats& integrity() { return comm_->integrity(); }

 private:
  simmpi::Comm* comm_;
};

static_assert(Transport<CommTransport>);

}  // namespace hzccl::coll
