// Lazy coroutine task: the one shape every collective body has.
//
// Each collective schedule (ring, recursive doubling, Rabenseifner, two
// level; raw, C-Coll DOC and hZCCL stacks) is written once, as a coroutine
// over a Transport (see collectives/transport.hpp).  Every receive is a
// co_await.  Two executors run the same bodies:
//
//   * the threaded simmpi::Runtime, whose receives complete at once (the
//     rank thread blocks inside the await), drives a body to completion on
//     the rank thread with run_to_completion below;
//   * the sched::Engine suspends a body at each receive, so one OS thread
//     interleaves thousands of per-rank state machines at frame granularity
//     while each rank's virtual clock advances independently.
//
// Task<T> is the minimal lazy task that makes both safe:
//
//   * lazy start (initial_suspend = suspend_always): the executor decides
//     when a rank's collective begins, so grant time — not construction
//     time — is the first clock charge;
//   * symmetric transfer on completion: a child task resumes its awaiting
//     parent without growing the native stack, so deep helper nesting
//     (two-level -> ring reduce-scatter -> per-step receives) is stack-safe;
//   * exception transport: a throw inside a body (decode failure, injected
//     crash, a peer-failure agreement) is captured and rethrown at the
//     await/take site, which is how both executors see per-rank failures;
//   * owning handle with destroy-on-drop: destroying a Task destroys the
//     whole suspended frame chain (awaited child frames live inside their
//     parent's frame), which is how a crashed rank's parked collective is
//     torn down mid-flight without resuming it.
//
// Lifetime rule of the bodies: a child task is always awaited by its
// creator within the same full-expression, so children may take references
// to their parent's locals and parameters.  Only a root task (started by an
// executor) must own everything it refers to.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

#include "hzccl/util/error.hpp"

namespace hzccl {

namespace detail {

/// Resumes the continuation (the awaiting parent, or a noop for a root task
/// driven by an executor) when a task's body finishes.
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    return h.promise().continuation;
  }
  void await_resume() const noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation = std::noop_coroutine();
  std::exception_ptr error;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  T value{};
  void return_value(T v) { value = std::move(v); }
  T result() {
    if (error) std::rethrow_exception(error);
    return std::move(value);
  }
};

template <>
struct Promise<void> : PromiseBase {
  void return_void() noexcept {}
  void result() {
    if (error) std::rethrow_exception(error);
  }
};

}  // namespace detail

/// A lazily started coroutine computing a T.  Move-only; the handle owns the
/// frame.  Await it (`co_await std::move(task)` or awaiting a temporary) to
/// run it as a child, or resume `handle()` directly to drive it as a root.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::Promise<T> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };

  Task() = default;
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      reset();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { reset(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return h_.done(); }
  std::coroutine_handle<> handle() const { return h_; }

  /// Destroy the frame (and, recursively, any suspended child frames stored
  /// within it).  Safe on a suspended or finished coroutine.
  void reset() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  /// Result of a finished task: rethrows a captured exception or moves the
  /// value out.
  T take() { return h_.promise().result(); }

  auto operator co_await() noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        h.promise().continuation = parent;
        return h;  // symmetric transfer: start the child now
      }
      T await_resume() { return h.promise().result(); }
    };
    return Awaiter{h_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}

  std::coroutine_handle<promise_type> h_;
};

/// The synchronous driver: run `task` on the calling thread until it
/// finishes and return its result.  Only valid for bodies whose every await
/// completes at once (a blocking transport); a body that suspends on a
/// pending receive here has no one to resume it, which is a wiring bug.
template <typename T>
T run_to_completion(Task<T> task) {
  task.handle().resume();
  if (!task.done()) throw Error("run_to_completion: a task suspended on a synchronous transport");
  return task.take();
}

}  // namespace hzccl
