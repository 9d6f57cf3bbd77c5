/// \file intake.hpp
/// \brief StreamPipeline's intake: the bounded FIFO that producers submit
///        into and workers drain from.
///
/// One `BoundedQueue` behind one mutex.  Every pipeline push already runs
/// under StreamPipeline's submit mutex and a wedge costs milliseconds of
/// transform time, so the queue lock is not a contention point at the worker
/// counts this library runs.  The contract the pipeline relies on:
///
///  * `try_push` — non-blocking enqueue; false means backpressure (or closed).
///  * `wait_for_space` — park until space might exist or the queue closes;
///    space is not reserved, so callers retry try_push in a loop.
///  * `pop_batch` — blocking batch dequeue with the terminal contract every
///    worker loop depends on: it returns 0 *only* when the queue is closed
///    AND fully drained, never as a spurious wakeup.  Items come out in
///    push order.
///  * `close` — idempotent; unblocks every parked producer and worker.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

namespace nc::codec {

/// Outcome of a timed space wait (`BoundedQueue::wait_for_space_for`) — the
/// spill-deadline path needs to distinguish "space may exist, retry" from
/// "closed, give up" from "deadline hit, divert to the spill tier".
enum class SpaceWait {
  kReady,    ///< space may exist (not reserved: retry try_push)
  kClosed,   ///< intake closed while waiting
  kTimeout,  ///< still full when the timeout expired
};

namespace detail {
/// Depth-adaptive drain sizing: a fair share of the observed backlog per
/// worker, clamped to [1, max_items].  share == 0 disables adaptivity
/// (always max_items).
inline std::size_t adaptive_drain_cap(std::size_t depth, std::size_t share,
                                      std::size_t max_items) {
  if (share == 0) return max_items;
  const std::size_t fair = (depth + share - 1) / share;
  return std::clamp<std::size_t>(fair, 1, max_items);
}
}  // namespace detail

/// Thread-safe bounded FIFO (StreamPipeline's intake; also used directly by
/// tests as a plain concurrent queue).
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Non-blocking enqueue; false when the queue is full (backpressure).
  /// Moves from `item` only on success — a failed push leaves it intact,
  /// so overflow paths (the spill tier) can reuse it without a deep copy.
  bool try_push(T&& item) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || queue_.size() >= capacity_) return false;
    queue_.push_back(std::move(item));
    if (queue_.size() > high_water_) high_water_ = queue_.size();
    depth_.store(queue_.size(), std::memory_order_relaxed);
    cv_.notify_one();
    return true;
  }

  /// Copying convenience for producers that keep their item.
  bool try_push(const T& item) {
    T copy = item;
    return try_push(std::move(copy));
  }

  /// Blocking enqueue; false only when the queue is closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_space_.wait(lock, [&] { return closed_ || queue_.size() < capacity_; });
    if (closed_) return false;
    queue_.push_back(std::move(item));
    if (queue_.size() > high_water_) high_water_ = queue_.size();
    depth_.store(queue_.size(), std::memory_order_relaxed);
    cv_.notify_one();
    return true;
  }

  /// Blocking dequeue; false when the queue is closed and drained.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    depth_.store(queue_.size(), std::memory_order_relaxed);
    cv_space_.notify_one();
    return true;
  }

  /// Blocking batch dequeue: appends 1..max_items items to `out` (blocking
  /// beyond the first element never happens — it takes what is there).
  /// Same terminal contract as pop: returns 0 *only* when the queue is
  /// closed and drained, never as a spurious wakeup, so a 0 return is a
  /// reliable shutdown signal at call sites.
  ///
  /// `adaptive_share` > 0 enables depth-adaptive sizing: the effective cap
  /// becomes clamp(ceil(depth / share), 1, max_items), computed on the
  /// depth observed AFTER the blocking wait — so the first drain after an
  /// idle park sees the burst that woke it, not the emptiness before it.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max_items,
                        std::size_t adaptive_share = 0) {
    if (max_items == 0) max_items = 1;  // keep the 0-iff-closed contract
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    max_items =
        detail::adaptive_drain_cap(queue_.size(), adaptive_share, max_items);
    std::size_t n = 0;
    while (n < max_items && !queue_.empty()) {
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
      ++n;
    }
    depth_.store(queue_.size(), std::memory_order_relaxed);
    cv_space_.notify_all();
    return n;
  }

  /// Block until the queue has free space or is closed; false when closed.
  /// Space is not reserved: a concurrent producer may claim it first, so
  /// callers combine this with try_push in a retry loop.
  bool wait_for_space() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_space_.wait(lock, [&] { return closed_ || queue_.size() < capacity_; });
    return !closed_;
  }

  /// Timed wait_for_space (the spill-deadline path): same no-reservation
  /// caveat, but gives up after `timeout`.
  SpaceWait wait_for_space_for(std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool woken = cv_space_.wait_for(
        lock, timeout, [&] { return closed_ || queue_.size() < capacity_; });
    if (!woken) return SpaceWait::kTimeout;
    return closed_ ? SpaceWait::kClosed : SpaceWait::kReady;
  }

  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_all();
    cv_space_.notify_all();
  }

  /// Approximate current depth (a racy snapshot, like any concurrent
  /// size).  Lock-free so observers never contend with producers/workers
  /// on the queue mutex.
  std::size_t size() const {
    return depth_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return capacity_; }

  /// Deepest the queue has ever been (the DAQ headroom metric).
  std::size_t depth_high_water() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return high_water_;
  }

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_, cv_space_;
  std::deque<T> queue_;
  std::atomic<std::size_t> depth_{0};  ///< mirrors queue_.size() (lock-free reads)
  std::size_t high_water_ = 0;
  bool closed_ = false;
};

}  // namespace nc::codec
