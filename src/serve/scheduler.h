#ifndef ABCS_SERVE_SCHEDULER_H_
#define ABCS_SERVE_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace abcs::serve {

/// \brief Bounded work-stealing task queue for the resident daemon.
///
/// One deque per worker: `Push` appends to the hinted worker's deque
/// (connection affinity keeps a client's pipelined requests in order of
/// execution *start*, and its per-worker scratch warm); `Pop` takes the
/// owner's front, and steals from the *back* of the longest other deque
/// when the own one is empty. Stealing from the back takes the newest
/// enqueued work, leaving the victim's oldest (front) requests to their
/// owner so per-connection FIFO start order is preserved exactly when no
/// steal happens and approximately under load.
///
/// Everything is guarded by one mutex: at community-query service rates
/// (≤ a few hundred k ops/s) a single uncontended lock is nanoseconds,
/// and the simplicity keeps the daemon trivially ThreadSanitizer-clean.
/// Total pending work is bounded by `max_pending`; `Push` fails instead
/// of blocking when full, which the server surfaces as a clean
/// kOverloaded response (admission control, not buffer bloat).
template <typename T>
class TaskScheduler {
 public:
  TaskScheduler(unsigned workers, std::size_t max_pending)
      : queues_(workers), max_pending_(max_pending) {}

  /// Enqueues onto worker `hint % workers`. Returns false when
  /// `max_pending` tasks are already queued (overload) or the scheduler
  /// is closed (shutdown).
  bool Push(T task, unsigned hint) {
    {
      std::lock_guard lock(mu_);
      if (closed_ || pending_ >= max_pending_) return false;
      queues_[hint % queues_.size()].push_back(std::move(task));
      ++pending_;
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until a task is available for worker `t` or the scheduler is
  /// closed *and drained*. Returns false only in the latter case, so
  /// closing never drops accepted work — this is the drain guarantee
  /// behind graceful SIGTERM shutdown.
  bool Pop(unsigned t, T* out) {
    std::unique_lock lock(mu_);
    for (;;) {
      if (TryTakeLocked(t, out)) return true;
      if (closed_) return false;
      cv_.wait(lock);
    }
  }

  /// Stops accepting pushes and wakes every popper; queued tasks are
  /// still handed out until drained.
  void Close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t Pending() const {
    std::lock_guard lock(mu_);
    return pending_;
  }

 private:
  bool TryTakeLocked(unsigned t, T* out) {
    std::deque<T>& own = queues_[t % queues_.size()];
    if (!own.empty()) {
      *out = std::move(own.front());
      own.pop_front();
      --pending_;
      return true;
    }
    std::deque<T>* victim = nullptr;
    for (std::deque<T>& q : queues_) {
      if (!q.empty() && (victim == nullptr || q.size() > victim->size())) {
        victim = &q;
      }
    }
    if (victim == nullptr) return false;
    *out = std::move(victim->back());
    victim->pop_back();
    --pending_;
    return true;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<T>> queues_;
  std::size_t pending_ = 0;
  const std::size_t max_pending_;
  bool closed_ = false;
};

}  // namespace abcs::serve

#endif  // ABCS_SERVE_SCHEDULER_H_
