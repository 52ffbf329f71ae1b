#ifndef ABCS_CORE_WORK_STEAL_H_
#define ABCS_CORE_WORK_STEAL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace abcs {

/// \brief Lock-free work-stealing partition of the index range [0, n).
///
/// The one dispatch policy of `QueryEngine` batches and of the bundle
/// opener's per-section checksum+decode pass (`DispatchWorkStealing`).
/// A static split lets one slow query stall every request queued behind
/// it on the same worker (the online-method p99 cliff in BENCH_query: p50
/// 0.78 ms vs p99 12.8 ms at 4 threads). Here every worker starts with one
/// contiguous chunk of the batch; a worker that drains its chunk steals
/// the upper half of the largest remaining victim chunk, so queued work
/// behind a long-running query is redistributed instead of waiting.
///
/// Each worker's remaining range is packed into one 64-bit word
/// (`begin` in the low half, `end` in the high half) so both the owner's
/// pop-front and a thief's split-in-half are single compare-exchanges on
/// the same word — linearizable, ABA-free (begin is monotone within a
/// slot between installs), and clean under ThreadSanitizer. Every index
/// in [0, n) is returned exactly once across all workers, so batch
/// results stay bit-identical to the serial run for any thread count:
/// `outcomes[i]` is written by whichever worker executes `i`.
///
/// The only non-atomic ordering subtlety: a thief holds the stolen range
/// "in hand" between detaching it from the victim and installing it into
/// its own slot. A concurrent scanner can momentarily observe all slots
/// empty and retire — that worker merely stops early; the holder still
/// executes the range, so no index is lost or duplicated.
class WorkStealingRanges {
 public:
  static constexpr std::size_t kDone = static_cast<std::size_t>(-1);

  /// Splits [0, n) into `workers` contiguous chunks (chunk w ends where
  /// chunk w+1 begins; sizes differ by at most one).
  WorkStealingRanges(std::size_t n, unsigned workers)
      : slots_(workers), num_workers_(workers) {
    for (unsigned w = 0; w < workers; ++w) {
      slots_[w].range.store(
          Pack(ChunkBegin(n, workers, w), ChunkBegin(n, workers, w + 1)),
          std::memory_order_relaxed);
    }
  }

  /// First index of worker `w`'s initial chunk (the first `n % workers`
  /// chunks hold one extra index). Callers that order their work, such as
  /// largest-first, use it to place the head of each worker's queue.
  static std::size_t ChunkBegin(std::size_t n, unsigned workers, unsigned w) {
    return w * (n / workers) + std::min<std::size_t>(w, n % workers);
  }

  /// Returns the next index for worker `t`, or `kDone` when no work is
  /// visible anywhere. Pops the front of the own chunk; on empty, steals
  /// the upper half of the largest victim chunk.
  std::size_t Next(unsigned t) {
    for (;;) {
      std::size_t idx;
      if (PopFront(slots_[t], &idx)) return idx;
      if (!StealInto(t)) return kDone;
    }
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> range{0};
  };

  static uint64_t Pack(std::size_t begin, std::size_t end) {
    return (static_cast<uint64_t>(end) << 32) | static_cast<uint64_t>(begin);
  }
  static uint32_t Begin(uint64_t r) { return static_cast<uint32_t>(r); }
  static uint32_t End(uint64_t r) { return static_cast<uint32_t>(r >> 32); }

  bool PopFront(Slot& slot, std::size_t* idx) {
    uint64_t r = slot.range.load(std::memory_order_acquire);
    while (Begin(r) < End(r)) {
      if (slot.range.compare_exchange_weak(r, Pack(Begin(r) + 1, End(r)),
                                           std::memory_order_acq_rel)) {
        *idx = Begin(r);
        return true;
      }
    }
    return false;
  }

  /// Detaches the upper half of the largest victim range and installs it
  /// as worker `t`'s own chunk. Installing into the own slot is safe
  /// because thieves never touch a slot they observed empty, and the own
  /// slot is empty whenever this runs.
  bool StealInto(unsigned t) {
    for (unsigned step = 1; step < num_workers_; ++step) {
      Slot& victim = slots_[(t + step) % num_workers_];
      uint64_t r = victim.range.load(std::memory_order_acquire);
      while (Begin(r) < End(r)) {
        const uint32_t mid =
            Begin(r) + (End(r) - Begin(r)) / 2;  // lower half stays
        if (victim.range.compare_exchange_weak(r, Pack(Begin(r), mid),
                                               std::memory_order_acq_rel)) {
          slots_[t].range.store(Pack(mid, End(r)), std::memory_order_release);
          return true;
        }
      }
    }
    return false;
  }

  std::vector<Slot> slots_;
  unsigned num_workers_;
};

/// Runs `body(t, i)` for every i in [0, n), exactly once each, across
/// `num_threads` work-stealing workers (t is the worker's index), which
/// redistribute the indices queued behind a slow one. One worker runs on
/// the calling thread. Which worker executes an index must not affect the
/// result — `body` should write only state owned by index i or worker t.
template <typename Body>
void DispatchWorkStealing(std::size_t n, unsigned num_threads, Body&& body) {
  if (num_threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(0u, i);
    return;
  }
  // Declared before the thread spawns so it outlives them through the
  // join below. The packed ranges hold 32-bit bounds; a job list large
  // enough to overflow them (> 4G indices) cannot be materialised anyway.
  WorkStealingRanges ranges(n, num_threads);
  auto work = [&](unsigned t) {
    for (std::size_t i = ranges.Next(t); i != WorkStealingRanges::kDone;
         i = ranges.Next(t)) {
      body(t, i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(num_threads - 1);
  for (unsigned t = 1; t < num_threads; ++t) threads.emplace_back(work, t);
  work(0);
  for (std::thread& th : threads) th.join();
}

}  // namespace abcs

#endif  // ABCS_CORE_WORK_STEAL_H_
