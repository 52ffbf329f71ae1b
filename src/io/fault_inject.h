#ifndef ABCS_IO_FAULT_INJECT_H_
#define ABCS_IO_FAULT_INJECT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace abcs {

/// \brief Runtime-armed crash/short-write injection for the durability
/// paths (bundle save, compaction, mapped open).
///
/// The seam is always compiled in but costs a single relaxed atomic-bool
/// branch per point while disarmed, so production binaries pay nothing
/// measurable. Tests arm one point at a time — programmatically (the
/// crash-matrix test arms inside a fork()ed child) or via the
/// `ABCS_FAULT_INJECT` environment variable for external kill-testing:
///
///     ABCS_FAULT_INJECT="bundle_save.after_fsync"          # crash there
///     ABCS_FAULT_INJECT="bundle_save.sections=short:17"    # write 17
///                                                  # bytes, then crash
///
/// A triggered fault terminates the process immediately with
/// `_exit(kFaultCrashExitCode)` — no atexit handlers, no flushes — which
/// is exactly the torn state a SIGKILL mid-save leaves behind.
class FaultInjector {
 public:
  enum class Action : uint8_t {
    kCrash,           ///< _exit at the named point
    kShortWrite,      ///< truncate the labelled write, then _exit
  };

  static FaultInjector& Instance();

  /// Arms a single fault. `short_bytes` is the byte budget for
  /// kShortWrite (how much of the labelled write survives).
  void Arm(const std::string& point, Action action, uint64_t short_bytes = 0);

  /// Parses ABCS_FAULT_INJECT (see class comment). No-op when unset; a
  /// spec of any other shape exits the process with status 2.
  void ArmFromEnv();

  void Disarm();

  /// Crash seam: terminates the process iff armed with kCrash at `point`.
  void Hit(const char* point);

  /// Short-write seam: the caller is about to write `want` bytes under
  /// label `point`. Returns `want` unless armed with kShortWrite at this
  /// point, in which case the (smaller) armed budget comes back and the
  /// caller must write exactly that prefix and then call CrashNow().
  uint64_t WriteBudget(const char* point, uint64_t want);

  [[noreturn]] void CrashNow();

  bool armed() const;

 private:
  FaultInjector() = default;

  mutable std::mutex mu_;
  std::string point_;
  Action action_ = Action::kCrash;
  uint64_t short_bytes_ = 0;
};

/// Exit status of a process killed by a triggered fault; the crash-matrix
/// test uses it to tell an injected death from an ordinary failure.
inline constexpr int kFaultCrashExitCode = 86;

namespace fault_detail {
extern std::atomic<bool> g_enabled;
}  // namespace fault_detail

/// Zero-cost-when-disarmed crash point.
inline void FaultPoint(const char* point) {
  if (fault_detail::g_enabled.load(std::memory_order_relaxed)) {
    FaultInjector::Instance().Hit(point);
  }
}

/// Zero-cost-when-disarmed short-write point (see WriteBudget).
inline uint64_t FaultWriteBudget(const char* point, uint64_t want) {
  if (fault_detail::g_enabled.load(std::memory_order_relaxed)) {
    return FaultInjector::Instance().WriteBudget(point, want);
  }
  return want;
}

/// \brief Non-crashing socket-fault injection for the serve tier's wire
/// path (`net.*` points in client.cc / server.cc via serve/net_ops.h).
///
/// Where FaultInjector kills the process to emulate power loss, this seam
/// perturbs individual socket calls to emulate a hostile network:
/// connection resets, short send/recv, EINTR storms and injected delays —
/// all deterministic, so chaos tests can assert exact recovery behavior.
///
/// Armed through the same `ABCS_FAULT_INJECT` environment variable
/// (specs whose point starts with "net." route here; comma-separated
/// specs arm several points at once) or programmatically via ArmSpec:
///
///     net.server_send=short:7@3     # every 3rd send truncated to 7 bytes
///     net.client_recv=eintr:2@5     # every 5th recv starts a 2-EINTR storm
///     net.client_send=reset@17      # every 17th send dies with ECONNRESET
///     net.server_send=delay:250     # sleep 250ms before every send
///     scrub.before_pass=flipbyte:4096@2  # 2nd scrub pass: flip byte 4096
///     scrub.before_pass=truncate:64      # truncate the bundle to 64 bytes
///
/// "scrub." points route here too: the daemon's bundle scrubber consults
/// them before each verification pass and corrupts its own file on disk,
/// so the detect → quarantine → `.prev` recovery path runs deterministically
/// under test (see server.cc ScrubberLoop).
///
/// `@N` fires the action on every Nth visit of that point (default 1).
/// Multiple specs may target distinct points; the registry consults them
/// all. Disarmed cost is one relaxed atomic-bool load per point.
class NetFaultInjector {
 public:
  enum class ActionKind : uint8_t {
    kNone,   ///< no fault at this visit
    kReset,  ///< fail the call with ECONNRESET (ECONNREFUSED for connect)
    kShort,  ///< truncate the attempted send/recv length to `arg` bytes
    kEintr,  ///< fail the call (and the next arg-1 visits) with EINTR
    kDelay,  ///< sleep `arg` milliseconds, then perform the call normally
    kFlipByte,  ///< scrub points: XOR the byte at file offset `arg`
    kTruncate,  ///< scrub points: truncate the file to `arg` bytes
  };

  struct Decision {
    ActionKind kind = ActionKind::kNone;
    uint64_t arg = 0;
  };

  static NetFaultInjector& Instance();

  /// Parses and arms one `point=action[:arg][@everyN]` spec (additive —
  /// call repeatedly to arm several points). The point should carry the
  /// conventional "net." prefix so env routing finds it.
  Status ArmSpec(const std::string& spec);

  /// Drops every armed fault.
  void Disarm();

  /// Counts a visit of `point` and returns the action to apply, if any.
  Decision Consult(const char* point);

  /// How many times a fault at `point` has actually fired (tests).
  uint64_t fired(const std::string& point) const;

 private:
  NetFaultInjector() = default;

  struct Fault {
    std::string point;
    ActionKind kind = ActionKind::kNone;
    uint64_t arg = 0;
    uint64_t every = 1;
    uint64_t visits = 0;
    uint64_t storm_left = 0;  ///< remaining EINTRs in the current storm
    uint64_t fired = 0;
  };

  mutable std::mutex mu_;
  std::vector<Fault> faults_;
};

namespace fault_detail {
extern std::atomic<bool> g_net_enabled;
}  // namespace fault_detail

/// Zero-cost-when-disarmed socket fault point (see NetFaultInjector).
inline NetFaultInjector::Decision NetFaultPoint(const char* point) {
  if (fault_detail::g_net_enabled.load(std::memory_order_relaxed)) {
    return NetFaultInjector::Instance().Consult(point);
  }
  return {};
}

}  // namespace abcs

#endif  // ABCS_IO_FAULT_INJECT_H_
