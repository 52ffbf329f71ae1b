#include "io/fault_inject.h"

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace abcs {

namespace fault_detail {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_net_enabled{false};
}  // namespace fault_detail

FaultInjector& FaultInjector::Instance() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

void FaultInjector::Arm(const std::string& point, Action action,
                        uint64_t short_bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    point_ = point;
    action_ = action;
    short_bytes_ = short_bytes;
  }
  fault_detail::g_enabled.store(true, std::memory_order_release);
}

namespace {

/// Parses all of `text` as a decimal count: no sign, blank or trailing
/// byte is accepted.
bool ParseCount(std::string_view text, uint64_t* out) {
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, *out);
  return ec == std::errc() && end == last;
}

/// Arms `point` or `point=short:N`, N a byte count parsed to its end.
Status ArmCrashSpec(FaultInjector& injector, const std::string& spec) {
  const std::size_t eq = spec.find('=');
  const std::string point = spec.substr(0, eq);
  if (eq == std::string::npos) {
    injector.Arm(point, FaultInjector::Action::kCrash);
    return Status::OK();
  }
  const std::string_view what = std::string_view(spec).substr(eq + 1);
  uint64_t bytes = 0;
  if (!point.empty() && what.starts_with("short:") &&
      ParseCount(what.substr(6), &bytes)) {
    injector.Arm(point, FaultInjector::Action::kShortWrite, bytes);
    return Status::OK();
  }
  return Status::InvalidArgument(
      "crash fault spec must be point or point=short:N: " + spec);
}

}  // namespace

void FaultInjector::ArmFromEnv() {
  const char* env = std::getenv("ABCS_FAULT_INJECT");
  if (env == nullptr || *env == '\0') return;
  // Comma-separated specs; "net."- and "scrub."-prefixed points arm the
  // (non-crashing) counting injector, anything else the crash injector.
  // The crash injector holds a single fault, so the last crash spec wins.
  const std::string all(env);
  std::size_t start = 0;
  while (start <= all.size()) {
    std::size_t comma = all.find(',', start);
    if (comma == std::string::npos) comma = all.size();
    const std::string s = all.substr(start, comma - start);
    start = comma + 1;
    if (s.empty()) continue;
    // A malformed spec is a test-harness bug; fail loudly rather than
    // silently running the soak with nothing (or something else) armed.
    const Status st = s.rfind("net.", 0) == 0 || s.rfind("scrub.", 0) == 0
                          ? NetFaultInjector::Instance().ArmSpec(s)
                          : ArmCrashSpec(*this, s);
    if (!st.ok()) {
      std::fprintf(stderr, "ABCS_FAULT_INJECT: %s\n", st.ToString().c_str());
      ::_exit(2);
    }
  }
}

void FaultInjector::Disarm() {
  fault_detail::g_enabled.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  point_.clear();
}

void FaultInjector::Hit(const char* point) {
  std::lock_guard<std::mutex> lock(mu_);
  if (action_ == Action::kCrash && point_ == point) {
    ::_exit(kFaultCrashExitCode);
  }
}

uint64_t FaultInjector::WriteBudget(const char* point, uint64_t want) {
  std::lock_guard<std::mutex> lock(mu_);
  if (action_ == Action::kShortWrite && point_ == point &&
      short_bytes_ < want) {
    return short_bytes_;
  }
  return want;
}

void FaultInjector::CrashNow() { ::_exit(kFaultCrashExitCode); }

bool FaultInjector::armed() const {
  return fault_detail::g_enabled.load(std::memory_order_acquire);
}

NetFaultInjector& NetFaultInjector::Instance() {
  static NetFaultInjector* instance = new NetFaultInjector();
  return *instance;
}

Status NetFaultInjector::ArmSpec(const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("net fault spec needs point=action: " +
                                   spec);
  }
  Fault f;
  f.point = spec.substr(0, eq);
  std::string action = spec.substr(eq + 1);
  const std::size_t at = action.find('@');
  if (at != std::string::npos) {
    if (!ParseCount(std::string_view(action).substr(at + 1), &f.every) ||
        f.every == 0) {
      return Status::InvalidArgument("bad @every in net fault spec: " + spec);
    }
    action.resize(at);
  }
  const std::size_t colon = action.find(':');
  std::string name = action.substr(0, colon);
  uint64_t arg = 0;
  if (colon != std::string::npos &&
      !ParseCount(std::string_view(action).substr(colon + 1), &arg)) {
    return Status::InvalidArgument("bad argument in net fault spec: " + spec);
  }
  if (name == "reset") {
    f.kind = ActionKind::kReset;
  } else if (name == "short") {
    f.kind = ActionKind::kShort;
    f.arg = arg ? arg : 1;
  } else if (name == "eintr") {
    f.kind = ActionKind::kEintr;
    f.arg = arg ? arg : 1;
  } else if (name == "delay") {
    f.kind = ActionKind::kDelay;
    f.arg = arg;
  } else if (name == "flipbyte") {
    f.kind = ActionKind::kFlipByte;
    f.arg = arg;
  } else if (name == "truncate") {
    f.kind = ActionKind::kTruncate;
    f.arg = arg;
  } else {
    return Status::InvalidArgument("unknown net fault action: " + spec);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    faults_.push_back(std::move(f));
  }
  fault_detail::g_net_enabled.store(true, std::memory_order_release);
  return Status::OK();
}

void NetFaultInjector::Disarm() {
  fault_detail::g_net_enabled.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  faults_.clear();
}

NetFaultInjector::Decision NetFaultInjector::Consult(const char* point) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Fault& f : faults_) {
    if (f.point != point) continue;
    ++f.visits;
    if (f.storm_left > 0) {
      --f.storm_left;
      ++f.fired;
      return {ActionKind::kEintr, 0};
    }
    if (f.visits % f.every != 0) continue;
    ++f.fired;
    if (f.kind == ActionKind::kEintr) {
      f.storm_left = f.arg - 1;  // this visit is the storm's first EINTR
      return {ActionKind::kEintr, 0};
    }
    return {f.kind, f.arg};
  }
  return {};
}

uint64_t NetFaultInjector::fired(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const Fault& f : faults_) {
    if (f.point == point) n += f.fired;
  }
  return n;
}

}  // namespace abcs
