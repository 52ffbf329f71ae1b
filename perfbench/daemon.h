#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/protocol.h"

namespace perfbench {

/// \brief One `abcs serve` child process. The destructor stops it, so no
/// exit path of the benchmark leaves a daemon behind.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `argv` (argv[0] is the program path) with stdout and stderr
  /// appended to `log_path`, waits for it to write its port to
  /// `port_file`, then sends `probe` and waits for the answer. `*setup_s`
  /// is the time from spawn to that first answered query.
  abcs::Status Start(const std::vector<std::string>& argv,
                     const std::string& port_file,
                     const std::string& log_path,
                     const abcs::serve::WireRequest& probe, double* setup_s);

  uint16_t port() const { return port_; }
  bool running() const { return pid_ > 0; }

  /// Peak resident set (`VmHWM` in /proc/<pid>/status), in MiB.
  abcs::Status PeakRssMb(double* mb) const;

  /// SIGTERM (graceful drain), then SIGKILL after a grace period; always
  /// reaps the child. Returns the exit status (0 for a clean drain).
  int Stop();

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
