#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"
#include "serve/client.h"

extern char** environ;

namespace perfbench {

namespace {

/// Reads the port once the daemon has written the whole line.
bool ReadPortFile(const std::string& path, uint16_t* port) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line) || in.eof()) return false;
  char* end = nullptr;
  const long p = std::strtol(line.c_str(), &end, 10);
  if (end == line.c_str() || p <= 0 || p > 65535) return false;
  *port = static_cast<uint16_t>(p);
  return true;
}

}  // namespace

abcs::Status Daemon::Start(const std::vector<std::string>& argv,
                           const std::string& port_file,
                           const std::string& log_path,
                           const abcs::serve::WireRequest& probe,
                           double* setup_s) {
  if (running()) return abcs::Status::InvalidArgument("daemon running");
  std::remove(port_file.c_str());
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);

  const int64_t t0 = NowNs();
  const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    return abcs::Status::IOError(std::string("spawn ") + args[0] + ": " +
                                 std::strerror(rc));
  }
  // The daemon writes the port file after its listener is up; polling at
  // 100 µs keeps the measurement error far below the set-up time.
  const int64_t give_up = t0 + 120'000'000'000;
  while (!ReadPortFile(port_file, &port_)) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return abcs::Status::IOError("daemon exited during start; see " +
                                   log_path);
    }
    if (NowNs() > give_up) return abcs::Status::IOError("daemon start timeout");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  abcs::serve::ClientOptions opts;
  opts.max_attempts = 1;
  abcs::serve::Client client(opts);
  ABCS_RETURN_NOT_OK(client.Connect("127.0.0.1", port_));
  abcs::serve::WireResponse resp;
  ABCS_RETURN_NOT_OK(client.Call(probe, &resp));
  *setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
  if (resp.status != abcs::serve::WireStatus::kOk) {
    return abcs::Status::IOError(std::string("set-up probe answered ") +
                                 abcs::serve::WireStatusName(resp.status));
  }
  return abcs::Status::OK();
}

abcs::Status Daemon::PeakRssMb(double* mb) const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      *mb = kb / 1024.0;
      return abcs::Status::OK();
    }
  }
  return abcs::Status::IOError("no VmHWM for pid " + std::to_string(pid_));
}

int Daemon::Stop() {
  if (pid_ <= 0) return 0;
  kill(pid_, SIGTERM);
  int status = 0;
  const int64_t kill_at = NowNs() + 30'000'000'000;
  for (;;) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) break;
    if (NowNs() > kill_at) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

}  // namespace perfbench
