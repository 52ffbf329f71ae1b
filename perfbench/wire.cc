#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fcntl.h>

#include "common.h"
#include "common/rng.h"

namespace perfbench {

namespace {

using abcs::serve::MessageType;

/// How long a phase may take, after its window closes, to collect the
/// answers still owed. A healthy daemon needs milliseconds.
constexpr int64_t kDrainNs = 30'000'000'000;

}  // namespace

WireDriver::~WireDriver() { Close(); }

abcs::Status WireDriver::Connect(uint16_t port, unsigned connections) {
  Close();
  conns_.resize(connections);
  for (Conn& c : conns_) {
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) return abcs::Status::IOError("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return abcs::Status::IOError(std::string("connect: ") +
                                   std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  return abcs::Status::OK();
}

void WireDriver::Close() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
  conns_.clear();
}

void WireDriver::Settle(std::size_t i) {
  const Record& r = records_[i];
  if (r.req.type == MessageType::kUpdate) {
    --outstanding_updates_;
  } else {
    --outstanding_reads_[static_cast<int>(r.phase)];
  }
}

std::size_t WireDriver::Send(unsigned conn, const WireRequest& req,
                             Phase phase, int64_t due_ns) {
  const std::size_t i = records_.size();
  Record& r = records_.emplace_back();
  r.req = req;
  r.phase = phase;
  r.conn = static_cast<uint8_t>(conn);
  r.due_ns = due_ns;
  r.sent_ns = NowNs();
  if (req.type == MessageType::kUpdate) {
    ++outstanding_updates_;
  } else {
    ++outstanding_reads_[static_cast<int>(phase)];
  }
  Conn& c = conns_[conn];
  if (c.dead) {
    r.state = Record::State::kTransportError;
    Settle(i);
    return i;
  }
  scratch_.clear();
  abcs::serve::EncodeRequest(req, &scratch_);
  abcs::serve::AppendFrame(scratch_, &c.out);
  c.fifo.push_back(i);
  return i;  // Pump flushes every connection's batch in one send
}

void WireDriver::Flush(unsigned conn) {
  Conn& c = conns_[conn];
  while (!c.dead && c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      Fail(conn);
      return;
    }
  }
  c.out.clear();
  c.out_off = 0;
}

void WireDriver::Fail(unsigned conn) {
  Conn& c = conns_[conn];
  if (c.dead) return;
  c.dead = true;
  ::shutdown(c.fd, SHUT_RDWR);
  for (const std::size_t i : c.fifo) {
    records_[i].state = Record::State::kTransportError;
    Settle(i);
  }
  c.fifo.clear();
}

void WireDriver::ServiceWriter() {
  if (!writer_on_) return;
  const int64_t now = NowNs();
  while (writer_next_ns_ <= now) {
    Send(writer_conn_, writer_->NextOp(), current_phase_, writer_next_ns_);
    if (writer_->BatchFull()) {
      Send(writer_conn_, writer_->Commit(), current_phase_, NowNs());
    }
    writer_next_ns_ += writer_period_ns_;
  }
}

void WireDriver::Pump(int64_t until_ns, const OnAnswer& on_answer) {
  ServiceWriter();
  pollfd fds[8];
  unsigned ids[8];
  nfds_t n = 0;
  for (unsigned k = 0; k < conns_.size() && n < 8; ++k) {
    Conn& c = conns_[k];
    if (c.dead) continue;
    if (c.out_off < c.out.size()) Flush(k);
    if (c.dead) continue;
    short events = POLLIN;
    if (c.out_off < c.out.size()) events |= POLLOUT;
    fds[n] = {c.fd, events, 0};
    ids[n++] = k;
  }
  int64_t wake = until_ns;
  if (writer_on_) wake = std::min(wake, writer_next_ns_);
  const int64_t wait = std::max<int64_t>(0, wake - NowNs());
  timespec ts{static_cast<time_t>(wait / 1'000'000'000),
              static_cast<long>(wait % 1'000'000'000)};
  if (::ppoll(fds, n, &ts, nullptr) <= 0) return;
  for (nfds_t j = 0; j < n; ++j) {
    const unsigned k = ids[j];
    if ((fds[j].revents & POLLOUT) != 0) Flush(k);
    if ((fds[j].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Conn& c = conns_[k];
    for (;;) {
      if (c.dead) break;
      const ssize_t got = ::recv(c.fd, recv_buf_.data(), recv_buf_.size(), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got <= 0) {
        Fail(k);
        break;
      }
      const int64_t now = NowNs();
      if (!c.reader.Append({recv_buf_.data(), static_cast<std::size_t>(got)})
               .ok()) {
        Fail(k);
        break;
      }
      std::span<const std::byte> payload;
      while (!c.dead && c.reader.Next(&payload)) {
        if (c.fifo.empty()) {  // an answer nobody asked for
          Fail(k);
          break;
        }
        const std::size_t i = c.fifo.front();
        Record& r = records_[i];
        if (!abcs::serve::DecodeResponse(payload, &r.resp).ok()) {
          Fail(k);
          break;
        }
        c.fifo.pop_front();
        r.recv_ns = now;
        r.state = Record::State::kAnswered;
        Settle(i);
        if (on_answer) on_answer(i);
      }
      if (static_cast<std::size_t>(got) < recv_buf_.size()) break;
    }
  }
  // Closed-loop refills issued by on_answer go out now, not next round.
  for (unsigned k = 0; k < conns_.size(); ++k) {
    if (conns_[k].out_off < conns_[k].out.size()) Flush(k);
  }
}

bool WireDriver::Drain(Phase phase, int64_t deadline_ns) {
  const int p = static_cast<int>(phase);
  while (outstanding_reads_[p] > 0 && NowNs() < deadline_ns) {
    Pump(std::min(deadline_ns, NowNs() + 10'000'000), nullptr);
  }
  if (outstanding_reads_[p] == 0) return true;
  for (unsigned k = 0; k < conns_.size(); ++k) {
    for (const std::size_t i : conns_[k].fifo) {
      if (records_[i].phase == phase) {
        Fail(k);
        break;
      }
    }
  }
  return false;
}

PhaseStats WireDriver::Finish(Phase phase, int64_t start_ns,
                              int64_t duration_ns,
                              std::size_t first_record) const {
  PhaseStats st;
  st.phase = phase;
  st.start_ns = start_ns;
  st.duration_ns = duration_ns;
  for (std::size_t i = first_record; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.phase == phase && r.req.type != MessageType::kUpdate) ++st.scheduled;
  }
  return st;
}

PhaseStats WireDriver::RunClosed(Phase phase,
                                 const std::vector<unsigned>& conns,
                                 unsigned window, int64_t duration_ns,
                                 RequestStream* stream) {
  current_phase_ = phase;
  const std::size_t first = records_.size();
  const int64_t start = NowNs();
  const int64_t end = start + duration_ns;
  bool exhausted = false;
  const auto issue = [&](unsigned conn) {
    WireRequest req;
    if (exhausted || !stream->Next(&req)) {
      exhausted = true;
      return;
    }
    Send(conn, req, phase, NowNs());
  };
  for (const unsigned c : conns) {
    for (unsigned w = 0; w < window; ++w) issue(c);
  }
  const OnAnswer refill = [&](std::size_t i) {
    const Record& r = records_[i];
    if (r.phase == phase && r.req.type != MessageType::kUpdate &&
        NowNs() < end) {
      issue(r.conn);
    }
  };
  while (NowNs() < end && outstanding_reads_[static_cast<int>(phase)] > 0) {
    Pump(end, refill);
  }
  const bool drained = Drain(phase, NowNs() + kDrainNs);
  PhaseStats st = Finish(phase, start, duration_ns, first);
  st.drained = drained;
  st.exhausted = exhausted;
  return st;
}

PhaseStats WireDriver::RunOpen(Phase phase, const std::vector<unsigned>& conns,
                               double rate, int64_t duration_ns,
                               RequestStream* stream, uint64_t arrival_seed) {
  current_phase_ = phase;
  abcs::Rng rng(arrival_seed);
  const auto gap_ns = [&] {
    return static_cast<int64_t>(-std::log1p(-rng.NextDouble()) / rate * 1e9);
  };
  const std::size_t first = records_.size();
  const int64_t start = NowNs();
  const int64_t end = start + duration_ns;
  int64_t next_due = start + gap_ns();
  std::size_t rr = 0;
  std::size_t peak = 0;
  const int p = static_cast<int>(phase);
  bool exhausted = false;
  while (next_due < end) {
    const int64_t now = NowNs();
    while (next_due <= now && next_due < end) {
      WireRequest req;
      if (!stream->Next(&req)) {
        exhausted = true;
        break;
      }
      Send(conns[rr++ % conns.size()], req, phase, next_due);
      next_due += gap_ns();
    }
    peak = std::max(peak, outstanding_reads_[p]);
    if (exhausted) break;
    if (next_due < end) Pump(next_due, nullptr);
  }
  const bool drained = Drain(phase, NowNs() + kDrainNs);
  PhaseStats st = Finish(phase, start, duration_ns, first);
  st.drained = drained;
  st.exhausted = exhausted;
  st.peak_backlog = peak;
  return st;
}

void WireDriver::StartWriter(unsigned conn, double ops_per_s,
                             UpdateStream* stream) {
  writer_ = stream;
  writer_conn_ = conn;
  writer_period_ns_ = static_cast<int64_t>(1e9 / ops_per_s);
  writer_next_ns_ = NowNs();
  writer_on_ = true;
}

bool WireDriver::StopWriter(int64_t timeout_ns) {
  if (writer_ == nullptr) return true;
  writer_on_ = false;
  if (writer_->Uncommitted()) {
    Send(writer_conn_, writer_->Commit(), current_phase_, NowNs());
  }
  const int64_t deadline = NowNs() + timeout_ns;
  while (outstanding_updates_ > 0 && NowNs() < deadline) {
    Pump(std::min(deadline, NowNs() + 10'000'000), nullptr);
  }
  if (outstanding_updates_ == 0) return true;
  Fail(writer_conn_);
  return false;
}

}  // namespace perfbench
