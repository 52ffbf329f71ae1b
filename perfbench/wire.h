#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "serve/frame.h"
#include "serve/protocol.h"
#include "workloads.h"

namespace perfbench {

/// One request the generator sent, with what came back.
struct Record {
  enum class State : uint8_t { kPending, kAnswered, kTransportError };
  WireRequest req;
  abcs::serve::WireResponse resp;
  int64_t due_ns = 0;   ///< open loop: scheduled send; otherwise actual send
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;
  Phase phase = Phase::kWarm;
  uint8_t conn = 0;
  State state = State::kPending;

  bool ok() const {
    return state == State::kAnswered &&
           resp.status == abcs::serve::WireStatus::kOk;
  }
};

/// One run of a phase: its time window and how the generator fared.
struct PhaseStats {
  Phase phase = Phase::kWarm;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  std::size_t scheduled = 0;
  std::size_t peak_backlog = 0;  ///< most requests sent and unanswered
  bool drained = true;  ///< every request answered before the drain timeout
  bool exhausted = false;  ///< the request stream ran out inside the window
};

/// \brief Single-threaded load generator over non-blocking loopback TCP:
/// one poll loop frames requests with serve/protocol.h + serve/frame.h and
/// matches responses in per-connection FIFO order (the daemon answers each
/// connection strictly in request order). Never retries.
class WireDriver {
 public:
  WireDriver() = default;
  ~WireDriver();
  WireDriver(const WireDriver&) = delete;
  WireDriver& operator=(const WireDriver&) = delete;

  abcs::Status Connect(uint16_t port, unsigned connections);
  void Close();

  /// Closed loop: each of `conns` keeps `window` requests in flight until
  /// `duration_ns` has passed or the stream ends (`exhausted`); then
  /// drains.
  PhaseStats RunClosed(Phase phase, const std::vector<unsigned>& conns,
                       unsigned window, int64_t duration_ns,
                       RequestStream* stream);

  /// Open loop: Poisson arrivals at `rate` per second for `duration_ns`,
  /// dealt round-robin over `conns`; each request is timed from its
  /// scheduled send time. A stream that ends first ends the slice early
  /// and marks it `exhausted`.
  PhaseStats RunOpen(Phase phase, const std::vector<unsigned>& conns,
                     double rate, int64_t duration_ns, RequestStream* stream,
                     uint64_t arrival_seed);

  /// Starts live_churn's writer on `conn`: ops at `ops_per_s`, a commit
  /// after every full batch. It is serviced by every poll iteration of
  /// the phases that follow, until StopWriter.
  void StartWriter(unsigned conn, double ops_per_s, UpdateStream* stream);
  /// Stops scheduling ops, commits the open batch and waits for every ack.
  bool StopWriter(int64_t timeout_ns);

  const std::vector<Record>& records() const { return records_; }

 private:
  struct Conn {
    int fd = -1;
    abcs::serve::FrameReader reader;
    std::vector<std::byte> out;
    std::size_t out_off = 0;
    std::deque<std::size_t> fifo;  ///< record indices awaiting answers
    bool dead = false;
  };

  using OnAnswer = std::function<void(std::size_t record)>;

  std::size_t Send(unsigned conn, const WireRequest& req, Phase phase,
                   int64_t due_ns);
  void Flush(unsigned conn);
  /// Marks the connection dead and every request pending on it failed.
  void Fail(unsigned conn);
  void Settle(std::size_t record);
  /// One poll iteration: services the writer, flushes, waits for input
  /// until `until_ns` (or the writer's next op) and hands every answered
  /// record to `on_answer`.
  void Pump(int64_t until_ns, const OnAnswer& on_answer);
  void ServiceWriter();
  /// Waits for every outstanding read of `phase` up to `deadline_ns`;
  /// on timeout fails the connections still owing answers.
  bool Drain(Phase phase, int64_t deadline_ns);
  PhaseStats Finish(Phase phase, int64_t start_ns, int64_t duration_ns,
                    std::size_t first_record) const;

  std::vector<Conn> conns_;
  std::vector<Record> records_;
  std::vector<std::byte> scratch_;
  std::vector<std::byte> recv_buf_ = std::vector<std::byte>(1 << 16);
  std::size_t outstanding_reads_[kNumPhases] = {};
  std::size_t outstanding_updates_ = 0;

  // Writer state (live_churn).
  UpdateStream* writer_ = nullptr;
  unsigned writer_conn_ = 0;
  int64_t writer_period_ns_ = 0;
  int64_t writer_next_ns_ = 0;
  bool writer_on_ = false;
  Phase current_phase_ = Phase::kWarm;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
