#ifndef PERFBENCH_EXEC_H_
#define PERFBENCH_EXEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query_scratch.h"
#include "core/scs_common.h"
#include "core/subgraph.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace perfbench {

/// \brief In-memory span recorder. A span has a name, start, end, the
/// span that caused it and the request it belongs to; spans are written
/// out once, when the run ends. Disabled, Begin/End cost one branch and
/// read no clock, which is what the tracing-overhead comparison measures.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t request;
    int32_t parent;  ///< index of the parent span, -1 for a root
    int64_t start_ns;
    int64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span and returns its index (-1 when disabled).
  int32_t Begin(const char* name, uint64_t request, int32_t parent);
  void End(int32_t span);
  /// Records a finished span whose name is known only at its end.
  void Add(const char* name, uint64_t request, int32_t parent,
           int64_t start_ns, int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }
  abcs::Status WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Work counters the kernels report, summed per layer by the replay.
struct WorkCounters {
  uint64_t touched_arcs[3] = {0, 0, 0};  ///< by path: online, bicore, delta
  uint64_t community_edges[3] = {0, 0, 0};  ///< Σ|C|
  uint64_t scs_input_edges = 0;             ///< Σ|C| fed to SCS kernels
  uint64_t scs_edges_processed = 0;
  uint64_t scs_validations = 0;
  uint64_t scs_probes = 0;
  uint64_t scs_calls = 0;
};

/// Per-thread pooled query state, as one daemon worker owns it.
struct ExecWorker {
  abcs::QueryScratch scratch;
  abcs::ScsWorkspace workspace;
  abcs::Subgraph community;
  abcs::ScsResult scs;
};

/// Span names of the core layer: the retrieval path a method runs, and
/// the SCS kernel the planner resolved.
const char* RetrieveSpanName(abcs::serve::WireMethod method);
const char* ScsSpanName(abcs::ScsAlgo algo);

/// Answers one query against `snap` exactly as the daemon's worker does
/// (retrieval, then the SCS kernel for scs-* methods), filling the
/// semantic fields of `*resp`. With a tracer, records one span per core
/// call under `parent` and adds the kernels' work to `*work`.
void ExecuteQuery(const abcs::serve::Snapshot& snap,
                  const abcs::serve::WireRequest& req, ExecWorker* worker,
                  abcs::serve::WireResponse* resp, Tracer* tracer = nullptr,
                  uint64_t request = 0, int32_t parent = -1,
                  WorkCounters* work = nullptr);

/// True when the answers agree bit for bit on found, |C|, |R|, f(R) and
/// the resolved kernel.
bool SameAnswer(const abcs::serve::WireResponse& a,
                const abcs::serve::WireResponse& b);

}  // namespace perfbench

#endif  // PERFBENCH_EXEC_H_
