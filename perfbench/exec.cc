#include "exec.h"

#include <cstring>
#include <fstream>

#include "common.h"
#include "core/query_stats.h"
#include "core/scs_auto.h"

namespace perfbench {

using abcs::serve::WireMethod;

int32_t Tracer::Begin(const char* name, uint64_t request, int32_t parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, request, parent, NowNs(), 0});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Tracer::End(int32_t span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end_ns = NowNs();
}

void Tracer::Add(const char* name, uint64_t request, int32_t parent,
                 int64_t start_ns, int64_t end_ns) {
  if (enabled_) spans_.push_back({name, request, parent, start_ns, end_ns});
}

abcs::Status Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"request\": " << s.request
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  out.close();
  if (!out) return abcs::Status::IOError("cannot write " + path);
  return abcs::Status::OK();
}

const char* RetrieveSpanName(WireMethod method) {
  switch (method) {
    case WireMethod::kOnline:
      return "core.retrieve.online";
    case WireMethod::kBicore:
      return "core.retrieve.bicore";
    default:
      return "core.retrieve.delta";
  }
}

const char* ScsSpanName(abcs::ScsAlgo algo) {
  switch (algo) {
    case abcs::ScsAlgo::kExpand:
      return "core.scs.expand";
    case abcs::ScsAlgo::kBinary:
      return "core.scs.binary";
    default:
      return "core.scs.peel";
  }
}

namespace {

abcs::ScsAlgo ScsAlgoOf(WireMethod method) {
  switch (method) {
    case WireMethod::kScsPeel:
      return abcs::ScsAlgo::kPeel;
    case WireMethod::kScsExpand:
      return abcs::ScsAlgo::kExpand;
    case WireMethod::kScsBinary:
      return abcs::ScsAlgo::kBinary;
    default:
      return abcs::ScsAlgo::kAuto;
  }
}

/// WorkCounters slot of the retrieval path `method` runs.
int RetrieveSlot(WireMethod method) {
  switch (method) {
    case WireMethod::kOnline:
      return 0;
    case WireMethod::kBicore:
      return 1;
    default:
      return 2;
  }
}

}  // namespace

void ExecuteQuery(const abcs::serve::Snapshot& snap,
                  const abcs::serve::WireRequest& req, ExecWorker* worker,
                  abcs::serve::WireResponse* resp, Tracer* tracer,
                  uint64_t request, int32_t parent, WorkCounters* work) {
  const abcs::BipartiteGraph& g = snap.graph();
  const abcs::VertexId q = req.lower_side ? g.NumUpper() + req.q : req.q;
  const abcs::QueryRequest qr{q, req.alpha, req.beta};
  abcs::QueryStats qstats;
  const bool traced = tracer != nullptr && tracer->enabled();
  const int32_t rspan =
      traced ? tracer->Begin(RetrieveSpanName(req.method), request, parent)
             : -1;
  switch (req.method) {
    case WireMethod::kOnline:
      snap.online_engine().Query(qr, worker->scratch, &worker->community,
                                 &qstats);
      break;
    case WireMethod::kBicore:
      snap.bicore_engine().Query(qr, worker->scratch, &worker->community,
                                 &qstats);
      break;
    default:
      snap.delta_engine().Query(qr, worker->scratch, &worker->community,
                                &qstats);
      break;
  }
  if (traced) tracer->End(rspan);
  const uint32_t c_edges = static_cast<uint32_t>(worker->community.Size());
  resp->num_edges = c_edges;
  if (work != nullptr) {
    const int slot = RetrieveSlot(req.method);
    work->touched_arcs[slot] += qstats.touched_arcs;
    work->community_edges[slot] += c_edges;
  }
  if (!abcs::serve::IsScsMethod(req.method)) {
    resp->found = !worker->community.Empty();
    resp->kernel = 0xff;
    return;
  }
  abcs::ScsStats stats;
  const int64_t start = traced ? NowNs() : 0;
  abcs::ScsQueryInto(g, worker->community, q, req.alpha, req.beta,
                     ScsAlgoOf(req.method), abcs::ScsOptions{}, &worker->scs,
                     &stats, &worker->scratch, &worker->workspace);
  if (traced) {
    // Named after the kernel the planner resolved, known only now.
    tracer->Add(ScsSpanName(stats.algo_used), request, parent, start,
                NowNs());
  }
  resp->found = worker->scs.found;
  resp->result_edges =
      static_cast<uint32_t>(worker->scs.community.edges.size());
  resp->significance = worker->scs.significance;
  resp->kernel = static_cast<uint8_t>(stats.algo_used);
  if (work != nullptr) {
    ++work->scs_calls;
    work->scs_input_edges += c_edges;
    work->scs_edges_processed += stats.edges_processed;
    work->scs_validations += stats.validations;
    work->scs_probes += stats.incremental_probes;
  }
}

bool SameAnswer(const abcs::serve::WireResponse& a,
                const abcs::serve::WireResponse& b) {
  return a.found == b.found && a.num_edges == b.num_edges &&
         a.result_edges == b.result_edges && a.kernel == b.kernel &&
         std::memcmp(&a.significance, &b.significance, sizeof(double)) == 0;
}

}  // namespace perfbench
