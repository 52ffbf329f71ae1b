// abcs command-line tool: build/persist the index bundle and run community
// queries on weighted bipartite edge lists.
//
// Usage:
//   abcs stats  <graph>                       print dataset statistics
//   abcs index  <graph> [--out] <bundle-out>  build and persist the ABCSPAK1
//                                             bundle: graph + offset
//                                             decomposition + I_δ + I_v
//                                             (alias: build; per-phase
//                                             timing on stderr)
//   abcs query  <graph> <q> <alpha> <beta> [--index FILE] [--side u|l]
//                                             print C_{α,β}(q)
//   abcs query  --bundle FILE <q> <alpha> <beta> [--side u|l]
//                                             ditto, served straight from an
//                                             mmap'd bundle — no graph file,
//                                             no rebuild
//   abcs query  <graph> --batch <file> [--threads N] [--index FILE]
//               [--method online|bicore|delta|scs-auto|scs-peel|scs-expand|
//                scs-binary] [--side u|l]
//   abcs query  --bundle FILE --batch <file> [--threads N] [--method ...]
//                                             run a query batch through the
//                                             zero-allocation query engine;
//                                             the scs-* methods run the full
//                                             two-step paradigm (retrieve C,
//                                             then extract R with the named
//                                             kernel; scs-auto = planner)
//   abcs scs    <graph> <q> <alpha> <beta> [--index FILE] [--side u|l]
//               [--algo auto|peel|expand|binary|baseline]
//                                             print the significant community
//                                             (phase timing on stderr)
//   abcs profile <graph> <q> <max-alpha> <max-beta> [--index FILE]
//               [--side u|l]                  print f(R) over the (α,β) grid
//   abcs gen    <name> <graph-out>            write a registry dataset
//   abcs serve  <graph>|--bundle FILE [--host H] [--port N] [--threads N]
//               [--port-file F] [--max-connections N] [--max-queue N]
//               [--deadline-ms N] [--no-memo] [--enable-updates]
//               [--update-queue N] [--compact-path F] [--compact-every N]
//                                             resident query daemon over TCP
//                                             (SIGTERM/SIGINT drain cleanly);
//                                             --enable-updates accepts live
//                                             edge updates and serves each
//                                             query from a pinned snapshot
//                                             epoch; --compact-path persists
//                                             the served state as a bundle
//                                             (crash-safe temp+rename, prior
//                                             bundle kept as .prev)
//   abcs client [--host H] --port N --ping
//   abcs client [--host H] --port N <q> <alpha> <beta> [--method M]
//               [--side u|l] [--deadline-ms N]
//   abcs client [--host H] --port N --batch <file> [--method M] [--side u|l]
//               [--deadline-ms N]             pipelined batch; output matches
//                                             `abcs query --batch` minus the
//                                             touched-arcs work counters
//   abcs client [--host H] --port N --batch <file> --connections N
//               --duration S [...]            soak: N concurrent connections
//                                             loop the batch for S seconds
//   abcs client [--host H] --port N (--insert u v w | --remove u v |
//               --reweight u v w)... [--commit]
//                                             live updates, applied in order;
//                                             --commit publishes them as one
//                                             new epoch
//   abcs client [--host H] --port N --update-file F
//                                             batch updates: lines `i u v w`,
//                                             `r u v`, `w u v w`, `c`
//
// <graph> is a whitespace edge list `u v [w]` with 0-based layer-local ids
// (lines starting with % or # ignored). <q> is a layer-local id; --side
// selects the layer (default: u).
//
// --index FILE names a bundle written by `abcs index`: it is opened
// zero-copy and cross-checked against the supplied graph (topology checksum
// AND weight digest, so stale significances are rejected); any other file
// fails with a Corruption error. scs and profile accept --bundle too.
//
// Every number on the command line is a whole base-10 token checked
// against its range (ids and α/β fit u32, ports fit u16, ...); weights
// and durations are whole finite decimals. Anything else prints usage.
//
// A batch file has one query per line: `q alpha beta [u|l]` (layer-local
// q; the trailing letter overrides the batch-wide --side; % and # comment
// lines ignored). Per-query results and aggregate counts go to stdout and
// are deterministic for any --threads value; timing goes to stderr.

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "abcore/degeneracy.h"
#include "abcore/peeling.h"
#include "common/timer.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/query_engine.h"
#include "core/scs_auto.h"
#include "core/scs_baseline.h"
#include "core/profile.h"
#include "graph/datasets.h"
#include "graph/graph_io.h"
#include "io/fault_inject.h"
#include "io/index_bundle.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  abcs stats <graph>\n"
               "  abcs index <graph> [--out] <bundle-out> "
               "[--compress[=none|fast|max]]\n"
               "      (alias: build; writes the ABCSPAK2 bundle; bare "
               "--compress means max;\n"
               "      phase timing on stderr)\n"
               "  abcs inspect <bundle>   (per-section codec, stored/decoded "
               "bytes, ratio)\n"
               "  abcs query <graph> <q> <alpha> <beta> [--index FILE] "
               "[--side u|l]\n"
               "  abcs query --bundle FILE <q> <alpha> <beta> [--side u|l]\n"
               "  abcs query <graph>|--bundle FILE --batch <file> "
               "[--threads N] [--method online|bicore|delta|scs-auto|"
               "scs-peel|scs-expand|scs-binary] [--index FILE] [--side u|l]\n"
               "  abcs scs   <graph> <q> <alpha> <beta> [--index FILE] "
               "[--side u|l] [--algo auto|peel|expand|binary|baseline]\n"
               "  abcs gen   <name> <graph-out>\n"
               "  abcs serve <graph>|--bundle FILE [--host H] [--port N] "
               "[--threads N] [--port-file F] [--max-connections N] "
               "[--max-queue N] [--deadline-ms N] [--no-memo] "
               "[--enable-updates] [--update-queue N] [--compact-path F] "
               "[--compact-every N] [--write-deadline-ms N] [--max-out-kb N] "
               "[--watchdog-interval-ms N] [--sndbuf-kb N] [--fast-drain] "
               "[--scrub-interval-ms N]\n"
               "  abcs client [--host H] --port N (--ping | --health | <q> "
               "<alpha> <beta> | --batch FILE [--connections N --duration S]) "
               "[--method M] [--side u|l] [--deadline-ms N]\n"
               "  abcs client ... [--connect-timeout-ms N] [--io-timeout-ms "
               "N] [--retries N]   (transport knobs, any mode)\n"
               "  abcs client --port N <q> <alpha> <beta> --flood N "
               "[--hold-ms N] [--rcvbuf-kb N]   (slow-client chaos probe)\n"
               "  abcs client [--host H] --port N (--insert u v w | "
               "--remove u v | --reweight u v w)... [--commit]\n"
               "  abcs client [--host H] --port N --update-file F   "
               "(lines: i u v w | r u v | w u v w | c)\n");
  return 2;
}

int Fail(const abcs::Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

/// The one numeric parser for every command: `text` must be a whole
/// base-10 integer in [0, max] (no trailing junk, no sign wrap).
bool ParseUint(const char* text, long max, long* out) {
  char* end = nullptr;
  const long n = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || n < 0 || n > max) return false;
  *out = n;
  return true;
}

/// Consumes the value of the flag at argv[*i] through ParseUint.
bool ParseFlagUint(int argc, char** argv, int* i, long max, long* out) {
  return *i + 1 < argc && ParseUint(argv[++*i], max, out);
}

/// `text` must be a whole finite decimal (weights, durations).
bool ParseReal(const char* text, double* out) {
  char* end = nullptr;
  const double x = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(x)) return false;
  *out = x;
  return true;
}

/// Consumes the value of the flag at argv[*i] through ParseReal.
bool ParseFlagReal(int argc, char** argv, int* i, double* out) {
  return *i + 1 < argc && ParseReal(argv[++*i], out);
}

/// `--side` takes exactly `u` (upper layer) or `l` (lower layer).
bool ParseSide(const char* text, bool* lower) {
  if (std::strcmp(text, "u") != 0 && std::strcmp(text, "l") != 0) {
    return false;
  }
  *lower = text[0] == 'l';
  return true;
}

constexpr long kMaxU32 = 0xffffffffL;
constexpr long kMaxMs = 1L << 30;  ///< every millisecond knob

struct QueryArgs {
  std::string graph_path;
  std::string bundle_path;  ///< --bundle: self-contained, no graph file
  abcs::VertexId q = 0;
  uint32_t alpha = 0, beta = 0;
  std::string index_path;
  bool lower_side = false;
  std::string algo = "auto";
  std::string batch_path;
  std::string method = "delta";
  unsigned num_threads = 1;
  bool batch_only_flags = false;  ///< --threads/--method were given
  bool algo_set = false;          ///< --algo was given
};

bool ParseQueryArgs(int argc, char** argv, QueryArgs* args) {
  // Flags are order-free; positionals are collected in order. With
  // --bundle the graph positional disappears (the bundle embeds it), and
  // with --batch the q/alpha/beta positionals disappear.
  std::vector<const char*> pos;
  long n = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--index") == 0 && i + 1 < argc) {
      args->index_path = argv[++i];
    } else if (std::strcmp(argv[i], "--bundle") == 0 && i + 1 < argc) {
      args->bundle_path = argv[++i];
    } else if (std::strcmp(argv[i], "--side") == 0) {
      if (i + 1 >= argc || !ParseSide(argv[++i], &args->lower_side)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--algo") == 0 && i + 1 < argc) {
      args->algo = argv[++i];
      args->algo_set = true;
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      args->batch_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      // 0 = hardware concurrency
      if (!ParseFlagUint(argc, argv, &i, 1024, &n)) return false;
      args->num_threads = static_cast<unsigned>(n);
      args->batch_only_flags = true;
    } else if (std::strcmp(argv[i], "--method") == 0 && i + 1 < argc) {
      args->method = argv[++i];
      args->batch_only_flags = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      return false;
    } else {
      pos.push_back(argv[i]);
    }
  }
  // A bundle embeds both graph and index; combining it with either source
  // would leave two contradictory truths about what is being queried.
  if (!args->bundle_path.empty() && !args->index_path.empty()) return false;
  std::size_t expect = args->bundle_path.empty() ? 1 : 0;
  if (args->batch_path.empty()) expect += 3;
  if (pos.size() != expect) return false;
  std::size_t k = 0;
  if (args->bundle_path.empty()) args->graph_path = pos[k++];
  if (!args->batch_path.empty()) return true;
  long q = 0, alpha = 0, beta = 0;
  if (!ParseUint(pos[k], kMaxU32, &q) ||
      !ParseUint(pos[k + 1], kMaxU32, &alpha) ||
      !ParseUint(pos[k + 2], kMaxU32, &beta)) {
    return false;
  }
  args->q = static_cast<abcs::VertexId>(q);
  args->alpha = static_cast<uint32_t>(alpha);
  args->beta = static_cast<uint32_t>(beta);
  // --threads/--method only mean something in batch mode; rejecting them
  // here keeps "asked for a method" distinguishable from "served by it".
  if (args->batch_only_flags) return false;
  return args->alpha >= 1 && args->beta >= 1;
}

/// What a query-like command operates on: the graph (edge-list file or the
/// one embedded in an opened bundle) plus the bundle, when one backs the
/// session — either via --bundle or via --index.
struct Session {
  abcs::BipartiteGraph graph_storage;
  std::unique_ptr<abcs::IndexBundle> bundle;
  const abcs::BipartiteGraph* graph = nullptr;
};

abcs::Status LoadSession(const QueryArgs& args, Session* s) {
  if (!args.bundle_path.empty()) {
    // Recovery path: a bundle torn by a crash mid-compaction falls back to
    // the `.prev` epoch the writer rotated aside, with a logged diagnostic.
    std::string diagnostic;
    ABCS_RETURN_NOT_OK(abcs::OpenBundleWithFallback(
        args.bundle_path, &s->bundle, {}, &diagnostic));
    if (!diagnostic.empty()) {
      std::fprintf(stderr, "# %s\n", diagnostic.c_str());
    }
    s->graph = &s->bundle->graph();
    return abcs::Status::OK();
  }
  ABCS_RETURN_NOT_OK(
      abcs::LoadEdgeList(args.graph_path, &s->graph_storage,
                         /*zero_based=*/true));
  s->graph = &s->graph_storage;
  if (!args.index_path.empty()) {
    // The --index bundle is cross-checked against the supplied graph —
    // topology checksum and weight digest — so a stale file fails loudly.
    ABCS_RETURN_NOT_OK(abcs::OpenIndexBundle(args.index_path, &s->bundle));
    ABCS_RETURN_NOT_OK(abcs::VerifyBundleMatchesGraph(*s->bundle, *s->graph));
  }
  return abcs::Status::OK();
}

/// Resolves the I_δ that serves this session: the bundle's (zero-copy) or
/// a fresh build.
const abcs::DeltaIndex* GetIndex(const Session& s, abcs::DeltaIndex* owned) {
  if (s.bundle != nullptr) return &s.bundle->delta_index();
  *owned = abcs::DeltaIndex::Build(*s.graph);
  return owned;
}

void PrintSubgraph(const abcs::BipartiteGraph& g, const abcs::Subgraph& sub) {
  const abcs::SubgraphStats stats = abcs::ComputeStats(g, sub);
  std::printf("# |E|=%zu |U|=%u |L|=%u min_w=%g avg_w=%g\n", sub.Size(),
              stats.num_upper, stats.num_lower, stats.min_weight,
              stats.avg_weight);
  for (abcs::EdgeId e : sub.edges) {
    const abcs::Edge& ed = g.GetEdge(e);
    std::printf("%u %u %g\n", ed.u, ed.v - g.NumUpper(), ed.w);
  }
}

int CmdStats(const std::string& path) {
  abcs::BipartiteGraph g;
  abcs::Status st = abcs::LoadEdgeList(path, &g, /*zero_based=*/true);
  if (!st.ok()) return Fail(st);
  const uint32_t delta = abcs::Degeneracy(g);
  const abcs::CoreResult rdd = abcs::ComputeAlphaBetaCore(g, delta, delta);
  std::printf("|E|=%u |U|=%u |L|=%u delta=%u amax=%u bmax=%u |Rdd|=%u\n",
              g.NumEdges(), g.NumUpper(), g.NumLower(), delta,
              g.MaxUpperDegree(), g.MaxLowerDegree(), rdd.num_edges);
  return 0;
}

int CmdIndex(const std::string& graph_path, const std::string& out_path,
             abcs::BundleCompression compression) {
  abcs::BipartiteGraph g;
  abcs::Status st = abcs::LoadEdgeList(graph_path, &g, /*zero_based=*/true);
  if (!st.ok()) return Fail(st);
  // Per-phase breakdown on stderr so a build regression in any one stage
  // (offset decomposition, entry emission, serialisation) is diagnosable
  // straight from logs.
  abcs::Timer timer;
  const abcs::BicoreDecomposition decomp =
      abcs::ComputeBicoreDecompositionParallel(g, /*num_threads=*/0);
  const double decomp_s = timer.Seconds();
  timer.Reset();
  const abcs::DeltaIndex index = abcs::DeltaIndex::Build(g, &decomp);
  const double entries_s = timer.Seconds();
  timer.Reset();
  const abcs::BicoreIndex bicore = abcs::BicoreIndex::Build(g, &decomp);
  const double bicore_s = timer.Seconds();
  // This line reports I_δ alone (time and bytes) so its trend stays
  // comparable across releases; the I_v build and the full bundle size
  // have their own figures below and in the stderr phase breakdown.
  std::printf("built I_delta (delta=%u) in %.3fs, %.2f MB\n", index.delta(),
              decomp_s + entries_s,
              static_cast<double>(index.MemoryBytes()) / (1024.0 * 1024.0));
  timer.Reset();
  abcs::SaveBundleOptions save;
  save.compression = compression;
  st = abcs::SaveIndexBundle(g, decomp, index, bicore, out_path, save);
  if (!st.ok()) return Fail(st);
  const double save_s = timer.Seconds();
  std::fprintf(stderr,
               "# build phases: decomposition=%.3fs (%.2f MB arena) "
               "entries=%.3fs bicore=%.3fs serialisation=%.3fs\n",
               decomp_s,
               static_cast<double>(decomp.MemoryBytes()) / (1024.0 * 1024.0),
               entries_s, bicore_s, save_s);
  std::error_code ec;
  const auto bundle_bytes = std::filesystem::file_size(out_path, ec);
  std::printf("saved to %s (%.2f MB bundle, compression=%s: graph + "
              "decomposition + I_delta + I_v)\n",
              out_path.c_str(),
              ec ? 0.0 : static_cast<double>(bundle_bytes) / (1024.0 * 1024.0),
              abcs::BundleCompressionName(compression));
  return 0;
}

// Prints the bundle TOC: one row per section with its codec tag, stored
// (on-disk) and decoded byte counts, and the per-section ratio — the
// ground truth for "what did --compress actually buy on this dataset".
int CmdInspect(const std::string& bundle_path) {
  std::unique_ptr<abcs::IndexBundle> bundle;
  abcs::Status st = abcs::OpenIndexBundle(bundle_path, &bundle);
  if (!st.ok()) return Fail(st);
  std::printf("%s: ABCSPAK%u, %zu sections\n", bundle_path.c_str(),
              bundle->FormatVersion(), bundle->Sections().size());
  std::printf("%-18s %-14s %12s %12s %7s\n", "section", "codec", "stored",
              "decoded", "ratio");
  uint64_t stored_total = 0, decoded_total = 0;
  for (const abcs::BundleSectionInfo& info : bundle->Sections()) {
    stored_total += info.stored_bytes;
    decoded_total += info.decoded_bytes;
    const double ratio =
        info.stored_bytes > 0 ? static_cast<double>(info.decoded_bytes) /
                                    static_cast<double>(info.stored_bytes)
                              : 1.0;
    std::printf("%-18s %-14s %12llu %12llu %6.2fx\n", info.name.c_str(),
                abcs::SectionCodecName(info.codec),
                static_cast<unsigned long long>(info.stored_bytes),
                static_cast<unsigned long long>(info.decoded_bytes), ratio);
  }
  std::printf("%-18s %-14s %12llu %12llu %6.2fx\n", "total", "",
              static_cast<unsigned long long>(stored_total),
              static_cast<unsigned long long>(decoded_total),
              stored_total > 0 ? static_cast<double>(decoded_total) /
                                     static_cast<double>(stored_total)
                               : 1.0);
  std::printf("file bytes: %zu   decode pool: %zu bytes   zero-copy: %s\n",
              bundle->FileBytes(), bundle->DecodePoolBytes(),
              bundle->ZeroCopy() ? "yes" : "no");
  return 0;
}

// Parses `q alpha beta [u|l]` lines (layer-local q) into unified-id
// requests; default_lower applies when a line has no side letter.
abcs::Status ParseBatchFile(const std::string& path,
                            const abcs::BipartiteGraph& g, bool default_lower,
                            std::vector<abcs::QueryRequest>* out) {
  std::ifstream in(path);
  if (!in) return abcs::Status::NotFound("cannot open batch file " + path);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#' ||
        line[first] == '%') {
      continue;
    }
    unsigned long id = 0, alpha = 0, beta = 0;
    char side = default_lower ? 'l' : 'u';
    char junk[2];
    const int got = std::sscanf(line.c_str(), "%lu %lu %lu %c %1s", &id,
                                &alpha, &beta, &side, junk);
    if (got < 3 || got > 4 || alpha == 0 || beta == 0 ||
        alpha > 0xffffffffUL || beta > 0xffffffffUL ||
        (side != 'u' && side != 'l')) {
      return abcs::Status::InvalidArgument(
          path + ":" + std::to_string(lineno) + ": expected `q alpha beta " +
          "[u|l]`, got `" + line + "`");
    }
    // Range-check before narrowing so a 64-bit id cannot wrap into a
    // valid vertex.
    const unsigned long layer_size =
        side == 'l' ? g.NumLower() : g.NumUpper();
    if (id >= layer_size) {
      return abcs::Status::InvalidArgument(
          path + ":" + std::to_string(lineno) + ": vertex out of range");
    }
    const abcs::VertexId q = side == 'l'
                                 ? g.NumUpper() + static_cast<uint32_t>(id)
                                 : static_cast<uint32_t>(id);
    out->push_back(abcs::QueryRequest{q, static_cast<uint32_t>(alpha),
                                      static_cast<uint32_t>(beta)});
  }
  return abcs::Status::OK();
}

// Batch of full two-step SCS queries: retrieval through the delta index,
// extraction by `algo` (kAuto = per-query planner). stdout carries only
// thread-count-invariant data; timing and the phase/kernel breakdown go to
// stderr.
int RunScsBatchQueries(const QueryArgs& args, const Session& session,
                       const std::vector<abcs::QueryRequest>& requests,
                       abcs::ScsAlgo algo) {
  const abcs::BipartiteGraph& g = *session.graph;
  abcs::DeltaIndex owned_delta;
  const abcs::DeltaIndex* delta = GetIndex(session, &owned_delta);

  const abcs::QueryEngine engine(g, abcs::QueryMethod::kDelta, delta);
  abcs::ScsBatchOptions options;
  options.num_threads = args.num_threads;
  options.algo = algo;
  const abcs::ScsBatchResult batch = engine.RunScsBatch(requests, options);

  std::printf("# batch of %zu scs queries, algo=%s\n", requests.size(),
              abcs::ScsAlgoName(algo));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const abcs::QueryRequest& r = requests[i];
    const abcs::ScsOutcome& o = batch.outcomes[i];
    const bool lower = !g.IsUpper(r.q);
    if (o.found) {
      std::printf("%zu %s%u (%u,%u) |C|=%u |R|=%u f=%g kernel=%s\n", i,
                  lower ? "l" : "u", lower ? r.q - g.NumUpper() : r.q,
                  r.alpha, r.beta, o.community_edges, o.result_edges,
                  o.significance, abcs::ScsAlgoName(o.algo_used));
    } else {
      std::printf("%zu %s%u (%u,%u) |C|=%u none\n", i, lower ? "l" : "u",
                  lower ? r.q - g.NumUpper() : r.q, r.alpha, r.beta,
                  o.community_edges);
    }
  }
  const abcs::ScsBatchStats& s = batch.stats;
  std::printf("# found=%llu total_C=%llu total_R=%llu\n",
              static_cast<unsigned long long>(s.num_found),
              static_cast<unsigned long long>(s.total_community_edges),
              static_cast<unsigned long long>(s.total_result_edges));
  std::fprintf(
      stderr,
      "# threads=%u wall=%.3es qps=%.1f p50=%.3es p99=%.3es "
      "retrieve=%.3es scs=%.3es kernels: peel=%llu expand=%llu binary=%llu "
      "validations=%llu incremental_probes=%llu\n",
      batch.num_threads_used, batch.wall_seconds, batch.QueriesPerSecond(),
      s.p50_seconds, s.p99_seconds, s.retrieve_seconds,
      s.total_seconds - s.retrieve_seconds,
      static_cast<unsigned long long>(
          s.algo_counts[static_cast<int>(abcs::ScsAlgo::kPeel)]),
      static_cast<unsigned long long>(
          s.algo_counts[static_cast<int>(abcs::ScsAlgo::kExpand)]),
      static_cast<unsigned long long>(
          s.algo_counts[static_cast<int>(abcs::ScsAlgo::kBinary)]),
      static_cast<unsigned long long>(s.validations),
      static_cast<unsigned long long>(s.incremental_probes));
  return 0;
}

int CmdQueryBatch(const QueryArgs& args) {
  Session session;
  abcs::Status st = LoadSession(args, &session);
  if (!st.ok()) return Fail(st);
  const abcs::BipartiteGraph& g = *session.graph;
  std::vector<abcs::QueryRequest> requests;
  st = ParseBatchFile(args.batch_path, g, args.lower_side, &requests);
  if (!st.ok()) return Fail(st);

  if (args.method.rfind("scs-", 0) == 0) {
    abcs::ScsAlgo algo;
    const std::string kernel = args.method.substr(4);
    if (kernel == "auto") {
      algo = abcs::ScsAlgo::kAuto;
    } else if (kernel == "peel") {
      algo = abcs::ScsAlgo::kPeel;
    } else if (kernel == "expand") {
      algo = abcs::ScsAlgo::kExpand;
    } else if (kernel == "binary") {
      algo = abcs::ScsAlgo::kBinary;
    } else {
      return Fail(abcs::Status::InvalidArgument("unknown --method"));
    }
    return RunScsBatchQueries(args, session, requests, algo);
  }

  abcs::QueryMethod method;
  if (args.method == "online") {
    method = abcs::QueryMethod::kOnline;
  } else if (args.method == "bicore") {
    method = abcs::QueryMethod::kBicore;
  } else if (args.method == "delta") {
    method = abcs::QueryMethod::kDelta;
  } else {
    return Fail(abcs::Status::InvalidArgument("unknown --method"));
  }

  abcs::DeltaIndex owned_delta;
  abcs::BicoreIndex owned_bicore;
  const abcs::DeltaIndex* delta = &owned_delta;
  const abcs::BicoreIndex* bicore = &owned_bicore;
  if (method == abcs::QueryMethod::kDelta) {
    delta = GetIndex(session, &owned_delta);
  } else if (method == abcs::QueryMethod::kBicore) {
    // A bundle carries I_v too, so bicore batches skip the rebuild.
    if (session.bundle != nullptr) {
      bicore = &session.bundle->bicore_index();
    } else {
      owned_bicore = abcs::BicoreIndex::Build(g, nullptr, /*num_threads=*/0);
    }
  } else if (!args.index_path.empty()) {
    // Silently ignoring --index would hide a no-op behind an
    // apparently-used index file.
    return Fail(abcs::Status::InvalidArgument(
        "--method online uses no index; drop --index"));
  }

  const abcs::QueryEngine engine(g, method, delta, bicore);
  abcs::BatchOptions options;
  options.num_threads = args.num_threads;
  const abcs::BatchResult batch = engine.RunBatch(requests, options);

  // stdout carries only thread-count-invariant data (the smoke test diffs
  // runs at different --threads); timing goes to stderr.
  std::printf("# batch of %zu queries, method=%s\n", requests.size(),
              abcs::QueryMethodName(engine.method()));
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const abcs::QueryRequest& r = requests[i];
    const abcs::QueryOutcome& o = batch.outcomes[i];
    const bool lower = !g.IsUpper(r.q);
    std::printf("%zu %s%u (%u,%u) |E|=%u touched=%llu\n", i,
                lower ? "l" : "u", lower ? r.q - g.NumUpper() : r.q, r.alpha,
                r.beta, o.num_edges,
                static_cast<unsigned long long>(o.touched_arcs));
  }
  std::printf("# nonempty=%llu total_edges=%llu touched_arcs=%llu\n",
              static_cast<unsigned long long>(batch.stats.num_nonempty),
              static_cast<unsigned long long>(batch.stats.total_edges),
              static_cast<unsigned long long>(batch.stats.touched_arcs));
  std::fprintf(stderr,
               "# threads=%u wall=%.3es qps=%.1f p50=%.3es p99=%.3es\n",
               batch.num_threads_used, batch.wall_seconds,
               batch.QueriesPerSecond(), batch.stats.p50_seconds,
               batch.stats.p99_seconds);
  return 0;
}

int CmdQuery(const QueryArgs& args) {
  if (!args.batch_path.empty()) return CmdQueryBatch(args);
  Session session;
  abcs::Status st = LoadSession(args, &session);
  if (!st.ok()) return Fail(st);
  const abcs::BipartiteGraph& g = *session.graph;
  const abcs::VertexId q = args.lower_side ? g.NumUpper() + args.q : args.q;
  if (q >= g.NumVertices()) {
    return Fail(abcs::Status::InvalidArgument("query vertex out of range"));
  }
  abcs::DeltaIndex owned;
  const abcs::DeltaIndex* index = GetIndex(session, &owned);
  abcs::Timer timer;
  const abcs::Subgraph c = index->QueryCommunity(q, args.alpha, args.beta);
  std::printf("# (%u,%u)-community of %s%u in %.2e s\n", args.alpha,
              args.beta, args.lower_side ? "l" : "u", args.q,
              timer.Seconds());
  PrintSubgraph(g, c);
  return 0;
}

int CmdScs(const QueryArgs& args) {
  Session session;
  abcs::Status st = LoadSession(args, &session);
  if (!st.ok()) return Fail(st);
  const abcs::BipartiteGraph& g = *session.graph;
  const abcs::VertexId q = args.lower_side ? g.NumUpper() + args.q : args.q;
  if (q >= g.NumVertices()) {
    return Fail(abcs::Status::InvalidArgument("query vertex out of range"));
  }
  abcs::DeltaIndex owned;
  const abcs::DeltaIndex* index = GetIndex(session, &owned);

  abcs::Timer timer;
  abcs::ScsResult result;
  abcs::ScsStats scs_stats;
  double retrieve_s = 0.0;
  if (args.algo == "baseline") {
    result = abcs::ScsBaseline(g, q, args.alpha, args.beta, {}, &scs_stats);
  } else {
    abcs::ScsAlgo algo;
    if (args.algo == "auto") {
      algo = abcs::ScsAlgo::kAuto;
    } else if (args.algo == "peel") {
      algo = abcs::ScsAlgo::kPeel;
    } else if (args.algo == "expand") {
      algo = abcs::ScsAlgo::kExpand;
    } else if (args.algo == "binary") {
      algo = abcs::ScsAlgo::kBinary;
    } else {
      return Fail(abcs::Status::InvalidArgument("unknown --algo"));
    }
    const abcs::Subgraph c = index->QueryCommunity(q, args.alpha, args.beta);
    retrieve_s = timer.Seconds();
    result = abcs::ScsQuery(g, c, q, args.alpha, args.beta, algo, {},
                            &scs_stats);
  }
  const double total_s = timer.Seconds();
  // Phase breakdown on stderr so a slow query is attributable to retrieval
  // vs extraction straight from logs; stdout stays deterministic.
  std::fprintf(stderr,
               "# scs phases: retrieve=%.3es scs=%.3es kernel=%s "
               "validations=%u incremental_probes=%u edges_processed=%llu\n",
               retrieve_s, total_s - retrieve_s,
               args.algo == "baseline" ? "baseline"
                                       : abcs::ScsAlgoName(scs_stats.algo_used),
               scs_stats.validations,
               scs_stats.incremental_probes,
               static_cast<unsigned long long>(scs_stats.edges_processed));
  if (!result.found) {
    std::printf("# no significant (%u,%u)-community for this vertex\n",
                args.alpha, args.beta);
    return 0;
  }
  std::printf("# significant (%u,%u)-community, f(R)=%g, %s, %.2e s\n",
              args.alpha, args.beta, result.significance, args.algo.c_str(),
              total_s);
  PrintSubgraph(g, result.community);
  return 0;
}

int CmdProfile(const QueryArgs& args) {
  Session session;
  abcs::Status st = LoadSession(args, &session);
  if (!st.ok()) return Fail(st);
  const abcs::BipartiteGraph& g = *session.graph;
  const abcs::VertexId q = args.lower_side ? g.NumUpper() + args.q : args.q;
  if (q >= g.NumVertices()) {
    return Fail(abcs::Status::InvalidArgument("query vertex out of range"));
  }
  abcs::DeltaIndex owned;
  const abcs::DeltaIndex* index = GetIndex(session, &owned);
  // For `profile`, alpha/beta play the role of grid bounds.
  const abcs::SignificanceProfile profile = abcs::ComputeSignificanceProfile(
      g, *index, q, args.alpha, args.beta);
  std::printf("# f(R) for %s%u; rows alpha=1..%u, cols beta=1..%u "
              "('-' = no community)\n",
              args.lower_side ? "l" : "u", args.q, args.alpha, args.beta);
  for (uint32_t a = 1; a <= args.alpha; ++a) {
    for (uint32_t b = 1; b <= args.beta; ++b) {
      if (profile.ExistsAt(a, b)) {
        std::printf("%8.3g", profile.At(a, b));
      } else {
        std::printf("%8s", "-");
      }
    }
    std::printf("\n");
  }
  return 0;
}

int CmdGen(const std::string& name, const std::string& out_path) {
  const abcs::DatasetSpec* spec = abcs::FindDataset(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown dataset %s; available:", name.c_str());
    for (const abcs::DatasetSpec& s : abcs::AllDatasets()) {
      std::fprintf(stderr, " %s", s.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  abcs::BipartiteGraph g;
  abcs::Status st = abcs::MakeDataset(*spec, &g);
  if (!st.ok()) return Fail(st);
  st = abcs::SaveEdgeList(g, out_path);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s: %u edges\n", out_path.c_str(), g.NumEdges());
  return 0;
}

// ---------------------------------------------------------------------------
// abcs serve
// ---------------------------------------------------------------------------

// The signal handler may only do an atomic store; the main thread polls the
// flag and performs the actual graceful drain from a normal context.
abcs::serve::Server* g_serve_instance = nullptr;

extern "C" void HandleServeSignal(int) {
  if (g_serve_instance != nullptr) g_serve_instance->RequestShutdown();
}

struct ServeArgs {
  std::string graph_path;
  std::string bundle_path;
  std::string port_file;
  abcs::serve::ServerOptions options;
};

bool ParseServeArgs(int argc, char** argv, ServeArgs* args) {
  std::vector<const char*> pos;
  long n = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bundle") == 0 && i + 1 < argc) {
      args->bundle_path = argv[++i];
    } else if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      args->options.host = argv[++i];
    } else if (std::strcmp(argv[i], "--port-file") == 0 && i + 1 < argc) {
      args->port_file = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if (!ParseFlagUint(argc, argv, &i, 65535, &n)) return false;
      args->options.port = static_cast<uint16_t>(n);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (!ParseFlagUint(argc, argv, &i, 1024, &n)) return false;
      args->options.num_threads = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--max-connections") == 0) {
      if (!ParseFlagUint(argc, argv, &i, 1 << 20, &n) || n == 0) return false;
      args->options.max_connections = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--max-queue") == 0) {
      if (!ParseFlagUint(argc, argv, &i, 1 << 24, &n) || n == 0) return false;
      args->options.max_queue = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      if (!ParseFlagUint(argc, argv, &i, kMaxMs, &n)) return false;
      args->options.default_deadline_ms = static_cast<uint32_t>(n);
    } else if (std::strcmp(argv[i], "--no-memo") == 0) {
      args->options.enable_memo = false;
    } else if (std::strcmp(argv[i], "--enable-updates") == 0) {
      args->options.enable_updates = true;
    } else if (std::strcmp(argv[i], "--update-queue") == 0) {
      if (!ParseFlagUint(argc, argv, &i, 1 << 24, &n) || n == 0) return false;
      args->options.update_queue = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--compact-path") == 0 && i + 1 < argc) {
      args->options.compact_path = argv[++i];
    } else if (std::strcmp(argv[i], "--compact-every") == 0) {
      if (!ParseFlagUint(argc, argv, &i, 1 << 24, &n)) return false;
      args->options.compact_every = static_cast<uint32_t>(n);
    } else if (std::strcmp(argv[i], "--write-deadline-ms") == 0) {
      if (!ParseFlagUint(argc, argv, &i, kMaxMs, &n)) return false;
      args->options.write_deadline_ms = static_cast<uint32_t>(n);
    } else if (std::strcmp(argv[i], "--max-out-kb") == 0) {
      if (!ParseFlagUint(argc, argv, &i, 1 << 22, &n) || n == 0) return false;
      args->options.max_output_buffer = static_cast<std::size_t>(n) << 10;
    } else if (std::strcmp(argv[i], "--watchdog-interval-ms") == 0) {
      if (!ParseFlagUint(argc, argv, &i, kMaxMs, &n)) return false;
      args->options.watchdog_interval_ms = static_cast<uint32_t>(n);
    } else if (std::strcmp(argv[i], "--sndbuf-kb") == 0) {
      if (!ParseFlagUint(argc, argv, &i, 1 << 20, &n) || n == 0) return false;
      args->options.so_sndbuf = static_cast<uint32_t>(n) << 10;
    } else if (std::strcmp(argv[i], "--fast-drain") == 0) {
      args->options.fast_drain = true;
    } else if (std::strcmp(argv[i], "--scrub-interval-ms") == 0) {
      if (!ParseFlagUint(argc, argv, &i, kMaxMs, &n) || n == 0) return false;
      args->options.scrub_interval_ms = static_cast<uint32_t>(n);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      return false;
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (!args->options.compact_path.empty() && !args->options.enable_updates) {
    return false;  // compaction is the update writer's job
  }
  if (args->options.scrub_interval_ms > 0 &&
      (args->bundle_path.empty() || args->options.enable_updates)) {
    // The scrubber verifies a bundle file and republishes via the static
    // recovery path; it cannot coexist with the update writer.
    return false;
  }
  if (args->bundle_path.empty()) {
    if (pos.size() != 1) return false;
    args->graph_path = pos[0];
  } else if (!pos.empty()) {
    return false;
  }
  return true;
}

int CmdServe(const ServeArgs& args) {
  QueryArgs qargs;
  qargs.graph_path = args.graph_path;
  qargs.bundle_path = args.bundle_path;
  Session session;
  abcs::Status st = LoadSession(qargs, &session);
  if (!st.ok()) return Fail(st);
  const abcs::BipartiteGraph& g = *session.graph;

  // The daemon serves every method, so it needs both indexes resident: the
  // bundle maps them zero-copy; a raw edge list pays one build at startup.
  abcs::DeltaIndex owned_delta;
  const abcs::DeltaIndex* delta = GetIndex(session, &owned_delta);
  abcs::BicoreIndex owned_bicore;
  const abcs::BicoreIndex* bicore = nullptr;
  if (session.bundle != nullptr) {
    bicore = &session.bundle->bicore_index();
  } else {
    owned_bicore = abcs::BicoreIndex::Build(g, nullptr, /*num_threads=*/0);
    bicore = &owned_bicore;
  }

  abcs::serve::ServerOptions options = args.options;
  options.bundle_path = args.bundle_path;
  if (session.bundle != nullptr) {
    // Seeds the update writer's maintained state without re-peeling.
    options.seed_decomp = &session.bundle->decomposition();
  }
  abcs::serve::Server server(g, delta, bicore, options);
  st = server.Start();
  if (!st.ok()) return Fail(st);

  g_serve_instance = &server;
  struct sigaction sa = {};
  sa.sa_handler = HandleServeSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  if (!args.port_file.empty()) {
    std::ofstream out(args.port_file, std::ios::trunc);
    out << server.port() << "\n";
    if (!out) {
      server.Shutdown();
      return Fail(abcs::Status::IOError("cannot write " + args.port_file));
    }
  }
  std::fprintf(stderr,
               "# serving %s:%u (|E|=%u, memo=%s, updates=%s); SIGTERM "
               "drains\n",
               options.host.c_str(), server.port(), g.NumEdges(),
               options.enable_memo ? "on" : "off",
               options.enable_updates ? "on" : "off");

  server.WaitForShutdownRequest();
  server.Shutdown();
  const abcs::serve::ServeStats s = server.Stats();
  std::fprintf(stderr,
               "# drained: conns=%llu rejected=%llu requests=%llu ok=%llu "
               "errors=%llu memo_hits=%llu deadline=%llu stuck_cancelled=%llu "
               "overload=%llu protocol=%llu slow_dropped=%llu "
               "health_probes=%llu queued_at_shutdown=%llu\n",
               static_cast<unsigned long long>(s.connections_accepted),
               static_cast<unsigned long long>(s.connections_rejected),
               static_cast<unsigned long long>(s.requests),
               static_cast<unsigned long long>(s.responses_ok),
               static_cast<unsigned long long>(s.responses_error),
               static_cast<unsigned long long>(s.memo_hits),
               static_cast<unsigned long long>(s.deadline_expired),
               static_cast<unsigned long long>(s.stuck_cancelled),
               static_cast<unsigned long long>(s.overloaded),
               static_cast<unsigned long long>(s.protocol_errors),
               static_cast<unsigned long long>(s.slow_client_dropped),
               static_cast<unsigned long long>(s.health_probes),
               static_cast<unsigned long long>(s.drained_tasks));
  if (options.scrub_interval_ms > 0) {
    std::fprintf(stderr,
                 "# scrub: passes=%llu corruptions=%llu recoveries=%llu\n",
                 static_cast<unsigned long long>(s.scrub_passes),
                 static_cast<unsigned long long>(s.scrub_corruptions),
                 static_cast<unsigned long long>(s.scrub_recoveries));
  }
  if (options.enable_updates) {
    std::fprintf(stderr,
                 "# updates: applied=%llu conflicts=%llu epochs=%llu "
                 "compactions=%llu overflows=%llu final_epoch=%llu\n",
                 static_cast<unsigned long long>(s.updates_applied),
                 static_cast<unsigned long long>(s.update_conflicts),
                 static_cast<unsigned long long>(s.epochs_published),
                 static_cast<unsigned long long>(s.compactions),
                 static_cast<unsigned long long>(s.update_overflows),
                 static_cast<unsigned long long>(server.snapshots().Epoch()));
  }
  g_serve_instance = nullptr;
  return 0;
}

// ---------------------------------------------------------------------------
// abcs client
// ---------------------------------------------------------------------------

struct ClientArgs {
  std::string host = "127.0.0.1";
  long port = -1;
  bool ping = false;
  bool health = false;
  abcs::serve::WireMethod method = abcs::serve::WireMethod::kDelta;
  bool lower_side = false;
  uint32_t deadline_ms = 0;
  std::string batch_path;
  unsigned connections = 0;  ///< nonzero = soak mode
  double duration_s = 0.0;
  uint32_t q = 0, alpha = 0, beta = 0;
  bool single = false;
  /// Transport knobs, forwarded into ClientOptions for every mode.
  abcs::serve::ClientOptions transport;
  /// Chaos probe: pipeline this many copies of the single query, hold
  /// without reading for hold_ms, then drain — exercises the server's
  /// slow-client shedding.
  unsigned flood = 0;
  uint32_t hold_ms = 2000;
  struct UpdateSpec {
    abcs::serve::UpdateOp op = abcs::serve::UpdateOp::kCommit;
    uint32_t u = 0, v = 0;
    double weight = 0.0;
  };
  std::vector<UpdateSpec> updates;  ///< applied in command-line order
  std::string update_file;
};

bool ParseClientArgs(int argc, char** argv, ClientArgs* args) {
  std::vector<const char*> pos;
  long n = 0;
  // `--insert u v w`, `--remove u v`, `--reweight u v w` (layer-local).
  auto parse_update = [&](int* i, abcs::serve::UpdateOp op) {
    ClientArgs::UpdateSpec spec;
    spec.op = op;
    long u = 0, v = 0;
    if (!ParseFlagUint(argc, argv, i, kMaxU32, &u) ||
        !ParseFlagUint(argc, argv, i, kMaxU32, &v)) {
      return false;
    }
    if (op != abcs::serve::UpdateOp::kRemoveEdge &&
        !ParseFlagReal(argc, argv, i, &spec.weight)) {
      return false;
    }
    spec.u = static_cast<uint32_t>(u);
    spec.v = static_cast<uint32_t>(v);
    args->updates.push_back(spec);
    return true;
  };
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--host") == 0 && i + 1 < argc) {
      args->host = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if (!ParseFlagUint(argc, argv, &i, 65535, &n) || n == 0) return false;
      args->port = n;
    } else if (std::strcmp(argv[i], "--ping") == 0) {
      args->ping = true;
    } else if (std::strcmp(argv[i], "--health") == 0) {
      args->health = true;
    } else if (std::strcmp(argv[i], "--connect-timeout-ms") == 0) {
      if (!ParseFlagUint(argc, argv, &i, kMaxMs, &n)) return false;
      args->transport.connect_timeout_ms = static_cast<uint32_t>(n);
    } else if (std::strcmp(argv[i], "--io-timeout-ms") == 0) {
      if (!ParseFlagUint(argc, argv, &i, kMaxMs, &n)) return false;
      args->transport.io_timeout_ms = static_cast<uint32_t>(n);
    } else if (std::strcmp(argv[i], "--retries") == 0) {
      if (!ParseFlagUint(argc, argv, &i, 1024, &n) || n == 0) return false;
      args->transport.max_attempts = static_cast<uint32_t>(n);
    } else if (std::strcmp(argv[i], "--rcvbuf-kb") == 0) {
      if (!ParseFlagUint(argc, argv, &i, 1 << 20, &n) || n == 0) return false;
      args->transport.so_rcvbuf = static_cast<uint32_t>(n) << 10;
    } else if (std::strcmp(argv[i], "--flood") == 0) {
      if (!ParseFlagUint(argc, argv, &i, 1 << 24, &n) || n == 0) return false;
      args->flood = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--hold-ms") == 0) {
      if (!ParseFlagUint(argc, argv, &i, kMaxMs, &n)) return false;
      args->hold_ms = static_cast<uint32_t>(n);
    } else if (std::strcmp(argv[i], "--method") == 0 && i + 1 < argc) {
      if (!abcs::serve::ParseWireMethod(argv[++i], &args->method)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--side") == 0) {
      if (i + 1 >= argc || !ParseSide(argv[++i], &args->lower_side)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      if (!ParseFlagUint(argc, argv, &i, kMaxMs, &n)) return false;
      args->deadline_ms = static_cast<uint32_t>(n);
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      args->batch_path = argv[++i];
    } else if (std::strcmp(argv[i], "--connections") == 0) {
      if (!ParseFlagUint(argc, argv, &i, 1024, &n) || n == 0) return false;
      args->connections = static_cast<unsigned>(n);
    } else if (std::strcmp(argv[i], "--duration") == 0) {
      // Positive and at most a day: the soak sleeps for this long.
      if (!ParseFlagReal(argc, argv, &i, &args->duration_s) ||
          args->duration_s <= 0 || args->duration_s > 86400) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--insert") == 0) {
      if (!parse_update(&i, abcs::serve::UpdateOp::kInsertEdge)) return false;
    } else if (std::strcmp(argv[i], "--remove") == 0) {
      if (!parse_update(&i, abcs::serve::UpdateOp::kRemoveEdge)) return false;
    } else if (std::strcmp(argv[i], "--reweight") == 0) {
      if (!parse_update(&i, abcs::serve::UpdateOp::kReweightEdge)) {
        return false;
      }
    } else if (std::strcmp(argv[i], "--commit") == 0) {
      args->updates.push_back(ClientArgs::UpdateSpec{});  // kCommit
    } else if (std::strcmp(argv[i], "--update-file") == 0 && i + 1 < argc) {
      args->update_file = argv[++i];
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      return false;
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (args->port < 0) return false;  // --port is mandatory
  const bool update_mode = !args->updates.empty() || !args->update_file.empty();
  if (args->ping || args->health) {
    return !(args->ping && args->health) && pos.empty() &&
           args->batch_path.empty() && !update_mode && args->flood == 0;
  }
  if (update_mode) {
    // One mode per invocation; a file and inline ops would have an
    // ambiguous ordering.
    return pos.empty() && args->batch_path.empty() && args->flood == 0 &&
           (args->updates.empty() || args->update_file.empty());
  }
  if (!args->batch_path.empty()) {
    if (!pos.empty() || args->flood != 0) return false;
    // Soak needs both knobs; a lone --connections or --duration is a typo.
    if ((args->connections != 0) != (args->duration_s > 0)) return false;
    return true;
  }
  if (pos.size() != 3 || args->connections != 0 || args->duration_s > 0) {
    return false;
  }
  long q = 0, alpha = 0, beta = 0;
  if (!ParseUint(pos[0], kMaxU32, &q) ||
      !ParseUint(pos[1], kMaxU32, &alpha) ||
      !ParseUint(pos[2], kMaxU32, &beta)) {
    return false;
  }
  args->single = true;
  args->q = static_cast<uint32_t>(q);
  args->alpha = static_cast<uint32_t>(alpha);
  args->beta = static_cast<uint32_t>(beta);
  return args->alpha >= 1 && args->beta >= 1;
}

// Client-side batch parse: same `q alpha beta [u|l]` lines as the CLI's
// batch runner, but kept layer-local — the server owns the id space and
// range checks (kInvalidVertex).
abcs::Status ParseClientBatch(const std::string& path, const ClientArgs& args,
                              std::vector<abcs::serve::WireRequest>* out) {
  std::ifstream in(path);
  if (!in) return abcs::Status::NotFound("cannot open batch file " + path);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#' ||
        line[first] == '%') {
      continue;
    }
    unsigned long id = 0, alpha = 0, beta = 0;
    char side = args.lower_side ? 'l' : 'u';
    char junk[2];
    const int got = std::sscanf(line.c_str(), "%lu %lu %lu %c %1s", &id,
                                &alpha, &beta, &side, junk);
    if (got < 3 || got > 4 || alpha == 0 || beta == 0 ||
        alpha > 0xffffffffUL || beta > 0xffffffffUL ||
        (side != 'u' && side != 'l')) {
      return abcs::Status::InvalidArgument(
          path + ":" + std::to_string(lineno) + ": expected `q alpha beta " +
          "[u|l]`, got `" + line + "`");
    }
    abcs::serve::WireRequest req;
    req.method = args.method;
    req.lower_side = (side == 'l');
    req.q = static_cast<uint32_t>(id);
    req.alpha = static_cast<uint32_t>(alpha);
    req.beta = static_cast<uint32_t>(beta);
    req.deadline_ms = args.deadline_ms;
    out->push_back(req);
  }
  return abcs::Status::OK();
}

const char* ClientKernelName(uint8_t kernel) {
  switch (kernel) {
    case 1:
      return "peel";
    case 2:
      return "expand";
    case 3:
      return "binary";
    default:
      return "auto";
  }
}

// Prints one response line in the `abcs query --batch` stdout format (minus
// the touched-arcs counters, which the wire protocol deliberately omits).
void PrintClientResponse(std::size_t i, const abcs::serve::WireRequest& req,
                         const abcs::serve::WireResponse& resp) {
  if (resp.status != abcs::serve::WireStatus::kOk) {
    std::printf("%zu %s%u (%u,%u) error=%s\n", i, req.lower_side ? "l" : "u",
                req.q, req.alpha, req.beta,
                abcs::serve::WireStatusName(resp.status));
    return;
  }
  if (abcs::serve::IsScsMethod(req.method)) {
    if (resp.found) {
      std::printf("%zu %s%u (%u,%u) |C|=%u |R|=%u f=%g kernel=%s\n", i,
                  req.lower_side ? "l" : "u", req.q, req.alpha, req.beta,
                  resp.num_edges, resp.result_edges, resp.significance,
                  ClientKernelName(resp.kernel));
    } else {
      std::printf("%zu %s%u (%u,%u) |C|=%u none\n", i,
                  req.lower_side ? "l" : "u", req.q, req.alpha, req.beta,
                  resp.num_edges);
    }
  } else {
    std::printf("%zu %s%u (%u,%u) |E|=%u\n", i, req.lower_side ? "l" : "u",
                req.q, req.alpha, req.beta, resp.num_edges);
  }
}

// Prints transport telemetry when anything eventful happened (stderr, so
// stdout stays bit-comparable with the offline batch runner).
void PrintClientStats(const abcs::serve::Client& client) {
  const abcs::serve::ClientStats& cs = client.stats();
  if (cs.reconnects == 0 && cs.retries == 0 && cs.timeouts == 0) return;
  std::fprintf(stderr, "# client: reconnects=%llu retries=%llu timeouts=%llu\n",
               static_cast<unsigned long long>(cs.reconnects),
               static_cast<unsigned long long>(cs.retries),
               static_cast<unsigned long long>(cs.timeouts));
}

int RunClientBatch(const ClientArgs& args,
                   const std::vector<abcs::serve::WireRequest>& requests) {
  abcs::serve::Client client(args.transport);
  abcs::Status st = client.Connect(args.host, static_cast<uint16_t>(args.port));
  if (!st.ok()) return Fail(st);
  // One pipelined burst; CallAll resumes the unanswered suffix across
  // reconnects and the server's sequencer guarantees request order.
  std::vector<abcs::serve::WireResponse> responses;
  st = client.CallAll(requests, &responses);
  PrintClientStats(client);
  if (!st.ok()) return Fail(st);

  const bool scs = abcs::serve::IsScsMethod(args.method);
  if (scs) {
    // Matches RunScsBatchQueries' header: algo strips the "scs-" prefix.
    std::printf("# batch of %zu scs queries, algo=%s\n", requests.size(),
                abcs::serve::WireMethodName(args.method) + 4);
  } else {
    std::printf("# batch of %zu queries, method=%s\n", requests.size(),
                abcs::serve::WireMethodName(args.method));
  }
  uint64_t errors = 0, nonempty = 0, total_edges = 0;
  uint64_t found = 0, total_c = 0, total_r = 0, memo_hits = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const abcs::serve::WireResponse& resp = responses[i];
    PrintClientResponse(i, requests[i], resp);
    if (resp.status != abcs::serve::WireStatus::kOk) {
      ++errors;
      continue;
    }
    memo_hits += resp.memo_hit ? 1 : 0;
    if (scs) {
      found += resp.found ? 1 : 0;
      total_c += resp.num_edges;
      total_r += resp.result_edges;
    } else {
      nonempty += resp.found ? 1 : 0;
      total_edges += resp.num_edges;
    }
  }
  if (scs) {
    std::printf("# found=%llu total_C=%llu total_R=%llu\n",
                static_cast<unsigned long long>(found),
                static_cast<unsigned long long>(total_c),
                static_cast<unsigned long long>(total_r));
  } else {
    std::printf("# nonempty=%llu total_edges=%llu\n",
                static_cast<unsigned long long>(nonempty),
                static_cast<unsigned long long>(total_edges));
  }
  std::fprintf(stderr, "# errors=%llu memo_hits=%llu\n",
               static_cast<unsigned long long>(errors),
               static_cast<unsigned long long>(memo_hits));
  return errors == 0 ? 0 : 1;
}

int RunClientSoak(const ClientArgs& args,
                  const std::vector<abcs::serve::WireRequest>& requests) {
  std::atomic<uint64_t> total_ok{0}, total_errors{0}, memo_hits{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(args.connections);
  for (unsigned c = 0; c < args.connections; ++c) {
    threads.emplace_back([&, c] {
      abcs::serve::Client client(args.transport);
      if (!client.Connect(args.host, static_cast<uint16_t>(args.port)).ok()) {
        total_errors.fetch_add(1);
        return;
      }
      // Offset each connection's start so they don't march in lockstep
      // over the same keys (more realistic memo + steal pressure).
      std::size_t i = (c * 7919) % requests.size();
      while (!stop.load(std::memory_order_relaxed)) {
        abcs::serve::WireResponse resp;
        const abcs::Status st = client.Call(requests[i], &resp);
        if (!st.ok() || resp.status != abcs::serve::WireStatus::kOk) {
          total_errors.fetch_add(1);
        } else {
          total_ok.fetch_add(1);
          memo_hits.fetch_add(resp.memo_hit ? 1 : 0);
        }
        i = (i + 1) % requests.size();
      }
    });
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long>(args.duration_s * 1000)));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  std::printf("# soak connections=%u duration=%.1fs ok=%llu errors=%llu "
              "memo_hits=%llu\n",
              args.connections, args.duration_s,
              static_cast<unsigned long long>(total_ok.load()),
              static_cast<unsigned long long>(total_errors.load()),
              static_cast<unsigned long long>(memo_hits.load()));
  return total_errors.load() == 0 ? 0 : 1;
}

// Update-file lines, one op each: `i u v w`, `r u v`, `w u v w`, `c`
// (layer-local ids; % and # comment lines ignored).
abcs::Status ParseUpdateFile(const std::string& path,
                             std::vector<ClientArgs::UpdateSpec>* out) {
  std::ifstream in(path);
  if (!in) return abcs::Status::NotFound("cannot open update file " + path);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#' ||
        line[first] == '%') {
      continue;
    }
    ClientArgs::UpdateSpec s;
    char tag = 0;
    char junk[2];
    unsigned long u = 0, v = 0;
    double w = 0.0;
    bool ok = false;
    switch (line[first]) {
      case 'i':
      case 'w':
        ok = std::sscanf(line.c_str(), " %c %lu %lu %lf %1s", &tag, &u, &v,
                         &w, junk) == 4;
        s.op = line[first] == 'i' ? abcs::serve::UpdateOp::kInsertEdge
                                  : abcs::serve::UpdateOp::kReweightEdge;
        break;
      case 'r':
        ok = std::sscanf(line.c_str(), " %c %lu %lu %1s", &tag, &u, &v,
                         junk) == 3;
        s.op = abcs::serve::UpdateOp::kRemoveEdge;
        break;
      case 'c':
        ok = std::sscanf(line.c_str(), " %c %1s", &tag, junk) == 1;
        s.op = abcs::serve::UpdateOp::kCommit;
        break;
      default:
        break;
    }
    if (!ok || u > 0xffffffffUL || v > 0xffffffffUL) {
      return abcs::Status::InvalidArgument(
          path + ":" + std::to_string(lineno) +
          ": expected `i u v w`, `r u v`, `w u v w` or `c`, got `" + line +
          "`");
    }
    s.u = static_cast<uint32_t>(u);
    s.v = static_cast<uint32_t>(v);
    s.weight = w;
    out->push_back(s);
  }
  return abcs::Status::OK();
}

int RunClientUpdates(const ClientArgs& args,
                     const std::vector<ClientArgs::UpdateSpec>& updates) {
  abcs::serve::Client client(args.transport);
  abcs::Status st = client.Connect(args.host, static_cast<uint16_t>(args.port));
  if (!st.ok()) return Fail(st);
  int failures = 0;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const ClientArgs::UpdateSpec& s = updates[i];
    abcs::serve::WireResponse resp;
    st = client.Update(s.op, s.u, s.v, s.weight, &resp);
    if (!st.ok()) return Fail(st);
    if (s.op == abcs::serve::UpdateOp::kCommit) {
      std::printf("%zu commit %s epoch=%llu\n", i,
                  abcs::serve::WireStatusName(resp.status),
                  static_cast<unsigned long long>(resp.epoch));
    } else if (s.op == abcs::serve::UpdateOp::kRemoveEdge) {
      std::printf("%zu %s %u %u %s\n", i, abcs::serve::UpdateOpName(s.op),
                  s.u, s.v, abcs::serve::WireStatusName(resp.status));
    } else {
      std::printf("%zu %s %u %u %g %s\n", i, abcs::serve::UpdateOpName(s.op),
                  s.u, s.v, s.weight,
                  abcs::serve::WireStatusName(resp.status));
    }
    if (resp.status != abcs::serve::WireStatus::kOk) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

// Slow-client chaos probe: pipeline a burst, then deliberately stop
// reading for hold_ms so responses pile up in the server's bounded
// per-connection buffer (and the kernel windows). A healthy server sheds
// this connection instead of stalling a worker; both outcomes print and
// exit 0 — the server's slow_dropped counter is the assertion surface.
int RunClientFlood(const ClientArgs& args) {
  abcs::serve::WireRequest req;
  req.method = args.method;
  req.lower_side = args.lower_side;
  req.q = args.q;
  req.alpha = args.alpha;
  req.beta = args.beta;
  req.deadline_ms = args.deadline_ms;
  abcs::serve::Client client(args.transport);
  abcs::Status st = client.Connect(args.host, static_cast<uint16_t>(args.port));
  if (!st.ok()) return Fail(st);
  const std::vector<abcs::serve::WireRequest> burst(args.flood, req);
  st = client.SendAll(burst);
  if (st.ok()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(args.hold_ms));
    std::vector<abcs::serve::WireResponse> responses;
    st = client.ReceiveAll(burst.size(), &responses);
    if (st.ok()) {
      std::printf("# flood sent=%u held=%ums drained=%zu (not shed)\n",
                  args.flood, args.hold_ms, responses.size());
      return 0;
    }
  }
  std::printf("# flood sent=%u held=%ums shed: %s\n", args.flood, args.hold_ms,
              st.ToString().c_str());
  return 0;
}

int CmdClient(const ClientArgs& args) {
  if (args.ping) {
    abcs::serve::Client client(args.transport);
    abcs::Status st =
        client.Connect(args.host, static_cast<uint16_t>(args.port));
    uint64_t epoch = 0;
    if (st.ok()) st = client.Ping(&epoch);
    if (!st.ok()) return Fail(st);
    std::printf("pong epoch=%llu\n", static_cast<unsigned long long>(epoch));
    return 0;
  }
  if (args.health) {
    abcs::serve::Client client(args.transport);
    abcs::Status st =
        client.Connect(args.host, static_cast<uint16_t>(args.port));
    abcs::serve::WireHealth h;
    if (st.ok()) st = client.Health(&h);
    if (!st.ok()) return Fail(st);
    std::printf(
        "health state=%s queue=%u inflight=%u conns=%u slow_dropped=%u "
        "epoch=%llu memo_hits=%llu requests=%llu\n",
        abcs::serve::HealthStateName(h.state), h.queue_depth, h.inflight,
        h.connections, h.slow_client_dropped,
        static_cast<unsigned long long>(h.epoch),
        static_cast<unsigned long long>(h.memo_hits),
        static_cast<unsigned long long>(h.requests));
    // Distinct exit codes for probe scripting: 0 = live, 2 = reachable
    // but degraded/draining, 1 = unreachable (the Fail path above).
    return h.state == abcs::serve::HealthState::kLive ? 0 : 2;
  }
  if (!args.updates.empty() || !args.update_file.empty()) {
    std::vector<ClientArgs::UpdateSpec> updates = args.updates;
    if (!args.update_file.empty()) {
      const abcs::Status st = ParseUpdateFile(args.update_file, &updates);
      if (!st.ok()) return Fail(st);
    }
    if (updates.empty()) {
      return Fail(abcs::Status::InvalidArgument("empty update file"));
    }
    return RunClientUpdates(args, updates);
  }
  if (!args.batch_path.empty()) {
    std::vector<abcs::serve::WireRequest> requests;
    const abcs::Status st = ParseClientBatch(args.batch_path, args, &requests);
    if (!st.ok()) return Fail(st);
    if (requests.empty()) {
      return Fail(abcs::Status::InvalidArgument("empty batch file"));
    }
    return args.connections > 0 ? RunClientSoak(args, requests)
                                : RunClientBatch(args, requests);
  }
  if (args.flood > 0) return RunClientFlood(args);
  abcs::serve::WireRequest req;
  req.method = args.method;
  req.lower_side = args.lower_side;
  req.q = args.q;
  req.alpha = args.alpha;
  req.beta = args.beta;
  req.deadline_ms = args.deadline_ms;
  abcs::serve::Client client(args.transport);
  abcs::Status st = client.Connect(args.host, static_cast<uint16_t>(args.port));
  if (!st.ok()) return Fail(st);
  abcs::serve::WireResponse resp;
  st = client.Call(req, &resp);
  PrintClientStats(client);
  if (!st.ok()) return Fail(st);
  PrintClientResponse(0, req, resp);
  return resp.status == abcs::serve::WireStatus::kOk ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Crash/short-write fault points for the recovery tests; a no-op branch
  // unless ABCS_FAULT_INJECT is set.
  abcs::FaultInjector::Instance().ArmFromEnv();
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "stats" && argc == 3) return CmdStats(argv[2]);
  if (cmd == "index" || cmd == "build") {
    // `abcs index <graph> <bundle-out>` or `abcs index <graph> --out FILE`,
    // optionally `--compress[=none|fast|max]` (bare --compress = max).
    std::string graph_path, out_path;
    abcs::BundleCompression compression = abcs::BundleCompression::kNone;
    bool ok = true;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
        ok = ok && out_path.empty();
        out_path = argv[++i];
      } else if (std::strcmp(argv[i], "--compress") == 0) {
        compression = abcs::BundleCompression::kMax;
      } else if (std::strncmp(argv[i], "--compress=", 11) == 0) {
        const std::string level = argv[i] + 11;
        if (level == "none") {
          compression = abcs::BundleCompression::kNone;
        } else if (level == "fast") {
          compression = abcs::BundleCompression::kFast;
        } else if (level == "max") {
          compression = abcs::BundleCompression::kMax;
        } else {
          ok = false;
        }
      } else if (std::strncmp(argv[i], "--", 2) == 0) {
        ok = false;
      } else if (graph_path.empty()) {
        graph_path = argv[i];
      } else if (out_path.empty()) {
        out_path = argv[i];
      } else {
        ok = false;
      }
    }
    if (!ok || graph_path.empty() || out_path.empty()) return Usage();
    return CmdIndex(graph_path, out_path, compression);
  }
  if (cmd == "inspect" && argc == 3) return CmdInspect(argv[2]);
  if (cmd == "gen" && argc == 4) return CmdGen(argv[2], argv[3]);
  if (cmd == "serve") {
    ServeArgs args;
    if (!ParseServeArgs(argc, argv, &args)) return Usage();
    return CmdServe(args);
  }
  if (cmd == "client") {
    ClientArgs args;
    if (!ParseClientArgs(argc, argv, &args)) return Usage();
    return CmdClient(args);
  }
  if (cmd == "query" || cmd == "scs" || cmd == "profile") {
    QueryArgs args;
    if (!ParseQueryArgs(argc, argv, &args)) return Usage();
    // Batch mode (and its flags) exist only for `query`; --algo only for
    // `scs` — a silently-ignored flag would mask a mistyped command.
    if (cmd != "query" && (!args.batch_path.empty() || args.batch_only_flags)) {
      return Usage();
    }
    if (cmd != "scs" && args.algo_set) return Usage();
    if (cmd == "query") return CmdQuery(args);
    if (cmd == "scs") return CmdScs(args);
    return CmdProfile(args);
  }
  return Usage();
}
