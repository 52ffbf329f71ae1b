// abcs command-line tool: build/persist the index bundle, run community
// queries on weighted bipartite edge lists, and serve or query them over TCP.
// `abcs` with no arguments prints the usage text (Usage() below), the one
// list of commands and flags.
//
// Input formats:
//   <graph>      whitespace edge list `u v [w]`, 0-based layer-local ids;
//                lines starting with % or # are ignored.
//   batch file   one query per line, `q alpha beta [u|l]`: layer-local q,
//                the trailing letter overrides the batch-wide --side.
//   update file  one op per line: `i u v w`, `r u v`, `w u v w` or `c`.
//
// Batch and update files skip blank, % and # lines and name `file:line` in
// every error. Every number on the command line and in batch and update
// files is a whole base-10 token checked against its range (ids and α/β
// fit u32, ports fit u16, ...); weights and durations are whole finite
// decimals. A bad flag or value prints usage (exit 2); a bad file line
// fails with exit 1.

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "abcore/degeneracy.h"
#include "abcore/peeling.h"
#include "common/timer.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "core/profile.h"
#include "core/query_engine.h"
#include "core/scs_auto.h"
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
               "  abcs profile <graph> <q> <max-alpha> <max-beta> "
               "[--index FILE] [--side u|l]\n"
               "      (scs and profile take --bundle FILE in place of "
               "<graph> too)\n"
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

/// `text` must be a whole finite decimal (weights, durations).
bool ParseReal(const char* text, double* out) {
  char* end = nullptr;
  const double x = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(x)) return false;
  *out = x;
  return true;
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

/// A run of words: the argv values after a flag, or a file line's fields.
using Values = const char* const*;

/// `q alpha beta` (layer-local q): each fits u32 and α, β ≥ 1. Shared by
/// the query positionals and every batch-file line.
bool ParseQab(Values words, uint32_t* q, uint32_t* alpha, uint32_t* beta) {
  long n[3] = {0, 0, 0};
  for (int k = 0; k < 3; ++k) {
    if (!ParseUint(words[k], kMaxU32, &n[k])) return false;
  }
  *q = static_cast<uint32_t>(n[0]);
  *alpha = static_cast<uint32_t>(n[1]);
  *beta = static_cast<uint32_t>(n[2]);
  return *alpha >= 1 && *beta >= 1;
}

/// The extraction kernels `--algo` and the `scs-*` methods name.
constexpr abcs::ScsAlgo kScsAlgos[] = {
    abcs::ScsAlgo::kAuto, abcs::ScsAlgo::kPeel, abcs::ScsAlgo::kExpand,
    abcs::ScsAlgo::kBinary};

bool ParseScsAlgo(const char* name, abcs::ScsAlgo* out) {
  for (const abcs::ScsAlgo algo : kScsAlgos) {
    if (std::strcmp(name, abcs::ScsAlgoName(algo)) == 0) {
      *out = algo;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Flag tables
// ---------------------------------------------------------------------------

/// One row of a command's flag table: `name` consumes the `arity` argv
/// words after it and hands them to `set`, which returns false for a bad
/// value.
struct Flag {
  const char* name;
  int arity;
  std::function<bool(Values)> set;
};

/// The one argv walker. Flags may come in any order and are looked up in
/// `flags`; every word that does not start with `--` is collected in `pos`.
/// Fails on an unknown flag, a missing value or a value `set` refuses.
bool ParseFlags(int argc, char** argv, const std::vector<Flag>& flags,
                std::vector<const char*>* pos) {
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      pos->push_back(argv[i]);
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (std::strcmp(argv[i], f.name) == 0) flag = &f;
    }
    if (flag == nullptr || i + flag->arity >= argc ||
        !flag->set(argv + i + 1)) {
      return false;
    }
    i += flag->arity;
  }
  return true;
}

Flag StringFlag(const char* name, std::string* out) {
  auto set = [out](Values v) {
    *out = v[0];
    return true;
  };
  return {name, 1, set};
}

/// A value-less flag that stores `value`.
template <typename T>
Flag SetFlag(const char* name, T* out, T value) {
  auto set = [out, value](Values) {
    *out = value;
    return true;
  };
  return {name, 0, set};
}

/// A whole number in [min, max], stored shifted left by `shift` (10 turns
/// the KiB flags into bytes).
template <typename T>
Flag UintFlag(const char* name, long min, long max, T* out, int shift = 0) {
  auto set = [=](Values v) {
    long n = 0;
    if (!ParseUint(v[0], max, &n) || n < min) return false;
    *out = static_cast<T>(n << shift);
    return true;
  };
  return {name, 1, set};
}

Flag SideFlag(bool* lower) {
  auto set = [lower](Values v) { return ParseSide(v[0], lower); };
  return {"--side", 1, set};
}

// ---------------------------------------------------------------------------
// abcs query / scs / profile
// ---------------------------------------------------------------------------

struct QueryArgs {
  std::string graph_path;
  std::string bundle_path;  ///< --bundle: self-contained, no graph file
  uint32_t q = 0, alpha = 0, beta = 0;
  std::string index_path;
  bool lower_side = false;
  abcs::ScsAlgo algo = abcs::ScsAlgo::kAuto;
  bool baseline = false;  ///< `scs --algo baseline`
  std::string batch_path;
  abcs::serve::WireMethod method = abcs::serve::WireMethod::kDelta;
  unsigned num_threads = 1;
};

/// `cmd` is query, scs or profile; each accepts only its own flags.
bool ParseQueryArgs(const std::string& cmd, int argc, char** argv,
                    QueryArgs* args) {
  std::vector<Flag> flags = {StringFlag("--index", &args->index_path),
                             StringFlag("--bundle", &args->bundle_path),
                             SideFlag(&args->lower_side)};
  bool batch_flags = false;  ///< --threads or --method was given
  auto threads = [&](Values v) {
    batch_flags = true;
    long n = 0;  // 0 = hardware concurrency
    if (!ParseUint(v[0], 1024, &n)) return false;
    args->num_threads = static_cast<unsigned>(n);
    return true;
  };
  auto method = [&](Values v) {
    batch_flags = true;
    return abcs::serve::ParseWireMethod(v[0], &args->method);
  };
  auto algo = [args](Values v) {
    args->baseline = std::strcmp(v[0], "baseline") == 0;
    return args->baseline || ParseScsAlgo(v[0], &args->algo);
  };
  if (cmd == "query") {
    flags.push_back(StringFlag("--batch", &args->batch_path));
    flags.push_back({"--threads", 1, threads});
    flags.push_back({"--method", 1, method});
  } else if (cmd == "scs") {
    flags.push_back({"--algo", 1, algo});
  }
  // With --bundle the graph positional disappears (the bundle embeds it),
  // and with --batch the q/alpha/beta positionals disappear.
  std::vector<const char*> pos;
  if (!ParseFlags(argc, argv, flags, &pos)) return false;
  // A bundle embeds both graph and index; combining it with either source
  // would leave two contradictory truths about what is being queried.
  if (!args->bundle_path.empty() && !args->index_path.empty()) return false;
  const bool batch = !args->batch_path.empty();
  // --threads/--method only mean something in batch mode; rejecting them
  // elsewhere keeps "asked for a method" distinguishable from "served by
  // it".
  if (batch_flags && !batch) return false;
  const std::size_t k = args->bundle_path.empty() ? 1 : 0;
  if (pos.size() != k + (batch ? 0 : 3)) return false;
  if (k == 1) args->graph_path = pos[0];
  return batch || ParseQab(pos.data() + k, &args->q, &args->alpha, &args->beta);
}

/// Unified id of layer-local `q`, or kInvalidVertex when q lies outside
/// its layer.
abcs::VertexId UnifiedId(const abcs::BipartiteGraph& g, uint32_t q,
                         bool lower) {
  if (q >= (lower ? g.NumLower() : g.NumUpper())) return abcs::kInvalidVertex;
  return lower ? g.NumUpper() + q : q;
}

/// What a query-like command operates on: the graph (edge-list file or the
/// one embedded in an opened bundle) plus the bundle, when one backs the
/// session — either via --bundle or via --index. Without a bundle, the
/// decomposition and the indexes are built on first use, all from one
/// decomposition computed on every core.
struct Session {
  abcs::BipartiteGraph graph_storage;
  std::unique_ptr<abcs::IndexBundle> bundle;
  const abcs::BipartiteGraph* graph = nullptr;
  std::optional<abcs::BicoreDecomposition> decomp;
  std::optional<abcs::DeltaIndex> delta;
  std::optional<abcs::BicoreIndex> bicore;
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

/// LoadSession for the single-query commands, plus q's unified id.
abcs::Status LoadQuery(const QueryArgs& args, Session* s, abcs::VertexId* q) {
  ABCS_RETURN_NOT_OK(LoadSession(args, s));
  *q = UnifiedId(*s->graph, args.q, args.lower_side);
  if (*q == abcs::kInvalidVertex) {
    return abcs::Status::InvalidArgument("query vertex out of range");
  }
  return abcs::Status::OK();
}

/// The session's decomposition: the bundle's, or the edge list's computed
/// once on every core (as `abcs index` does).
const abcs::BicoreDecomposition& GetDecomposition(Session* s) {
  if (s->bundle != nullptr) return s->bundle->decomposition();
  if (!s->decomp) {
    s->decomp = abcs::ComputeBicoreDecompositionParallel(*s->graph,
                                                         /*num_threads=*/0);
  }
  return *s->decomp;
}

/// The session's I_δ: the bundle's (zero-copy) or built from
/// GetDecomposition.
const abcs::DeltaIndex& GetDeltaIndex(Session* s) {
  if (s->bundle != nullptr) return s->bundle->delta_index();
  if (!s->delta) {
    s->delta = abcs::DeltaIndex::Build(*s->graph, &GetDecomposition(s));
  }
  return *s->delta;
}

/// The session's I_v, resolved as GetDeltaIndex resolves I_δ.
const abcs::BicoreIndex& GetBicoreIndex(Session* s) {
  if (s->bundle != nullptr) return s->bundle->bicore_index();
  if (!s->bicore) {
    s->bicore = abcs::BicoreIndex::Build(*s->graph, &GetDecomposition(s));
  }
  return *s->bicore;
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

/// Parses the words of one file line; returns nullptr for a good line,
/// else why it is bad.
using LineParser = std::function<const char*(const std::vector<const char*>&)>;

/// Reads `path` line by line and hands each line's whitespace-separated
/// words to `parse`, skipping blank lines and `#`/`%` comment lines. The
/// first line `parse` refuses fails the file with `path:line`, the reason
/// `parse` returned and the line itself.
abcs::Status ForEachLine(const std::string& path, const LineParser& parse) {
  std::ifstream in(path);
  if (!in) return abcs::Status::NotFound("cannot open " + path);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string buffer = line;
    std::vector<const char*> words;
    char* save = nullptr;
    for (char* w = strtok_r(buffer.data(), " \t\r\v\f", &save); w != nullptr;
         w = strtok_r(nullptr, " \t\r\v\f", &save)) {
      words.push_back(w);
    }
    if (words.empty() || words[0][0] == '#' || words[0][0] == '%') continue;
    if (const char* why = parse(words)) {
      const std::string at = path + ":" + std::to_string(lineno) + ": ";
      return abcs::Status::InvalidArgument(at + why + ", got `" + line + "`");
    }
  }
  return abcs::Status::OK();
}

/// One batch-file query, layer-local.
struct BatchQuery {
  uint32_t q = 0, alpha = 0, beta = 0;
  bool lower = false;
};

/// The one batch-file parser, for `abcs query --batch` and `abcs client
/// --batch`: `q alpha beta [u|l]` lines; `default_lower` applies when a
/// line has no side letter. With `g`, q must also lie inside its layer;
/// without (the client), the daemon range-checks it.
abcs::Status ParseBatchFile(const std::string& path, bool default_lower,
                            const abcs::BipartiteGraph* g,
                            std::vector<BatchQuery>* out) {
  return ForEachLine(path, [&](const std::vector<const char*>& words) {
    BatchQuery b;
    b.lower = default_lower;
    if ((words.size() != 3 && words.size() != 4) ||
        !ParseQab(words.data(), &b.q, &b.alpha, &b.beta) ||
        (words.size() == 4 && !ParseSide(words[3], &b.lower))) {
      return "expected `q alpha beta [u|l]`";
    }
    if (g != nullptr && UnifiedId(*g, b.q, b.lower) == abcs::kInvalidVertex) {
      return "vertex out of range";
    }
    out->push_back(b);
    return static_cast<const char*>(nullptr);
  });
}

/// Prints the header line of a `query --batch` / `client --batch` run.
void PrintBatchHeader(std::size_t n, abcs::serve::WireMethod method) {
  const std::optional<abcs::ScsAlgo> scs =
      abcs::serve::WireMethodKernels(method).scs;
  if (scs) {
    std::printf("# batch of %zu scs queries, algo=%s\n", n,
                abcs::ScsAlgoName(*scs));
  } else {
    std::printf("# batch of %zu queries, method=%s\n", n,
                abcs::serve::WireMethodName(method));
  }
}

/// Prints one answer line of `query --batch` / `client`: `|C| |R| f
/// kernel` (or `|C| none`) for the scs-* methods, `|E|` otherwise, plus
/// the retrieval's `touched=` arcs with `touched` (the offline side; the
/// wire carries no work counters).
void PrintAnswer(std::size_t i, const BatchQuery& b, bool scs,
                 const abcs::QueryOutcome& o, bool touched) {
  std::printf("%zu %s%u (%u,%u) ", i, b.lower ? "l" : "u", b.q, b.alpha,
              b.beta);
  if (!scs) {
    std::printf("|E|=%u", o.num_edges);
    if (touched) {
      std::printf(" touched=%llu",
                  static_cast<unsigned long long>(o.touched_arcs));
    }
  } else if (o.found) {
    std::printf("|C|=%u |R|=%u f=%g kernel=%s", o.num_edges, o.result_edges,
                o.significance,
                abcs::ScsAlgoName(o.kernel.value_or(abcs::ScsAlgo::kAuto)));
  } else {
    std::printf("|C|=%u none", o.num_edges);
  }
  std::printf("\n");
}

/// Prints the aggregate line of a batch run (`touched_arcs=` as above).
void PrintBatchSummary(bool scs, const abcs::BatchStats& s, bool touched) {
  if (scs) {
    std::printf("# found=%llu total_C=%llu total_R=%llu\n",
                static_cast<unsigned long long>(s.num_found),
                static_cast<unsigned long long>(s.total_edges),
                static_cast<unsigned long long>(s.total_result_edges));
    return;
  }
  std::printf("# nonempty=%llu total_edges=%llu",
              static_cast<unsigned long long>(s.num_found),
              static_cast<unsigned long long>(s.total_edges));
  if (touched) {
    std::printf(" touched_arcs=%llu",
                static_cast<unsigned long long>(s.touched_arcs));
  }
  std::printf("\n");
}

// One `RunBatch` over the method's retrieval path and SCS kernel. stdout
// carries only thread-count-invariant data (the smoke test diffs runs at
// different --threads); timing and the kernel breakdown go to stderr.
int CmdQueryBatch(const QueryArgs& args) {
  Session session;
  abcs::Status st = LoadSession(args, &session);
  if (!st.ok()) return Fail(st);
  const abcs::BipartiteGraph& g = *session.graph;
  std::vector<BatchQuery> lines;
  st = ParseBatchFile(args.batch_path, args.lower_side, &g, &lines);
  if (!st.ok()) return Fail(st);
  std::vector<abcs::QueryRequest> requests;
  for (const BatchQuery& b : lines) {
    requests.push_back({UnifiedId(g, b.q, b.lower), b.alpha, b.beta});
  }

  const abcs::serve::WireKernels kernels =
      abcs::serve::WireMethodKernels(args.method);
  const abcs::QueryMethod method = kernels.retrieval;
  const abcs::DeltaIndex* delta = nullptr;
  const abcs::BicoreIndex* bicore = nullptr;
  if (method == abcs::QueryMethod::kDelta) {
    delta = &GetDeltaIndex(&session);
  } else if (method == abcs::QueryMethod::kBicore) {
    bicore = &GetBicoreIndex(&session);
  } else if (!args.index_path.empty()) {
    // Silently ignoring --index would hide a no-op behind an
    // apparently-used index file.
    return Fail(abcs::Status::InvalidArgument(
        "--method online uses no index; drop --index"));
  }

  const abcs::QueryEngine engine(g, method, delta, bicore);
  abcs::BatchOptions options;
  options.num_threads = args.num_threads;
  options.scs = kernels.scs;
  const abcs::BatchResult batch = engine.RunBatch(requests, options);

  const bool scs = kernels.scs.has_value();
  PrintBatchHeader(requests.size(), args.method);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    PrintAnswer(i, lines[i], scs, batch.outcomes[i], /*touched=*/true);
  }
  PrintBatchSummary(scs, batch.stats, /*touched=*/true);
  const abcs::BatchStats& s = batch.stats;
  std::fprintf(stderr, "# threads=%u wall=%.3es qps=%.1f p50=%.3es p99=%.3es",
               batch.num_threads_used, batch.wall_seconds,
               batch.QueriesPerSecond(), s.p50_seconds, s.p99_seconds);
  if (scs) {
    const auto count = [&](abcs::ScsAlgo algo) {
      return static_cast<unsigned long long>(
          s.kernel_counts[static_cast<int>(algo)]);
    };
    std::fprintf(stderr,
                 " retrieve=%.3es scs=%.3es kernels: peel=%llu expand=%llu "
                 "binary=%llu validations=%llu incremental_probes=%llu",
                 s.retrieve_seconds, s.total_seconds - s.retrieve_seconds,
                 count(abcs::ScsAlgo::kPeel), count(abcs::ScsAlgo::kExpand),
                 count(abcs::ScsAlgo::kBinary),
                 static_cast<unsigned long long>(s.validations),
                 static_cast<unsigned long long>(s.incremental_probes));
  }
  std::fprintf(stderr, "\n");
  return 0;
}

int CmdQuery(const QueryArgs& args) {
  if (!args.batch_path.empty()) return CmdQueryBatch(args);
  Session session;
  abcs::VertexId q = 0;
  const abcs::Status st = LoadQuery(args, &session, &q);
  if (!st.ok()) return Fail(st);
  const abcs::BipartiteGraph& g = *session.graph;
  const abcs::DeltaIndex& index = GetDeltaIndex(&session);
  abcs::Timer timer;
  const abcs::Subgraph c = index.QueryCommunity(q, args.alpha, args.beta);
  std::printf("# (%u,%u)-community of %s%u in %.2e s\n", args.alpha,
              args.beta, args.lower_side ? "l" : "u", args.q,
              timer.Seconds());
  PrintSubgraph(g, c);
  return 0;
}

int CmdScs(const QueryArgs& args) {
  Session session;
  abcs::VertexId q = 0;
  const abcs::Status st = LoadQuery(args, &session, &q);
  if (!st.ok()) return Fail(st);
  const abcs::BipartiteGraph& g = *session.graph;
  // The baseline peels the whole graph itself and needs no index.
  const abcs::DeltaIndex* index =
      args.baseline ? nullptr : &GetDeltaIndex(&session);

  abcs::Timer timer;
  abcs::ScsResult result;
  abcs::ScsStats scs_stats;
  double retrieve_s = 0.0;
  if (args.baseline) {
    result = abcs::ScsBaseline(g, q, args.alpha, args.beta, {}, &scs_stats);
  } else {
    const abcs::Subgraph c = index->QueryCommunity(q, args.alpha, args.beta);
    retrieve_s = timer.Seconds();
    result = abcs::ScsQuery(g, c, q, args.alpha, args.beta, args.algo, {},
                            &scs_stats);
  }
  const double total_s = timer.Seconds();
  const char* kernel =
      args.baseline ? "baseline" : abcs::ScsAlgoName(scs_stats.algo_used);
  // Phase breakdown on stderr so a slow query is attributable to retrieval
  // vs extraction straight from logs; stdout stays deterministic.
  std::fprintf(stderr,
               "# scs phases: retrieve=%.3es scs=%.3es kernel=%s "
               "validations=%u incremental_probes=%u edges_processed=%llu\n",
               retrieve_s, total_s - retrieve_s, kernel, scs_stats.validations,
               scs_stats.incremental_probes,
               static_cast<unsigned long long>(scs_stats.edges_processed));
  if (!result.found) {
    std::printf("# no significant (%u,%u)-community for this vertex\n",
                args.alpha, args.beta);
    return 0;
  }
  std::printf("# significant (%u,%u)-community, f(R)=%g, %s, %.2e s\n",
              args.alpha, args.beta, result.significance,
              args.baseline ? "baseline" : abcs::ScsAlgoName(args.algo),
              total_s);
  PrintSubgraph(g, result.community);
  return 0;
}

int CmdProfile(const QueryArgs& args) {
  Session session;
  abcs::VertexId q = 0;
  const abcs::Status st = LoadQuery(args, &session, &q);
  if (!st.ok()) return Fail(st);
  const abcs::BipartiteGraph& g = *session.graph;
  // For `profile`, alpha/beta play the role of grid bounds.
  const abcs::SignificanceProfile profile = abcs::ComputeSignificanceProfile(
      g, GetDeltaIndex(&session), q, args.alpha, args.beta);
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
  abcs::serve::ServerOptions& o = args->options;
  const std::vector<Flag> flags = {
      StringFlag("--bundle", &args->bundle_path),
      StringFlag("--host", &o.host),
      StringFlag("--port-file", &args->port_file),
      UintFlag("--port", 0, 65535, &o.port),
      UintFlag("--threads", 0, 1024, &o.num_threads),
      UintFlag("--max-connections", 1, 1 << 20, &o.max_connections),
      UintFlag("--max-queue", 1, 1 << 24, &o.max_queue),
      UintFlag("--deadline-ms", 0, kMaxMs, &o.default_deadline_ms),
      SetFlag("--no-memo", &o.enable_memo, false),
      SetFlag("--enable-updates", &o.enable_updates, true),
      UintFlag("--update-queue", 1, 1 << 24, &o.update_queue),
      StringFlag("--compact-path", &o.compact_path),
      UintFlag("--compact-every", 0, 1 << 24, &o.compact_every),
      UintFlag("--write-deadline-ms", 0, kMaxMs, &o.write_deadline_ms),
      UintFlag("--max-out-kb", 1, 1 << 22, &o.max_output_buffer, 10),
      UintFlag("--watchdog-interval-ms", 0, kMaxMs, &o.watchdog_interval_ms),
      UintFlag("--sndbuf-kb", 1, 1 << 20, &o.so_sndbuf, 10),
      SetFlag("--fast-drain", &o.fast_drain, true),
      UintFlag("--scrub-interval-ms", 1, kMaxMs, &o.scrub_interval_ms),
  };
  std::vector<const char*> pos;
  if (!ParseFlags(argc, argv, flags, &pos)) return false;
  if (!o.compact_path.empty() && !o.enable_updates) {
    return false;  // compaction is the update writer's job
  }
  if (o.scrub_interval_ms > 0 &&
      (args->bundle_path.empty() || o.enable_updates)) {
    // The scrubber verifies a bundle file and republishes via the static
    // recovery path; it cannot coexist with the update writer.
    return false;
  }
  const std::size_t k = args->bundle_path.empty() ? 1 : 0;
  if (pos.size() != k) return false;
  if (k == 1) args->graph_path = pos[0];
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
  // bundle maps them zero-copy; a raw edge list pays one decomposition and
  // both index builds at startup, and the update writer forks its state
  // from that same decomposition.
  abcs::serve::ServerOptions options = args.options;
  options.bundle_path = args.bundle_path;
  abcs::serve::Server server(g, GetDecomposition(&session),
                             GetDeltaIndex(&session), GetBicoreIndex(&session),
                             options);
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
  BatchQuery query;  ///< the positional `q alpha beta` under --side
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

/// The update ops by client flag and update-file tag, with the number of
/// `u v [w]` values (layer-local ids) each takes.
struct UpdateVerb {
  const char* flag;
  const char* tag;
  abcs::serve::UpdateOp op;
  int arity;
};
constexpr UpdateVerb kUpdateVerbs[] = {
    {"--insert", "i", abcs::serve::UpdateOp::kInsertEdge, 3},
    {"--remove", "r", abcs::serve::UpdateOp::kRemoveEdge, 2},
    {"--reweight", "w", abcs::serve::UpdateOp::kReweightEdge, 3},
    {"--commit", "c", abcs::serve::UpdateOp::kCommit, 0}};

/// The values of one update op, from the command line or an update file:
/// ids fit u32 and the weight is a whole finite decimal.
bool ParseUpdate(const UpdateVerb& verb, Values values,
                 ClientArgs::UpdateSpec* out) {
  out->op = verb.op;
  if (verb.arity == 0) return true;  // commit
  long u = 0, v = 0;
  if (!ParseUint(values[0], kMaxU32, &u) ||
      !ParseUint(values[1], kMaxU32, &v) ||
      (verb.arity == 3 && !ParseReal(values[2], &out->weight))) {
    return false;
  }
  out->u = static_cast<uint32_t>(u);
  out->v = static_cast<uint32_t>(v);
  return true;
}

bool ParseClientArgs(int argc, char** argv, ClientArgs* args) {
  auto method = [args](Values v) {
    return abcs::serve::ParseWireMethod(v[0], &args->method);
  };
  // Positive and at most a day: the soak sleeps for this long.
  auto duration = [args](Values v) {
    return ParseReal(v[0], &args->duration_s) && args->duration_s > 0 &&
           args->duration_s <= 86400;
  };
  abcs::serve::ClientOptions& t = args->transport;
  std::vector<Flag> flags = {
      StringFlag("--host", &args->host),
      UintFlag("--port", 1, 65535, &args->port),
      SetFlag("--ping", &args->ping, true),
      SetFlag("--health", &args->health, true),
      UintFlag("--connect-timeout-ms", 0, kMaxMs, &t.connect_timeout_ms),
      UintFlag("--io-timeout-ms", 0, kMaxMs, &t.io_timeout_ms),
      UintFlag("--retries", 1, 1024, &t.max_attempts),
      UintFlag("--rcvbuf-kb", 1, 1 << 20, &t.so_rcvbuf, 10),
      UintFlag("--flood", 1, 1 << 24, &args->flood),
      UintFlag("--hold-ms", 0, kMaxMs, &args->hold_ms),
      {"--method", 1, method},
      SideFlag(&args->lower_side),
      UintFlag("--deadline-ms", 0, kMaxMs, &args->deadline_ms),
      StringFlag("--batch", &args->batch_path),
      UintFlag("--connections", 1, 1024, &args->connections),
      {"--duration", 1, duration},
      StringFlag("--update-file", &args->update_file),
  };
  for (const UpdateVerb& verb : kUpdateVerbs) {
    auto update = [args, &verb](Values v) {
      args->updates.emplace_back();
      return ParseUpdate(verb, v, &args->updates.back());
    };
    flags.push_back({verb.flag, verb.arity, update});
  }
  std::vector<const char*> pos;
  if (!ParseFlags(argc, argv, flags, &pos)) return false;
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
  args->query.lower = args->lower_side;
  return ParseQab(pos.data(), &args->query.q, &args->query.alpha,
                  &args->query.beta);
}

/// The wire request for one query under the client's --method and
/// --deadline-ms. q stays layer-local: the daemon owns the id space and
/// range-checks it (kInvalidVertex).
abcs::serve::WireRequest WireRequestOf(const ClientArgs& args,
                                       const BatchQuery& b) {
  abcs::serve::WireRequest req;
  req.method = args.method;
  req.lower_side = b.lower;
  req.q = b.q;
  req.alpha = b.alpha;
  req.beta = b.beta;
  req.deadline_ms = args.deadline_ms;
  return req;
}

/// A daemon answer as the outcome the batch printers take. The decoder
/// admits only ScsAlgo values and kNoKernel as the kernel byte.
abcs::QueryOutcome OutcomeOf(const abcs::serve::WireResponse& resp) {
  abcs::QueryOutcome o;
  o.found = resp.found;
  o.num_edges = resp.num_edges;
  o.result_edges = resp.result_edges;
  o.significance = resp.significance;
  if (resp.kernel != abcs::serve::kNoKernel) {
    o.kernel = static_cast<abcs::ScsAlgo>(resp.kernel);
  }
  return o;
}

// Prints one daemon answer through the `abcs query --batch` line printer
// (without touched arcs), or its error status.
void PrintClientResponse(std::size_t i, const abcs::serve::WireRequest& req,
                         const abcs::serve::WireResponse& resp) {
  const BatchQuery b{req.q, req.alpha, req.beta, req.lower_side};
  if (resp.status != abcs::serve::WireStatus::kOk) {
    std::printf("%zu %s%u (%u,%u) error=%s\n", i, b.lower ? "l" : "u", b.q,
                b.alpha, b.beta, abcs::serve::WireStatusName(resp.status));
    return;
  }
  PrintAnswer(i, b, abcs::serve::IsScsMethod(req.method), OutcomeOf(resp),
              /*touched=*/false);
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
  PrintBatchHeader(requests.size(), args.method);
  uint64_t errors = 0, memo_hits = 0;
  abcs::BatchStats stats;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const abcs::serve::WireResponse& resp = responses[i];
    PrintClientResponse(i, requests[i], resp);
    if (resp.status != abcs::serve::WireStatus::kOk) {
      ++errors;
      continue;
    }
    memo_hits += resp.memo_hit ? 1 : 0;
    stats.num_found += resp.found ? 1 : 0;
    stats.total_edges += resp.num_edges;
    stats.total_result_edges += resp.result_edges;
  }
  PrintBatchSummary(scs, stats, /*touched=*/false);
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

/// Update-file lines, one op each: a kUpdateVerbs tag and its values.
abcs::Status ParseUpdateFile(const std::string& path,
                             std::vector<ClientArgs::UpdateSpec>* out) {
  return ForEachLine(path, [&](const std::vector<const char*>& words) {
    for (const UpdateVerb& verb : kUpdateVerbs) {
      ClientArgs::UpdateSpec s;
      if (std::strcmp(words[0], verb.tag) == 0 &&
          words.size() == 1 + static_cast<std::size_t>(verb.arity) &&
          ParseUpdate(verb, words.data() + 1, &s)) {
        out->push_back(s);
        return static_cast<const char*>(nullptr);
      }
    }
    return "expected `i u v w`, `r u v`, `w u v w` or `c`";
  });
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
  const abcs::serve::WireRequest req = WireRequestOf(args, args.query);
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
    std::vector<BatchQuery> lines;
    const abcs::Status st =
        ParseBatchFile(args.batch_path, args.lower_side, nullptr, &lines);
    if (!st.ok()) return Fail(st);
    if (lines.empty()) {
      return Fail(abcs::Status::InvalidArgument("empty batch file"));
    }
    std::vector<abcs::serve::WireRequest> requests;
    for (const BatchQuery& b : lines) {
      requests.push_back(WireRequestOf(args, b));
    }
    return args.connections > 0 ? RunClientSoak(args, requests)
                                : RunClientBatch(args, requests);
  }
  if (args.flood > 0) return RunClientFlood(args);
  const abcs::serve::WireRequest req = WireRequestOf(args, args.query);
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
    using abcs::BundleCompression;
    std::string out_path;
    BundleCompression compression = BundleCompression::kNone;
    auto out = [&out_path](Values v) {
      if (!out_path.empty()) return false;
      out_path = v[0];
      return true;
    };
    const std::vector<Flag> flags = {
        {"--out", 1, out},
        SetFlag("--compress", &compression, BundleCompression::kMax),
        SetFlag("--compress=none", &compression, BundleCompression::kNone),
        SetFlag("--compress=fast", &compression, BundleCompression::kFast),
        SetFlag("--compress=max", &compression, BundleCompression::kMax),
    };
    std::vector<const char*> pos;
    if (!ParseFlags(argc, argv, flags, &pos) ||
        pos.size() != (out_path.empty() ? 2u : 1u)) {
      return Usage();
    }
    return CmdIndex(pos[0], out_path.empty() ? pos[1] : out_path,
                    compression);
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
    if (!ParseQueryArgs(cmd, argc, argv, &args)) return Usage();
    if (cmd == "query") return CmdQuery(args);
    if (cmd == "scs") return CmdScs(args);
    return CmdProfile(args);
  }
  return Usage();
}
