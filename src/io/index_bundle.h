#ifndef ABCS_IO_INDEX_BUNDLE_H_
#define ABCS_IO_INDEX_BUNDLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "abcore/offsets.h"
#include "common/status.h"
#include "core/bicore_index.h"
#include "core/delta_index.h"
#include "graph/bipartite_graph.h"
#include "io/codec.h"
#include "io/mapped_file.h"

namespace abcs {

/// \brief One versioned container file (`ABCSPAK2`; v1 `ABCSPAK1` files
/// stay readable) holding everything a serving process needs: graph CSR +
/// weights, the δ-bounded offset decomposition, and both index layers
/// (I_δ and I_v).
///
/// Layout (little-endian, all sections 8-byte aligned; full spec in
/// docs/bundle_format.md):
///
///     "ABCSPAK2" | BundleHeader | TOC (named section records) | payloads
///
/// The header carries the graph shape, δ, a topology checksum AND a weight
/// digest (so a bundle whose significances went stale cannot silently
/// serve wrong SCS answers), plus a meta checksum over header+TOC. Every
/// v2 section record carries a byte range, a codec tag (`SectionCodec`),
/// both the stored (encoded) and decoded byte counts, and a content
/// checksum over the *stored* bytes — a corrupt section is reported and
/// never mapped.
///
/// `OpenIndexBundle` wires the in-memory structures as *borrowed*
/// `ArenaStorage` spans. Raw sections point straight into the backing
/// bytes — the mmap'd region (`kMmap`, zero per-array copies, pages fault
/// in lazily) or one owned buffer read eagerly (`kRead`). Encoded sections
/// are decoded once into a single pooled, 8-aligned arena owned by the
/// bundle (one anonymous huge-page mapping for all sections). Every
/// section's checksum and decode run in one parallel pass before the
/// structural checks; errors are still reported for the first bad section
/// in open order. On an mmap open a delta-varint section is checksummed
/// and decoded in one streamed pass of `kBundleStreamWindowBytes` windows,
/// and its stored pages are released behind the decoder. Queries served from an opened bundle are bit-identical
/// to queries from a fresh in-memory build, compressed or not.
enum class BundleOpenMode {
  kMmap,  ///< map the file; spans view the mapping (zero-copy, lazy pages)
  kRead,  ///< read the file into one owned buffer; spans view the buffer
};

/// Stored bytes of a delta-varint section that an mmap open checksums and
/// hands to the decoder at a time. The whole pages of a window are
/// released once the decoder has moved past it, so a compressed open does
/// not keep the stored bytes resident beside their decoded copy.
inline constexpr std::size_t kBundleStreamWindowBytes = std::size_t{1} << 20;

struct BundleOpenOptions {
  BundleOpenMode mode = BundleOpenMode::kMmap;
  /// Verify every section checksum and both header digests on open.
  /// Defaults on: a flipped byte then fails with a clean Status before any
  /// query can read it. Turning it off skips only those content scans
  /// (trusted local restarts chasing the last bit of startup latency); the
  /// header, TOC, array-shape and element-range checks always run, so
  /// even an unverified bundle cannot steer a query outside its arrays.
  bool verify_checksums = true;
};

/// Per-section shape of an opened bundle, for `abcs inspect` and tests:
/// which codec the writer picked and what it bought.
struct BundleSectionInfo {
  std::string name;
  SectionCodec codec = SectionCodec::kRaw;
  uint64_t stored_bytes = 0;   ///< encoded bytes on disk (excl. padding)
  uint64_t decoded_bytes = 0;  ///< bytes after decode (== stored for raw)
};

/// An opened bundle: owns the backing bytes (mapping or buffer), the
/// pooled decode arena for encoded sections, and the
/// graph/decomposition/index structures viewing them. Immovable — the
/// indexes hold pointers to the member graph — so it lives on the heap
/// behind a unique_ptr (see OpenIndexBundle).
class IndexBundle {
 public:
  IndexBundle(const IndexBundle&) = delete;
  IndexBundle& operator=(const IndexBundle&) = delete;
  IndexBundle(IndexBundle&&) = delete;
  IndexBundle& operator=(IndexBundle&&) = delete;

  const BipartiteGraph& graph() const { return graph_; }
  const BicoreDecomposition& decomposition() const { return decomp_; }
  const DeltaIndex& delta_index() const { return delta_index_; }
  const BicoreIndex& bicore_index() const { return bicore_index_; }
  uint32_t delta() const { return decomp_.delta; }

  BundleOpenMode mode() const { return mode_; }
  /// Total bytes of the backing file.
  std::size_t FileBytes() const { return backing_size_; }
  /// On-disk format version: 1 for legacy `ABCSPAK1`, 2 for `ABCSPAK2`.
  uint32_t FormatVersion() const { return format_version_; }
  /// Every section in TOC order: name, codec tag, stored/decoded bytes.
  const std::vector<BundleSectionInfo>& Sections() const { return sections_; }
  /// Bytes of the pooled decode arena: the sum of the encoded sections'
  /// decoded lengths, each rounded up to 8 (0 for an all-raw bundle).
  std::size_t DecodePoolBytes() const { return pool_.size(); }
  /// True iff every persistent array of every layer is a borrowed span
  /// into the backing bytes (no per-array copies were made on open).
  /// Encoded sections decode into the owned pool, so a compressed bundle
  /// reports false by design; raw bundles stay fully zero-copy.
  bool ZeroCopy() const;

 private:
  friend struct BundleAccess;
  friend Status OpenIndexBundle(const std::string& path,
                                std::unique_ptr<IndexBundle>* out,
                                const BundleOpenOptions& options);
  IndexBundle() = default;

  BundleOpenMode mode_ = BundleOpenMode::kMmap;
  MappedFile map_;                  ///< backing for kMmap
  std::vector<std::byte> buffer_;   ///< backing for kRead
  const std::byte* backing_ = nullptr;
  std::size_t backing_size_ = 0;
  uint32_t format_version_ = 0;
  uint64_t topology_checksum_ = 0;  ///< from the header, for match checks
  uint64_t weight_digest_ = 0;      ///< from the header, for match checks
  /// One pooled decode arena for every encoded section: an anonymous,
  /// 2 MiB-aligned, huge-page-hinted mapping (kernel-zeroed, so nothing
  /// pre-fills it), sized once from the TOC's decoded lengths and sliced
  /// at 8-aligned offsets per section — no per-section mallocs. Each
  /// slice is written by exactly one decode worker during open.
  MappedFile pool_;
  std::vector<BundleSectionInfo> sections_;

  BipartiteGraph graph_;
  BicoreDecomposition decomp_;
  DeltaIndex delta_index_;
  BicoreIndex bicore_index_;
};

/// Section compression policy for `SaveIndexBundle`. Whatever the level,
/// the writer measures each candidate codec's actual encoded size and
/// keeps a section raw unless the win is real (≥ ~12% smaller), so a
/// compressed save can never produce a larger bundle than a raw one.
enum class BundleCompression {
  kNone,  ///< every section raw: fully zero-copy mmap serving (default)
  kFast,  ///< bit-pack only: one pass per section, cheapest decode
  kMax,   ///< try bit-pack AND delta-varint per section, keep the smaller
};

const char* BundleCompressionName(BundleCompression level);

struct SaveBundleOptions {
  /// Before renaming the fresh bundle into place, hard-link the current
  /// one to `<path>.prev` so recovery retains a complete verified
  /// fallback epoch even if the main file is later damaged in place
  /// (see OpenBundleWithFallback). The save itself is always atomic —
  /// write temp, fsync, rename, fsync dir — with or without rotation.
  bool keep_previous = false;
  /// Per-section codec policy (see BundleCompression). The default keeps
  /// every section raw so existing zero-copy serving paths are unchanged.
  BundleCompression compression = BundleCompression::kNone;
};

/// Writes the self-contained bundle. `decomp`, `delta` and `bicore` must
/// all have been built from `g` (the saver embeds `g`'s topology checksum
/// and weight digest; `OpenIndexBundle` re-verifies them). Crash-safe: a
/// process killed at any instant leaves `path` either untouched or fully
/// replaced, never torn (tests/crash_recovery_test.cc sweeps every
/// injection point in this path).
Status SaveIndexBundle(const BipartiteGraph& g,
                       const BicoreDecomposition& decomp,
                       const DeltaIndex& delta, const BicoreIndex& bicore,
                       const std::string& path,
                       const SaveBundleOptions& options = {});

/// The named crash points inside the bundle save path, in program order —
/// the sweep axis of the crash-matrix recovery test.
const std::vector<const char*>& BundleSaveFaultPoints();

/// Opens a bundle written by SaveIndexBundle. On success `*out` serves
/// queries immediately: graph, decomposition and both indexes are wired
/// and self-consistent. Corrupted or truncated files fail with
/// `Corruption`, unreadable files with `IOError`.
Status OpenIndexBundle(const std::string& path,
                       std::unique_ptr<IndexBundle>* out,
                       const BundleOpenOptions& options = {});

/// Opens `path`, and when that bundle is corrupt or unreadable falls back
/// to the rotated `<path>.prev` epoch written by compaction with
/// `keep_previous` (the newest verifiable epoch on disk). On fallback
/// success returns OK and, when `diagnostic` is non-null, stores a
/// human-readable account of what was wrong with the primary. Fails only
/// when no verifiable epoch exists.
Status OpenBundleWithFallback(const std::string& path,
                              std::unique_ptr<IndexBundle>* out,
                              const BundleOpenOptions& options = {},
                              std::string* diagnostic = nullptr);

/// Checks that `bundle` was built from exactly `g`: shape, topology
/// checksum and weight digest must all match. Detects both a stale
/// topology and the silent killer the plain topology checksum misses —
/// same edges, re-weighted significances.
Status VerifyBundleMatchesGraph(const IndexBundle& bundle,
                                const BipartiteGraph& g);

/// Topology checksum stored in the bundle header: FNV-1a over the shape
/// and the edge list in EdgeId order. Weights are excluded; they have
/// their own digest below.
uint64_t GraphTopologyChecksum(const BipartiteGraph& g);

/// Weight digest stored next to the topology checksum: FNV-1a over the bit
/// patterns of the edge weights, in EdgeId order. A graph that kept its
/// topology but changed its significances (re-scored ratings, fresh RWR
/// run) is rejected instead of silently serving wrong BicoreIndex/SCS
/// answers.
uint64_t GraphWeightChecksum(const BipartiteGraph& g);

/// The checksum used for bundle sections and the header/TOC meta record:
/// FNV-1a over the bytes chunked into little-endian 64-bit words (tail
/// word zero-padded). Word-wise so verifying a multi-hundred-MB bundle
/// costs a fraction of the build it replaces. Exposed for tests that
/// craft corrupt-but-self-consistent files.
uint64_t BundleChecksum(const void* data, std::size_t size);

}  // namespace abcs

#endif  // ABCS_IO_INDEX_BUNDLE_H_
