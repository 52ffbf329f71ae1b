#ifndef ABCS_IO_MAPPED_FILE_H_
#define ABCS_IO_MAPPED_FILE_H_

#include <cstddef>
#include <string>

#include "common/status.h"

namespace abcs {

/// \brief Read-only memory mapping of a whole file (POSIX mmap), or a
/// writable anonymous one (`Anonymous`).
///
/// The index bundle opener maps the file once and hands out borrowed
/// `ArenaStorage` spans into the mapping, so opening an index is O(1)
/// copies: pages fault in lazily as queries touch them. It decodes
/// compressed sections into one anonymous mapping. Movable so it can be
/// stored inside the (heap-allocated) `IndexBundle`; the mapping's address
/// is stable across moves, only the handle transfers.
///
/// On platforms without mmap the build falls back to `ReadWholeFile`
/// (one owned buffer, same span wiring) — the bundle opener selects the
/// path, callers never see the difference beyond open latency.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile() { Close(); }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;

  /// Maps `path` read-only. Fails with IOError if the file cannot be
  /// opened or mapped (an empty file maps to a valid zero-length mapping).
  static Status Open(const std::string& path, MappedFile* out);

  /// Maps `bytes` of zero-filled, writable anonymous memory whose start is
  /// 2 MiB-aligned and hinted for transparent huge pages where the
  /// platform has them, so a large arena written once faults in a few
  /// hundred huge pages instead of tens of thousands of 4 KiB ones. The
  /// kernel supplies the zeroes; nothing is written here. Fails with
  /// IOError when the memory cannot be mapped.
  static Status Anonymous(std::size_t bytes, MappedFile* out);

  /// True between a successful Open and Close (an empty file yields a
  /// valid zero-length mapping).
  bool valid() const { return mapped_; }
  const std::byte* data() const {
    return static_cast<const std::byte*>(addr_);
  }
  /// Writable view of an `Anonymous` mapping (file mappings are
  /// read-only; writing through this pointer into one faults).
  std::byte* mutable_data() { return static_cast<std::byte*>(addr_); }
  std::size_t size() const { return size_; }

  /// Drops the whole pages inside [begin, end), a range of this file
  /// mapping, from the process (`MADV_DONTNEED`); a page only partly
  /// inside the range is kept. A dropped page refaults from the file if it
  /// is touched again, so release only bytes nothing will read. Returns
  /// the end of the dropped pages, or `begin` when none was whole, so a
  /// caller releasing a growing prefix passes it back as the next `begin`.
  const std::byte* Release(const std::byte* begin,
                           const std::byte* end) const;

  void Close();

 private:
  void* addr_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;  ///< distinguishes "never opened" from "empty file"
};

}  // namespace abcs

#endif  // ABCS_IO_MAPPED_FILE_H_
