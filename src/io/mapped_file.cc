#include "io/mapped_file.h"

#include <cstdint>
#include <string>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define ABCS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define ABCS_HAVE_MMAP 0
#endif

namespace abcs {

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Close();
    addr_ = std::exchange(other.addr_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
  }
  return *this;
}

#if ABCS_HAVE_MMAP

Status MappedFile::Open(const std::string& path, MappedFile* out) {
  out->Close();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* addr = nullptr;
  if (size > 0) {
    addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      ::close(fd);
      return Status::IOError("cannot mmap " + path);
    }
  }
  ::close(fd);  // the mapping keeps the pages alive
  out->addr_ = addr;
  out->size_ = size;
  out->mapped_ = true;
  return Status::OK();
}

Status MappedFile::Anonymous(std::size_t bytes, MappedFile* out) {
  out->Close();
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  if (bytes > 0) {
    // Over-map by one huge page, then trim the head to the first 2 MiB
    // boundary and the tail to the last page `bytes` needs, so the kept
    // range is exactly what Close() unmaps.
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t len = (bytes + page - 1) / page * page;
    const std::size_t span = len + kHugePage;
    void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) {
      return Status::IOError("cannot map " + std::to_string(bytes) +
                             " bytes of anonymous memory");
    }
    const auto lo = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t start = (lo + kHugePage - 1) & ~(kHugePage - 1);
    if (start > lo) ::munmap(raw, start - lo);
    if (lo + span > start + len) {
      ::munmap(reinterpret_cast<void*>(start + len), lo + span - start - len);
    }
    out->addr_ = reinterpret_cast<void*>(start);
#ifdef MADV_HUGEPAGE
    ::madvise(out->addr_, len, MADV_HUGEPAGE);  // a hint: failure is harmless
#endif
  }
  out->size_ = bytes;
  out->mapped_ = true;
  return Status::OK();
}

const std::byte* MappedFile::Release(const std::byte* begin,
                                     const std::byte* end) const {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const std::uintptr_t lo =
      (reinterpret_cast<std::uintptr_t>(begin) + page - 1) & ~(page - 1);
  const std::uintptr_t hi = reinterpret_cast<std::uintptr_t>(end) & ~(page - 1);
  if (hi <= lo) return begin;
  ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
  return reinterpret_cast<const std::byte*>(hi);
}

void MappedFile::Close() {
  if (addr_ != nullptr) ::munmap(addr_, size_);
  addr_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

#else  // !ABCS_HAVE_MMAP

Status MappedFile::Open(const std::string& path, MappedFile* out) {
  (void)out;
  return Status::NotSupported("mmap unavailable on this platform; open the "
                              "bundle with BundleOpenMode::kRead instead (" +
                              path + ")");
}

Status MappedFile::Anonymous(std::size_t bytes, MappedFile* out) {
  (void)out;
  return Status::NotSupported("mmap unavailable on this platform (" +
                              std::to_string(bytes) + " bytes)");
}

const std::byte* MappedFile::Release(const std::byte* begin,
                                     const std::byte* end) const {
  (void)end;
  return begin;
}

void MappedFile::Close() {
  addr_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

#endif  // ABCS_HAVE_MMAP

}  // namespace abcs
