// Anonymous memory that becomes resident only where it is touched.
//
// A ZeroPages owns one private anonymous mmap. The kernel backs it with
// zero-filled pages on first touch, so a large array that a run mostly
// leaves alone — a fiber stack, a cache tag array — costs host memory only
// for the pages the simulation actually reaches. A fresh mapping is the
// point: calloc or a value-initialized std::vector may hand back a chunk
// that malloc recycled from an earlier simulation in the same process, and
// then zero it with a memset that makes every page resident again.
//
// An optional leading guard page is mapped PROT_NONE, so a downward-growing
// stack that overflows faults at a known address instead of overwriting
// whatever lies below it. Release is munmap, which returns the pages to the
// kernel at once.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>

#include "util/check.hpp"

namespace cni::util {

class ZeroPages {
 public:
  enum class Guard : bool { kNone, kPage };

  /// An empty mapping: data() is null and size() is 0.
  ZeroPages() = default;

  /// Maps `bytes` (rounded up to whole pages) of zero-on-demand memory,
  /// preceded by one PROT_NONE page when `guard` is kPage. A failed mapping
  /// is a CNI_CHECK failure naming the size and errno.
  explicit ZeroPages(std::size_t bytes, Guard guard = Guard::kNone);

  ~ZeroPages();

  ZeroPages(ZeroPages&& o) noexcept;
  ZeroPages& operator=(ZeroPages&& o) noexcept;
  ZeroPages(const ZeroPages&) = delete;
  ZeroPages& operator=(const ZeroPages&) = delete;

  /// First usable byte (just past the guard page, if any); page-aligned.
  [[nodiscard]] std::byte* data() const { return data_; }
  /// Usable bytes: the request rounded up to whole pages.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Views the usable bytes as `n` objects of a trivially copyable type
  /// whose all-zero bit pattern is its empty value.
  template <typename T>
  [[nodiscard]] std::span<T> as_span(std::size_t n) const {
    static_assert(std::is_trivially_copyable_v<T>);
    CNI_CHECK_LE(n, size_ / sizeof(T));
    return {reinterpret_cast<T*>(data_), n};
  }

  /// The host page size (the guard and rounding granule).
  [[nodiscard]] static std::size_t page_size();

 private:
  void release();

  std::byte* base_ = nullptr;  // start of the mapping (the guard page, if any)
  std::byte* data_ = nullptr;
  std::size_t mapped_ = 0;     // bytes passed to munmap
  std::size_t size_ = 0;
};

}  // namespace cni::util
