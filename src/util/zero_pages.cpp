#include "util/zero_pages.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace cni::util {

std::size_t ZeroPages::page_size() {
  static const std::size_t kPage = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return kPage;
}

ZeroPages::ZeroPages(std::size_t bytes, Guard guard) {
  const std::size_t page = page_size();
  const std::size_t guard_bytes = guard == Guard::kPage ? page : 0;
  size_ = (bytes + page - 1) / page * page;
  mapped_ = guard_bytes + size_;
  if (mapped_ == 0) return;
  void* p = mmap(nullptr, mapped_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    char msg[96];
    std::snprintf(msg, sizeof msg, "mapping %zu bytes: %s", mapped_, std::strerror(errno));
    check_failed("mmap(...) != MAP_FAILED", __FILE__, __LINE__, msg);
  }
  base_ = static_cast<std::byte*>(p);
  if (guard_bytes != 0) CNI_CHECK(mprotect(base_, guard_bytes, PROT_NONE) == 0);
  data_ = base_ + guard_bytes;
}

ZeroPages::~ZeroPages() { release(); }

ZeroPages::ZeroPages(ZeroPages&& o) noexcept
    : base_(std::exchange(o.base_, nullptr)),
      data_(std::exchange(o.data_, nullptr)),
      mapped_(std::exchange(o.mapped_, 0)),
      size_(std::exchange(o.size_, 0)) {}

ZeroPages& ZeroPages::operator=(ZeroPages&& o) noexcept {
  if (this != &o) {
    release();
    base_ = std::exchange(o.base_, nullptr);
    data_ = std::exchange(o.data_, nullptr);
    mapped_ = std::exchange(o.mapped_, 0);
    size_ = std::exchange(o.size_, 0);
  }
  return *this;
}

void ZeroPages::release() {
  if (base_ != nullptr) CNI_CHECK(munmap(base_, mapped_) == 0);
  base_ = nullptr;
  data_ = nullptr;
  mapped_ = 0;
  size_ = 0;
}

}  // namespace cni::util
