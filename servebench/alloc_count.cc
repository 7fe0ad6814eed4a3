#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace {

struct AllocCounter {
  bool on = false;
  uint64_t count = 0;
};

constinit thread_local AllocCounter tl_counter;

void* CountedAlloc(std::size_t n) {
  if (tl_counter.on) ++tl_counter.count;
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  if (tl_counter.on) ++tl_counter.count;
  const std::size_t align = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = ((n == 0 ? 1 : n) + align - 1) / align * align;
  void* p = std::aligned_alloc(align, size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace servebench {

AllocScope::AllocScope() {
  tl_counter.count = 0;
  tl_counter.on = true;
}

AllocScope::~AllocScope() { tl_counter.on = false; }

uint64_t AllocScope::count() const { return tl_counter.count; }

}  // namespace servebench

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return CountedAlignedAlloc(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  try {
    return CountedAlignedAlloc(n, al);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
