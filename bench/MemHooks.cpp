//===- MemHooks.cpp - operator new/delete instrumentation -------------------===//
//
// Linked only into the Figure 12 benchmark: tracks live and peak heap
// bytes through the global allocation operators. Library code never
// depends on these hooks.
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include <cstdlib>
#include <malloc.h>
#include <new>

using retypd::MemStats;

void *operator new(size_t Size) {
  void *P = std::malloc(Size ? Size : 1);
  if (!P)
    throw std::bad_alloc();
  MemStats::noteAlloc(malloc_usable_size(P));
  return P;
}

void *operator new[](size_t Size) { return ::operator new(Size); }

void operator delete(void *P) noexcept {
  if (!P)
    return;
  MemStats::noteFree(malloc_usable_size(P));
  std::free(P);
}

void operator delete[](void *P) noexcept { ::operator delete(P); }

void operator delete(void *P, size_t) noexcept { ::operator delete(P); }
void operator delete[](void *P, size_t) noexcept { ::operator delete(P); }

// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// be replaced too: under ASan the sanitizer runtime supplies its own, and
// the std::free above then releases their blocks as an alloc-dealloc
// mismatch.
void *operator new(size_t Size, const std::nothrow_t &) noexcept {
  try {
    return ::operator new(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](size_t Size, const std::nothrow_t &) noexcept {
  return ::operator new(Size, std::nothrow);
}
void operator delete(void *P, const std::nothrow_t &) noexcept {
  ::operator delete(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  ::operator delete(P);
}
