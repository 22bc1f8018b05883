// Counts heap allocations made on the current thread while armed, and keeps
// the largest request (alloc_hook.h). Replacing the global operator
// new/delete pair is the only way to see every allocation, including those
// made inside the standard library. Linked into every test binary that
// includes alloc_hook.h.
#include "tests/alloc_hook.h"

#include <algorithm>
#include <cstdlib>
#include <new>

namespace enclaves::testing_support {
thread_local constinit bool g_count_allocations = false;
thread_local constinit std::size_t g_allocations = 0;
thread_local constinit std::size_t g_largest_allocation = 0;
}  // namespace enclaves::testing_support

using enclaves::testing_support::g_allocations;
using enclaves::testing_support::g_count_allocations;
using enclaves::testing_support::g_largest_allocation;

void* operator new(std::size_t size) {
  if (g_count_allocations) {
    ++g_allocations;
    g_largest_allocation = std::max(g_largest_allocation, size);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler never pairs an inlined free() with a
// `new` expression at a call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
