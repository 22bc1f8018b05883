// Heap-allocation counter shared by the unit and key-tree test binaries.
// alloc_hook.cpp replaces the global operator new; while
// g_count_allocations is set, each allocation on the current thread bumps
// g_allocations and raises g_largest_allocation, so a test can prove a
// path allocates nothing, or nothing big.
#pragma once

#include <cstddef>

namespace enclaves::testing_support {

// constinit: the variables need no per-thread initializer, so other
// translation units reach them directly rather than through a TLS wrapper
// call (which UBSan's null check can flag under optimization).
extern thread_local constinit bool g_count_allocations;
extern thread_local constinit std::size_t g_allocations;
extern thread_local constinit std::size_t g_largest_allocation;

}  // namespace enclaves::testing_support
