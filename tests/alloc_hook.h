// Heap-allocation counter shared by the unit-test binary. obs_test.cpp
// replaces the global operator new; while g_count_allocations is set, each
// allocation on the current thread bumps g_allocations and raises
// g_largest_allocation, so a test can prove a path allocates nothing, or
// nothing big.
#pragma once

#include <cstddef>

namespace enclaves::testing_support {

extern thread_local bool g_count_allocations;
extern thread_local std::size_t g_allocations;
extern thread_local std::size_t g_largest_allocation;

}  // namespace enclaves::testing_support
