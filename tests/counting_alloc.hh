/**
 * @file
 * Counting global allocator for the allocation-free checks. A test
 * binary that links counting_alloc.cc gets a replacement global
 * operator new / delete that counts every allocation in g_allocCount,
 * so a test can assert that a hot path performs zero heap allocation.
 */

#ifndef MOENTWINE_TESTS_COUNTING_ALLOC_HH
#define MOENTWINE_TESTS_COUNTING_ALLOC_HH

#include <atomic>
#include <cstddef>

/**
 * Global operator new calls so far. Atomic to stay safe if a test
 * spawns threads.
 */
extern std::atomic<std::size_t> g_allocCount;

#endif // MOENTWINE_TESTS_COUNTING_ALLOC_HH
