// Process-wide heap-allocation counter for the allocation benchmarks.
//
// alloc_counter.cc replaces the global operator new/delete with
// malloc/free wrappers that count every allocation. It is a translation
// unit of its own, linked only into the benchmarks that read the
// counter, so no other binary gets the replacement and the compiler
// never inlines the replaced operators into benchmark code.

#ifndef LIMCAP_BENCH_ALLOC_COUNTER_H_
#define LIMCAP_BENCH_ALLOC_COUNTER_H_

#include <atomic>
#include <cstddef>

namespace limcap::benchalloc {

/// Heap allocations made so far by this process.
extern std::atomic<std::size_t> g_allocations;

}  // namespace limcap::benchalloc

#endif  // LIMCAP_BENCH_ALLOC_COUNTER_H_
