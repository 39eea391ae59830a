#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace limcap::benchalloc {

std::atomic<std::size_t> g_allocations{0};

}  // namespace limcap::benchalloc

// new[] funnels through operator new on this toolchain's default
// implementation, but both are replaced to be safe.
void* operator new(std::size_t size) {
  limcap::benchalloc::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
