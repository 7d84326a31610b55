// Size-classed slab allocator for coroutine frames and other hot simulator
// allocations.
//
// The DES steady state creates and destroys millions of short-lived
// coroutine frames (every co_awaited Task<T> is one heap allocation under
// the default allocator). The slab recycles freed blocks through per-class
// free lists carved from large chunks, so the steady state never touches
// malloc. Chunks are mapped from the OS and never returned; peak usage is
// bounded by the peak number of live frames, which the simulator's structure
// keeps small.
//
// Single-threaded by design, like the simulator itself.
//
// Escape hatch: set CSAR_SIM_SLAB=OFF in the environment to route every
// call straight to ::operator new/delete. Sanitizer runs want this —
// recycled slab blocks would otherwise hide use-after-free of coroutine
// frames from ASan's poisoning.
#pragma once

#include <cstddef>
#include <cstdint>

namespace csar::sim::slab {

/// True unless CSAR_SIM_SLAB=OFF (checked once, cached).
bool enabled();

/// Allocate `n` bytes (16-byte aligned). Never returns nullptr.
void* allocate(std::size_t n);

/// Release a block obtained from allocate().
void deallocate(void* p) noexcept;

struct Stats {
  std::uint64_t allocs = 0;        ///< total allocate() calls
  std::uint64_t frees = 0;         ///< total deallocate() calls
  std::uint64_t recycled = 0;      ///< allocs served from a free list
  std::uint64_t fallback = 0;      ///< allocs too large for any class
  std::uint64_t chunk_bytes = 0;   ///< bytes reserved from the system
};
const Stats& stats();

}  // namespace csar::sim::slab
