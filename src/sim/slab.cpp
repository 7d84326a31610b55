#include "sim/slab.hpp"

#include <sys/mman.h>

#include <cstdlib>
#include <cstring>
#include <new>

namespace csar::sim::slab {
namespace {

// Every block is prefixed by a 16-byte header holding its size class, so
// deallocate() needs no size argument and user data stays 16-byte aligned.
constexpr std::size_t kHeader = 16;
constexpr std::size_t kGranule = 64;         // class width
constexpr std::size_t kClasses = 64;         // largest class: 64 * 64 = 4 KiB
constexpr std::size_t kMaxBlock = kGranule * kClasses;
constexpr std::uint32_t kFallback = 0xFFFFFFFFu;
constexpr std::size_t kChunkBytes = 256 * 1024;

struct State {
  void* free_list[kClasses] = {};            // heads of per-class lists
  char* bump = nullptr;                      // carve pointer into last chunk
  std::size_t bump_left = 0;
  Stats stats;
};

State& state() {
  static State s;
  return s;
}

std::uint32_t class_of(std::size_t total) {
  return static_cast<std::uint32_t>((total - 1) / kGranule);
}

// Chunks are mapped directly instead of taken from malloc. A chunk is never
// freed, so one carved out of the brk heap pins the heap top wherever it
// lands, and the process's peak RSS would then depend on when frame demand
// happened to grow rather than on how much memory is live.
void* carve(std::size_t bytes) {
  State& s = state();
  if (s.bump_left < bytes) {
    void* chunk = ::mmap(nullptr, kChunkBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (chunk == MAP_FAILED) throw std::bad_alloc();
    s.bump = static_cast<char*>(chunk);
    s.bump_left = kChunkBytes;
    s.stats.chunk_bytes += kChunkBytes;
  }
  char* p = s.bump;
  s.bump += bytes;
  s.bump_left -= bytes;
  return p;
}

}  // namespace

bool enabled() {
  static const bool on = [] {
    const char* v = std::getenv("CSAR_SIM_SLAB");
    return v == nullptr || std::strcmp(v, "OFF") != 0;
  }();
  return on;
}

void* allocate(std::size_t n) {
  if (n == 0) n = 1;
  const std::size_t total = n + kHeader;
  State& s = state();
  ++s.stats.allocs;
  if (!enabled() || total > kMaxBlock) {
    if (enabled()) ++s.stats.fallback;
    char* p = static_cast<char*>(::operator new(total));
    *reinterpret_cast<std::uint32_t*>(p) = kFallback;
    return p + kHeader;
  }
  const std::uint32_t cls = class_of(total);
  char* p;
  if (s.free_list[cls] != nullptr) {
    p = static_cast<char*>(s.free_list[cls]);
    s.free_list[cls] = *reinterpret_cast<void**>(p);
    ++s.stats.recycled;
  } else {
    p = static_cast<char*>(carve((cls + 1) * kGranule));
  }
  *reinterpret_cast<std::uint32_t*>(p) = cls;
  return p + kHeader;
}

void deallocate(void* ptr) noexcept {
  if (ptr == nullptr) return;
  char* p = static_cast<char*>(ptr) - kHeader;
  State& s = state();
  ++s.stats.frees;
  const std::uint32_t cls = *reinterpret_cast<std::uint32_t*>(p);
  if (cls == kFallback) {
    ::operator delete(p);
    return;
  }
  *reinterpret_cast<void**>(p) = s.free_list[cls];
  s.free_list[cls] = p;
}

const Stats& stats() { return state().stats; }

}  // namespace csar::sim::slab
