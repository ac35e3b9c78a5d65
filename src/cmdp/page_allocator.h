// Whole pages from the OS for the particle arrays.
//
// PageAllocator<T> maps every allocation with mmap and unmaps it on release,
// so a growing std::vector returns its old copy to the system at once.
// Through malloc a freed multi-MB block could stay resident: once a program
// has freed an mmapped chunk, glibc raises its mmap threshold and carves the
// next large arrays from the heap, where a freed block is kept.
//
// Each array starts k cache lines into its first page, with k cycling
// through 0..63 from one process-wide counter, so same-index elements of
// arrays allocated together never share a 4 KiB page offset.  Unstaggered,
// every mapping starts on a page boundary, so the seven same-width Real
// arrays the move and collide loops walk at one index would share one L1d
// set and one page offset.  The mapping is the
// array's bytes rounded up to whole pages plus one spare page for the
// stagger, so deallocate recomputes it from p and n alone.
//
// An AddressSanitizer build takes the memory from ::operator new instead: a
// mapping has no redzones, and the hot loops index the arrays through raw
// pointers, so only heap blocks let ASan catch an overrun.
#pragma once

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define CMDSMC_PAGE_MAPPED_ARRAYS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CMDSMC_PAGE_MAPPED_ARRAYS 0
#else
#define CMDSMC_PAGE_MAPPED_ARRAYS 1
#endif
#else
#define CMDSMC_PAGE_MAPPED_ARRAYS 1
#endif

namespace cmdsmc::cmdp {

namespace page_detail {

inline constexpr std::size_t kLineBytes = 64;
inline constexpr std::size_t kStaggerLines = 64;  // 64 lines = 4 KiB

inline std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Mapping length for `bytes` of array data: whole pages plus one spare.
inline std::size_t mapping_bytes(std::size_t bytes) {
  const std::size_t page = page_bytes();
  return (bytes + page - 1) / page * page + page;
}

// The next array's offset into its first page, in bytes.
inline std::size_t next_stagger() {
  static std::atomic<std::size_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) % kStaggerLines *
         kLineBytes;
}

}  // namespace page_detail

template <class T>
struct PageAllocator {
  using value_type = T;

  PageAllocator() = default;
  template <class U>
  PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t page = page_detail::page_bytes();
    if (n > (SIZE_MAX - 2 * page) / sizeof(T)) throw std::bad_alloc();
#if CMDSMC_PAGE_MAPPED_ARRAYS
    void* const base = mmap(nullptr, page_detail::mapping_bytes(n * sizeof(T)),
                            PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    return reinterpret_cast<T*>(static_cast<char*>(base) +
                                page_detail::next_stagger());
#else
    return static_cast<T*>(::operator new(n * sizeof(T)));
#endif
  }

  void deallocate(T* p, std::size_t n) noexcept {
#if CMDSMC_PAGE_MAPPED_ARRAYS
    // The mapping starts on a page boundary, so p's offset into its page is
    // the stagger; stepping back by it recovers the base.
    char* const base = reinterpret_cast<char*>(p) -
                       reinterpret_cast<std::uintptr_t>(p) %
                           page_detail::page_bytes();
    munmap(base, page_detail::mapping_bytes(n * sizeof(T)));
#else
    (void)n;
    ::operator delete(p);
#endif
  }

  friend bool operator==(const PageAllocator& /*a*/,
                         const PageAllocator& /*b*/) {
    return true;
  }
};

}  // namespace cmdsmc::cmdp
