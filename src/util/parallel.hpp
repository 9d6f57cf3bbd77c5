/// \file parallel.hpp
/// \brief Thin OpenMP wrappers so the rest of the library stays readable and
///        compiles (serially) without OpenMP, plus the hardware thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace nc::util {

/// `std::thread::hardware_concurrency()` with the 0 = "unknown" return
/// clamped to 1.  The one shared guard for every call site in the tree.
inline std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Number of worker threads OpenMP will use for parallel regions.
inline int num_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Set the OpenMP thread count (no-op without OpenMP).
inline void set_num_threads(int n) {
#ifdef _OPENMP
  if (n > 0) omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Index of the calling thread inside a parallel region.
inline int thread_index() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// parallel_for over [begin, end) with a body taking the index.
/// `grain` suppresses parallelism for small trip counts where the fork/join
/// overhead would dominate (important for the tiny BCAE-HT layers).
template <typename F>
void parallel_for(std::int64_t begin, std::int64_t end, F&& body,
                  std::int64_t grain = 1) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
#ifdef _OPENMP
  if (n >= grain * 2 && omp_get_max_threads() > 1 && !omp_in_parallel()) {
#pragma omp parallel for schedule(static)
    for (std::int64_t i = begin; i < end; ++i) body(i);
    return;
  }
#else
  (void)grain;
#endif
  for (std::int64_t i = begin; i < end; ++i) body(i);
}

}  // namespace nc::util
