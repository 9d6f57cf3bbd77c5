#include "core/gemm.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>
#include <vector>

#include "core/simd_dispatch.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace nc::core {

namespace {

/// Rows of C per parallel work item (a multiple of every tier's `mr`).
/// Conv GEMMs are "short and fat", so most calls have m <= kMC and split
/// over column panels alone; backward-data (m = 288) also splits rows.
constexpr std::int64_t kMC = 96;

/// Minimal 64-byte-aligned allocator: the packed panel is read with aligned
/// vector loads, one cache line per 16 floats.
template <typename T>
struct Aligned64 {
  using value_type = T;
  Aligned64() = default;
  template <typename U>
  Aligned64(const Aligned64<U>& /*other*/) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{64}));
  }
  void deallocate(T* p, std::size_t /*n*/) {
    ::operator delete(p, std::align_val_t{64});
  }
  friend bool operator==(const Aligned64&, const Aligned64&) { return true; }
};

using FloatBuf = std::vector<float, Aligned64<float>>;

/// Per-thread scratch, capacity kept across calls so steady-state inference
/// allocates nothing.  `t_panel` holds one kc x nr panel of op(B) for the
/// thread packing it; `t_a` holds op(A) when it is not already a row-major
/// fp32 matrix (trans_a, or hgemm's binary16 A).
thread_local FloatBuf t_panel;
thread_local FloatBuf t_a;

float* reserve(FloatBuf& buf, std::int64_t floats) {
  if (buf.size() < static_cast<std::size_t>(floats)) {
    buf.resize(static_cast<std::size_t>(floats));
  }
  return buf.data();
}

/// Scale (or clear) C by beta.  Only the degenerate calls (k == 0 or
/// alpha == 0) need it; otherwise the micro-kernel applies beta.
void apply_beta(std::int64_t m, std::int64_t n, float beta, float* c,
                std::int64_t ldc) {
  if (beta == 1.f) return;
  for (std::int64_t i = 0; i < m; ++i) {
    float* ci = c + i * ldc;
    if (beta == 0.f) {
      std::fill(ci, ci + n, 0.f);
    } else {
      for (std::int64_t j = 0; j < n; ++j) ci[j] *= beta;
    }
  }
}

/// The blocked driver shared by sgemm and hgemm: C = beta * C + alpha *
/// A * op(B), with A row-major fp32 (m x k, leading dimension lda).
/// `pack(k0, kc, j0, cols, panel)` writes rows [k0, k0 + kc) and columns
/// [j0, j0 + cols) of op(B) into a kc x nr panel, zero-padding columns
/// past `cols`.
///
/// Work items are (row block of kMC, column panel of nr).  Each item walks
/// k in balanced blocks of at most kGemmKC, packs that block of its panel
/// once, and runs the micro-kernel down the item's rows.  Every C element
/// is summed in the same order whatever the thread count.
template <typename PackB>
void packed_gemm(const simd::GemmTile& tile, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float* a, std::int64_t lda,
                 float beta, float* c, std::int64_t ldc, const PackB& pack) {
  const std::int64_t k_blocks = (k + kGemmKC - 1) / kGemmKC;
  const std::int64_t kc_max = (k + k_blocks - 1) / k_blocks;
  const std::int64_t row_blocks = (m + kMC - 1) / kMC;
  const std::int64_t panels = (n + tile.nr - 1) / tile.nr;

#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static) \
    if (row_blocks * panels > 1 && !omp_in_parallel())
#endif
  for (std::int64_t rb = 0; rb < row_blocks; ++rb) {
    for (std::int64_t jp = 0; jp < panels; ++jp) {
      float* panel = reserve(t_panel, kc_max * tile.nr);
      const std::int64_t i1 = std::min(m, (rb + 1) * kMC);
      const std::int64_t j0 = jp * tile.nr;
      const std::int64_t cols = std::min(tile.nr, n - j0);
      for (std::int64_t k0 = 0; k0 < k; k0 += kc_max) {
        const std::int64_t kc = std::min(kc_max, k - k0);
        pack(k0, kc, j0, cols, panel);
        const float beta_k = k0 == 0 ? beta : 1.f;
        for (std::int64_t i = rb * kMC; i < i1; i += tile.mr) {
          tile.run(std::min(tile.mr, i1 - i), cols, kc, alpha,
                   a + i * lda + k0, lda, panel, beta_k, c + i * ldc + j0,
                   ldc);
        }
      }
    }
  }
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc) {
  sgemm_with(simd::kernels().gemm_tile, trans_a, trans_b, m, n, k, alpha, a,
             lda, b, ldb, beta, c, ldc);
}

void sgemm_with(const simd::GemmTile& tile, bool trans_a, bool trans_b,
                std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                const float* a, std::int64_t lda, const float* b,
                std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.f) {
    apply_beta(m, n, beta, c, ldc);
    return;
  }

  // Transposed A: pack op(A) row-major (A is always the small conv-weight
  // side in this library, so the pack is cheap).
  if (trans_a) {
    float* packed = reserve(t_a, m * k);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* src = a + kk * lda;
      for (std::int64_t i = 0; i < m; ++i) packed[i * k + kk] = src[i];
    }
    a = packed;
    lda = k;
  }

  const std::int64_t nr = tile.nr;
  if (!trans_b) {
    // op(B) = B: copy nr-wide row segments.
    packed_gemm(tile, m, n, k, alpha, a, lda, beta, c, ldc,
                [&](std::int64_t k0, std::int64_t kc, std::int64_t j0,
                    std::int64_t cols, float* panel) {
                  for (std::int64_t kk = 0; kk < kc; ++kk) {
                    float* dst = panel + kk * nr;
                    std::memcpy(dst, b + (k0 + kk) * ldb + j0,
                                static_cast<std::size_t>(cols) * sizeof(float));
                    std::fill(dst + cols, dst + nr, 0.f);
                  }
                });
  } else {
    // op(B) = B^T (backward-weight): row j of B becomes panel column j.
    // Walking k in short strips keeps the strip's panel rows in L1 while
    // all `cols` source rows are read.
    packed_gemm(tile, m, n, k, alpha, a, lda, beta, c, ldc,
                [&](std::int64_t k0, std::int64_t kc, std::int64_t j0,
                    std::int64_t cols, float* panel) {
                  constexpr std::int64_t kStrip = 64;
                  if (cols < nr) std::fill(panel, panel + kc * nr, 0.f);
                  for (std::int64_t s0 = 0; s0 < kc; s0 += kStrip) {
                    const std::int64_t s1 = std::min(kc, s0 + kStrip);
                    for (std::int64_t j = 0; j < cols; ++j) {
                      const float* src = b + (j0 + j) * ldb + k0;
                      for (std::int64_t kk = s0; kk < s1; ++kk) {
                        panel[kk * nr + j] = src[kk];
                      }
                    }
                  }
                });
  }
}

void hgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const util::half* a, std::int64_t lda, const util::half* b,
           std::int64_t ldb, float* c, std::int64_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    apply_beta(m, n, 0.f, c, ldc);
    return;
  }

  // binary16 -> fp32 is exact, so widening A up front (at most out_c x
  // patch size values) and B panel by panel gives the fp32 kernel exactly
  // the half-storage operands.
  float* a32 = reserve(t_a, m * k);
  for (std::int64_t i = 0; i < m; ++i) {
    util::half_to_float_n(a + i * lda, a32 + i * k, k);
  }
  const simd::GemmTile& tile = simd::kernels().gemm_tile;
  const std::int64_t nr = tile.nr;
  packed_gemm(tile, m, n, k, 1.f, a32, k, 0.f, c, ldc,
              [&](std::int64_t k0, std::int64_t kc, std::int64_t j0,
                  std::int64_t cols, float* panel) {
                for (std::int64_t kk = 0; kk < kc; ++kk) {
                  float* dst = panel + kk * nr;
                  util::half_to_float_n(b + (k0 + kk) * ldb + j0, dst, cols);
                  std::fill(dst + cols, dst + nr, 0.f);
                }
              });
}

}  // namespace nc::core
