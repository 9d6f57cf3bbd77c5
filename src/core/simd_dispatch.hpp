/// \file simd_dispatch.hpp
/// \brief Runtime-dispatched SIMD kernel layer for the GEMM and quantize
///        hot loops.
///
/// The build passes no `-march` flags, so a compile-time `#ifdef __AVX2__`
/// gate means "dead code in every default build" (that was the fate of the
/// original F16C half-GEMM path).  This layer fixes the pattern structurally:
///
///   * the hot kernels (the fp32 GEMM micro-kernel behind `sgemm`/`hgemm`,
///     the int8 GEMM, activation quantization) live behind per-kernel
///     function pointers in a `Kernels` table;
///   * per-ISA implementations are compiled in dedicated translation units
///     with per-file target flags (`simd_avx2.cpp` with `-mavx2 -mfma
///     -mf16c`, `simd_avx512.cpp` with `-mavx512f -mavx512bw -mavx512vnni`)
///     so the rest of the library stays portable baseline x86-64 (or any
///     other architecture — the scalar table is always available);
///   * the table is resolved once per process from a CPUID feature probe
///     (`__builtin_cpu_supports`), overridable with `NC_SIMD=scalar|avx2|
///     avx512|auto` for testing and CI.
///
/// Numerics contract: every dispatched kernel must agree with the scalar
/// reference — bit-for-bit for the integer kernels (`qgemm`, `max_abs`,
/// `quantize_scaled`), ULP-bounded for `gemm_tile` where FMA contraction
/// legitimately reassociates.  tests/test_simd_kernels.cpp enforces this for
/// every ISA the host supports.
///
/// This header is intrinsics-free on purpose: it must compile standalone on
/// any target (tools/lint/check_headers.py also enforces that `<immintrin.h>`
/// appears only inside the per-ISA translation units).
#pragma once

#include <cstdint>

namespace nc::core::simd {

/// Instruction-set tiers, ordered: a higher tier inherits every kernel the
/// lower tiers provide and overrides the ones it accelerates further.
enum class Isa : int {
  kScalar = 0,  ///< portable C++ (always available, the reference semantics)
  kAvx2 = 1,    ///< AVX2 + FMA + F16C (256-bit FMA tile, int8 dot)
  kAvx512 = 2,  ///< AVX-512 F/BW + VNNI (512-bit FMA tile, `vpdpbusd`)
};

/// Lower-case tier name ("scalar", "avx2", "avx512") for logs and JSON.
const char* isa_name(Isa isa);

/// fp32 GEMM micro-kernel: one register tile of
///
///     C[i, j] = beta * C[i, j] + alpha * sum_{kk < kc} A[i, kk] * P[kk, j]
///
/// for i < rows <= mr and j < cols <= nr.  A is row-major with leading
/// dimension `lda`.  P is a packed panel of op(B): kc rows of exactly `nr`
/// floats each, 64-byte aligned, zero-padded past `cols`.  beta == 0
/// overwrites C without reading it.  Each tier picks the (mr, nr) that fills
/// its register file; the caller (core/gemm.cpp) packs P to the active
/// tier's `nr`.  Per element the sum runs in kk order with one accumulator,
/// so a tile's result does not depend on where it sits in the matrix.
struct GemmTile {
  std::int64_t mr = 0;  ///< rows of the register tile
  std::int64_t nr = 0;  ///< columns of the register tile = panel row width
  void (*run)(std::int64_t rows, std::int64_t cols, std::int64_t kc,
              float alpha, const float* a, std::int64_t lda,
              const float* panel, float beta, float* c,
              std::int64_t ldc) = nullptr;
};

/// The dispatched kernel table.  All pointers are non-null in any table
/// returned by `kernels()`/`kernels_for()`.
struct Kernels {
  /// C (m x n, leading dim ldc) = diag(a_scales) * (A8 * B8) * b_scale with
  /// int32 accumulation; same contract as `nc::core::qgemm`.  A8 is the
  /// quantized weight (lda = k) with entries in [-127, 127] (the
  /// `quantize_rows` guarantee; -128 weights would break the AVX2
  /// sign-transfer trick), B8 the quantized activation panel (full int8
  /// range accepted).  Bit-exact across ISAs.
  void (*qgemm)(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t* a, const float* a_scales,
                const std::int8_t* b, float b_scale, float* c,
                std::int64_t ldc) = nullptr;

  /// max_i |x_i| over n floats (0.f for n <= 0).  Finite inputs assumed.
  float (*max_abs)(const float* x, std::int64_t n) = nullptr;

  /// out_i = int8(round_to_nearest_even(clamp(x_i * inv_scale, ±127))).
  /// Round-to-nearest-even is the native rounding of VCVTPS2DQ; the scalar
  /// reference uses std::nearbyintf to match bit-for-bit.
  void (*quantize_scaled)(const float* x, std::int64_t n, float inv_scale,
                          std::int8_t* out) = nullptr;

  /// The fp32 GEMM micro-kernel behind both `sgemm` and `hgemm` (hgemm
  /// widens its binary16 operands while packing).  FMA contraction makes the
  /// vector tiers ULP-close (not bit-equal) to scalar.
  GemmTile gemm_tile;
};

/// True iff `isa` is usable here: compiled into this binary AND reported by
/// the CPU at runtime.  kScalar is always supported.
bool isa_supported(Isa isa);

/// Highest supported tier on this host.
Isa best_isa();

/// Resolve a tier request ("scalar" | "avx2" | "avx512" | "auto" | null).
/// "auto"/null/empty pick `best_isa()`.  A request above what the host
/// supports clamps down to the best supported tier at most the request
/// (with a warning); an unrecognized string warns and falls back to auto.
/// Exposed for tests; `active_isa()` applies it to the NC_SIMD env var.
Isa resolve_isa(const char* request);

/// The process-wide tier: `resolve_isa(getenv("NC_SIMD"))`, resolved once on
/// first use and fixed thereafter (kernel pointers must not change under a
/// running pipeline).
Isa active_isa();

/// Kernel table for an explicit tier (requires `isa_supported(isa)`;
/// unsupported tiers fall back to the best supported one below them).
/// Entries a tier does not override are inherited from the tier below, so
/// every returned table is fully populated.
const Kernels& kernels_for(Isa isa);

/// Kernel table for `active_isa()` — the one hot paths use.
const Kernels& kernels();

namespace detail {
/// Per-ISA providers, each defined in its own translation unit.  Entries
/// left null are inherited from the next-lower tier at merge time; the
/// AVX2/AVX-512 providers return an empty table when their TU was built
/// without the per-file target flags (non-x86 or ancient compiler).
Kernels scalar_kernels();
Kernels avx2_kernels();
Kernels avx512_kernels();
bool avx2_compiled();
bool avx512_compiled();
}  // namespace detail

}  // namespace nc::core::simd
