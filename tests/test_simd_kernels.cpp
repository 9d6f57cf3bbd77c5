/// Per-ISA equivalence suite for the runtime SIMD kernel layer
/// (core/simd_dispatch.hpp).  The contract under test: the integer kernels
/// (`qgemm`, `max_abs`, `quantize_scaled`) are bit-exact across every ISA
/// tier the host supports, the fp32 `gemm_tile` is ULP-bounded (FMA
/// contraction) on fp32 and on widened binary16 operands, and the
/// dispatcher resolves NC_SIMD-style requests correctly.  Shapes are deliberately awkward — k not a multiple of the
/// packing quad, n straddling the column tile, m straddling the row tile,
/// degenerate m/n/k — so tail paths get the same scrutiny as the vector
/// body.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "core/conv.hpp"
#include "core/gemm.hpp"
#include "core/quantize.hpp"
#include "core/simd_dispatch.hpp"
#include "tests/reference.hpp"
#include "util/half.hpp"
#include "util/rng.hpp"

namespace {

using nc::core::Tensor;
using nc::core::simd::Isa;
using nc::core::simd::Kernels;

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (nc::core::simd::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

/// Deterministic int8 fill in [lo, hi] (inclusive).
void fill_i8(nc::util::Rng& rng, std::int8_t* p, std::int64_t n, int lo,
             int hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  for (std::int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::int8_t>(lo + static_cast<int>(rng.next_u64() % span));
  }
}

struct QShape {
  std::int64_t m, n, k;
};

// Awkward on purpose: k % 4 != 0 exercises the padded-A path, n % 16 != 0
// the tail tile, and the degenerate entries the early-outs.
const QShape kQgemmShapes[] = {
    {1, 1, 1},   {1, 16, 4},  {2, 15, 3},  {3, 17, 5},   {6, 33, 40},
    {4, 64, 1},  {5, 1, 7},   {2, 31, 0},  {7, 16, 129}, {16, 100, 37},
};

TEST(SimdDispatch, QgemmBitExactAcrossIsas) {
  nc::util::Rng rng(101);
  const Kernels& ref = nc::core::simd::kernels_for(Isa::kScalar);
  for (const QShape& s : kQgemmShapes) {
    std::vector<std::int8_t> a(static_cast<std::size_t>(s.m * s.k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(s.k * s.n));
    std::vector<float> a_scales(static_cast<std::size_t>(s.m));
    // Weights obey the quantize_rows guarantee ([-127, 127], never -128);
    // activations use the full int8 range.
    fill_i8(rng, a.data(), s.m * s.k, -127, 127);
    fill_i8(rng, b.data(), s.k * s.n, -128, 127);
    for (auto& sc : a_scales) sc = 0.001f + 0.01f * (rng.next_u64() % 100);
    const float b_scale = 0.0375f;

    std::vector<float> c_ref(static_cast<std::size_t>(s.m * s.n), -7.f);
    ref.qgemm(s.m, s.n, s.k, a.data(), a_scales.data(), b.data(), b_scale,
              c_ref.data(), s.n);
    for (Isa isa : supported_isas()) {
      std::vector<float> c(static_cast<std::size_t>(s.m * s.n), -7.f);
      nc::core::simd::kernels_for(isa).qgemm(s.m, s.n, s.k, a.data(),
                                             a_scales.data(), b.data(),
                                             b_scale, c.data(), s.n);
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(c[i], c_ref[i])
            << "isa=" << nc::core::simd::isa_name(isa) << " shape={" << s.m
            << "," << s.n << "," << s.k << "} idx=" << i;
      }
    }
  }
}

TEST(SimdDispatch, QgemmSaturationExtremesBitExact) {
  // Worst-case accumulation magnitudes: every product is ±(127*128).  The
  // AVX2 sign-transfer kernel must not saturate its i16 pair sums and the
  // AVX-512 bias trick must apply the exact row-sum correction.
  const std::int64_t m = 3, n = 17, k = 33;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
  for (std::int64_t i = 0; i < m * k; ++i) {
    a[static_cast<std::size_t>(i)] = (i % 2 == 0) ? std::int8_t{127}
                                                  : std::int8_t{-127};
  }
  for (std::int64_t i = 0; i < k * n; ++i) {
    b[static_cast<std::size_t>(i)] = (i % 3 == 0) ? std::int8_t{-128}
                                                  : std::int8_t{127};
  }
  const std::vector<float> a_scales(static_cast<std::size_t>(m), 1.f);

  std::vector<float> c_ref(static_cast<std::size_t>(m * n));
  nc::core::simd::kernels_for(Isa::kScalar)
      .qgemm(m, n, k, a.data(), a_scales.data(), b.data(), 1.f, c_ref.data(),
             n);
  for (Isa isa : supported_isas()) {
    std::vector<float> c(static_cast<std::size_t>(m * n));
    nc::core::simd::kernels_for(isa).qgemm(m, n, k, a.data(), a_scales.data(),
                                           b.data(), 1.f, c.data(), n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c[i], c_ref[i]) << "isa=" << nc::core::simd::isa_name(isa)
                                << " idx=" << i;
    }
  }
}

TEST(SimdDispatch, QgemmZeroRowsAndZeroK) {
  // All-zero weight rows hit the zero-quad skip; k == 0 must still write C
  // (the apply-scale contract) on every tier.
  const std::int64_t m = 4, n = 19;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * 8), 0);
  std::vector<std::int8_t> b(static_cast<std::size_t>(8 * n), 55);
  const std::vector<float> a_scales(static_cast<std::size_t>(m), 2.f);
  for (Isa isa : supported_isas()) {
    std::vector<float> c(static_cast<std::size_t>(m * n), 9.f);
    nc::core::simd::kernels_for(isa).qgemm(m, n, 8, a.data(), a_scales.data(),
                                           b.data(), 0.5f, c.data(), n);
    for (float v : c) ASSERT_EQ(v, 0.f) << nc::core::simd::isa_name(isa);

    std::vector<float> c0(static_cast<std::size_t>(m * n), 9.f);
    nc::core::simd::kernels_for(isa).qgemm(m, n, 0, a.data(), a_scales.data(),
                                           b.data(), 0.5f, c0.data(), n);
    for (float v : c0) ASSERT_EQ(v, 0.f) << nc::core::simd::isa_name(isa);
  }
}

TEST(SimdDispatch, MaxAbsBitExactAcrossIsas) {
  nc::util::Rng rng(202);
  for (std::int64_t n : {0, 1, 7, 8, 9, 31, 32, 33, 257}) {
    std::vector<float> x(static_cast<std::size_t>(n > 0 ? n : 1));
    for (auto& v : x) v = static_cast<float>(rng.normal() * 10.0);
    if (n > 2) x[static_cast<std::size_t>(n / 2)] = -123.5f;  // negative peak
    const float ref =
        nc::core::simd::kernels_for(Isa::kScalar).max_abs(x.data(), n);
    for (Isa isa : supported_isas()) {
      EXPECT_EQ(nc::core::simd::kernels_for(isa).max_abs(x.data(), n), ref)
          << "isa=" << nc::core::simd::isa_name(isa) << " n=" << n;
    }
  }
}

TEST(SimdDispatch, QuantizeScaledBitExactAndRoundsToNearestEven) {
  // inv_scale = 1 makes the expected integers readable: RNE ties go to the
  // even neighbor (0.5 -> 0, 1.5 -> 2, 2.5 -> 2), matching VCVTPS2DQ.
  const std::vector<float> x = {0.5f,   -0.5f, 1.5f,  -1.5f,  2.5f,  -2.5f,
                                3.5f,   126.6f, 127.4f, 200.f, -200.f, 0.f,
                                -0.49f, 0.49f,  96.5f,  -96.5f, 33.f};
  const std::vector<std::int8_t> want = {0,   0,   2,    -2,  2,    -2,
                                         4,   127, 127,  127, -127, 0,
                                         0,   0,   96,   -96, 33};
  ASSERT_EQ(x.size(), want.size());
  for (Isa isa : supported_isas()) {
    std::vector<std::int8_t> got(x.size(), 99);
    nc::core::simd::kernels_for(isa).quantize_scaled(
        x.data(), static_cast<std::int64_t>(x.size()), 1.f, got.data());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(got[i], want[i])
          << "isa=" << nc::core::simd::isa_name(isa) << " x=" << x[i];
    }
  }

  // Random sweep across vector-body + tail lengths, all tiers bit-equal.
  nc::util::Rng rng(303);
  for (std::int64_t n : {1, 15, 32, 33, 64, 100, 255}) {
    std::vector<float> v(static_cast<std::size_t>(n));
    for (auto& f : v) f = static_cast<float>(rng.normal() * 80.0);
    std::vector<std::int8_t> ref(static_cast<std::size_t>(n));
    nc::core::simd::kernels_for(Isa::kScalar)
        .quantize_scaled(v.data(), n, 0.731f, ref.data());
    for (Isa isa : supported_isas()) {
      std::vector<std::int8_t> got(static_cast<std::size_t>(n));
      nc::core::simd::kernels_for(isa).quantize_scaled(v.data(), n, 0.731f,
                                                       got.data());
      EXPECT_EQ(got, ref) << "isa=" << nc::core::simd::isa_name(isa)
                          << " n=" << n;
    }
  }
}

TEST(SimdDispatch, QuantizeTensorRoundsToNearestEven) {
  // max|x| = 127 gives scale exactly 1, so q[0] is RNE(2.5) = 2 (the old
  // round-half-away implementation produced 3).
  const float x[] = {2.5f, 127.f};
  std::int8_t q[2] = {0, 0};
  const float scale = nc::core::quantize_tensor(x, 2, q);
  EXPECT_EQ(scale, 1.f);
  EXPECT_EQ(q[0], 2);
  EXPECT_EQ(q[1], 127);
}

// hgemm's half x half -> fp32 tile: binary16 operands, widened exactly,
// through every tier's gemm_tile, stay ULP-bounded against the scalar tier;
// the dispatched hgemm equals its own tier on the widened operands.
TEST(SimdDispatch, TileHhUlpBounded) {
  nc::util::Rng rng(404);
  const std::int64_t m = 9, n = 37, k = 41;
  std::vector<nc::util::half> a(static_cast<std::size_t>(m * k));
  std::vector<nc::util::half> b(static_cast<std::size_t>(k * n));
  for (auto& h : a) h = nc::util::half(static_cast<float>(rng.normal()));
  for (auto& h : b) h = nc::util::half(static_cast<float>(rng.normal()));
  std::vector<float> a32(a.size()), b32(b.size());
  nc::util::half_to_float_n(a.data(), a32.data(), m * k);
  nc::util::half_to_float_n(b.data(), b32.data(), k * n);

  std::vector<float> c_ref(static_cast<std::size_t>(m * n), 0.f);
  nc::core::sgemm_with(nc::core::simd::kernels_for(Isa::kScalar).gemm_tile,
                       false, false, m, n, k, 1.f, a32.data(), k, b32.data(),
                       n, 0.f, c_ref.data(), n);
  for (Isa isa : supported_isas()) {
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.f);
    nc::core::sgemm_with(nc::core::simd::kernels_for(isa).gemm_tile, false,
                         false, m, n, k, 1.f, a32.data(), k, b32.data(), n,
                         0.f, c.data(), n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      // FMA contraction reassociates; bound the drift tightly relative to
      // the accumulated magnitude.
      const float tol = 1e-5f * (1.f + std::abs(c_ref[i])) * std::sqrt(float(k));
      EXPECT_NEAR(c[i], c_ref[i], tol)
          << "isa=" << nc::core::simd::isa_name(isa) << " idx=" << i;
    }
  }

  std::vector<float> c_active(static_cast<std::size_t>(m * n), 0.f);
  nc::core::sgemm_with(nc::core::simd::kernels().gemm_tile, false, false, m,
                       n, k, 1.f, a32.data(), k, b32.data(), n, 0.f,
                       c_active.data(), n);
  std::vector<float> c_half(static_cast<std::size_t>(m * n), -1.f);
  nc::core::hgemm(m, n, k, a.data(), k, b.data(), n, c_half.data(), n);
  for (std::size_t i = 0; i < c_half.size(); ++i) {
    EXPECT_EQ(c_half[i], c_active[i]) << "idx=" << i;
  }
}

struct TileCase {
  std::int64_t m, n, k;
  bool trans_a, trans_b;
  float alpha, beta;
};

// Awkward on purpose for every tier's (mr, nr): m = 13 and 29 leave a
// partial row tile at mr = 8, 6 and 4; n = 45 and 50 a partial column panel
// at nr = 32, 16 and 8; k = 1 is a one-step panel and k > kGemmKC crosses a
// k-block.  Leading dimensions are padded wider than the matrices.
const TileCase kTileCases[] = {
    {13, 45, 37, false, false, 1.f, 0.f},
    {13, 45, 1, false, false, 1.f, 0.f},
    {29, 50, nc::core::kGemmKC + 77, false, false, 0.75f, 1.f},
    {7, 33, 19, false, false, -1.25f, 0.5f},
    {13, 45, nc::core::kGemmKC + 5, false, true, 1.f, 1.f},
    {29, 50, 11, true, false, 1.f, 0.f},
    {1, 1, 1, false, false, 1.f, 0.f},
};

/// The micro-kernel of every tier, driven through the packed sgemm over the
/// shapes above, stays within a ULP bound of the scalar tier.  The bound is
/// in units of eps * S, where S = |alpha| * sum_kk |a_ik * b_kj| + |beta *
/// c_ij| is the magnitude the rounding errors scale with; FMA contraction
/// changes one rounding per step, so the drift grows like sqrt(k).  The
/// vector tiers measured at most 1.4 units on these shapes; a dropped k
/// step or a lost mantissa byte costs thousands.
TEST(SimdDispatch, GemmTileUlpBoundedAcrossIsas) {
  nc::util::Rng rng(404);
  const nc::core::simd::GemmTile& ref_tile =
      nc::core::simd::kernels_for(Isa::kScalar).gemm_tile;
  for (const TileCase& t : kTileCases) {
    const std::int64_t a_rows = t.trans_a ? t.k : t.m;
    const std::int64_t a_cols = t.trans_a ? t.m : t.k;
    const std::int64_t b_rows = t.trans_b ? t.n : t.k;
    const std::int64_t b_cols = t.trans_b ? t.k : t.n;
    const std::int64_t lda = a_cols + 3, ldb = b_cols + 5, ldc = t.n + 7;
    std::vector<float> a(static_cast<std::size_t>(a_rows * lda));
    std::vector<float> b(static_cast<std::size_t>(b_rows * ldb));
    std::vector<float> c0(static_cast<std::size_t>(t.m * ldc));
    for (auto& v : a) v = static_cast<float>(rng.normal());
    for (auto& v : b) v = static_cast<float>(rng.normal());
    for (auto& v : c0) v = static_cast<float>(rng.normal());

    const auto op_a = [&](std::int64_t i, std::int64_t kk) {
      return a[static_cast<std::size_t>(t.trans_a ? kk * lda + i
                                                  : i * lda + kk)];
    };
    const auto op_b = [&](std::int64_t kk, std::int64_t j) {
      return b[static_cast<std::size_t>(t.trans_b ? j * ldb + kk
                                                  : kk * ldb + j)];
    };

    std::vector<float> c_ref = c0;
    nc::core::sgemm_with(ref_tile, t.trans_a, t.trans_b, t.m, t.n, t.k,
                         t.alpha, a.data(), lda, b.data(), ldb, t.beta,
                         c_ref.data(), ldc);
    for (Isa isa : supported_isas()) {
      std::vector<float> c = c0;
      nc::core::sgemm_with(nc::core::simd::kernels_for(isa).gemm_tile,
                           t.trans_a, t.trans_b, t.m, t.n, t.k, t.alpha,
                           a.data(), lda, b.data(), ldb, t.beta, c.data(),
                           ldc);
      for (std::int64_t i = 0; i < t.m; ++i) {
        for (std::int64_t j = 0; j < ldc; ++j) {
          const std::size_t at = static_cast<std::size_t>(i * ldc + j);
          if (j >= t.n) {  // padding past n is never written
            EXPECT_EQ(c[at], c0[at]);
            continue;
          }
          double mag = std::abs(static_cast<double>(t.beta * c0[at]));
          for (std::int64_t kk = 0; kk < t.k; ++kk) {
            mag += std::abs(static_cast<double>(t.alpha) *
                            static_cast<double>(op_a(i, kk)) *
                            static_cast<double>(op_b(kk, j)));
          }
          const double diff = static_cast<double>(c[at] - c_ref[at]);
          const double ulps =
              std::abs(diff) /
              (static_cast<double>(std::numeric_limits<float>::epsilon()) *
               mag);
          EXPECT_LE(ulps, std::sqrt(static_cast<double>(t.k)) + 2.0)
              << "isa=" << nc::core::simd::isa_name(isa) << " m=" << t.m
              << " n=" << t.n << " k=" << t.k << " at (" << i << ", " << j
              << ")";
        }
      }
    }
  }
}

TEST(SimdDispatch, ResolveIsaParsing) {
  using nc::core::simd::resolve_isa;
  const Isa best = nc::core::simd::best_isa();
  EXPECT_EQ(resolve_isa(nullptr), best);
  EXPECT_EQ(resolve_isa(""), best);
  EXPECT_EQ(resolve_isa("auto"), best);
  EXPECT_EQ(resolve_isa("scalar"), Isa::kScalar);
  // Requests clamp down to what the host supports, never up.
  const Isa avx2 = resolve_isa("avx2");
  EXPECT_EQ(avx2, nc::core::simd::isa_supported(Isa::kAvx2) ? Isa::kAvx2
                                                            : Isa::kScalar);
  const Isa avx512 = resolve_isa("avx512");
  EXPECT_LE(static_cast<int>(avx512), static_cast<int>(best));
  // Unknown strings warn and fall back to auto.
  EXPECT_EQ(resolve_isa("pentium"), best);
}

TEST(SimdDispatch, ActiveTableMatchesPublicQgemm) {
  // nc::core::qgemm must be a pure forward to the active dispatch table.
  nc::util::Rng rng(505);
  const std::int64_t m = 5, n = 23, k = 18;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n));
  fill_i8(rng, a.data(), m * k, -127, 127);
  fill_i8(rng, b.data(), k * n, -128, 127);
  const std::vector<float> a_scales(static_cast<std::size_t>(m), 0.25f);

  std::vector<float> c_pub(static_cast<std::size_t>(m * n));
  std::vector<float> c_tab(static_cast<std::size_t>(m * n));
  nc::core::qgemm(m, n, k, a.data(), a_scales.data(), b.data(), 0.125f,
                  c_pub.data(), n);
  nc::core::simd::kernels().qgemm(m, n, k, a.data(), a_scales.data(), b.data(),
                                  0.125f, c_tab.data(), n);
  EXPECT_EQ(c_pub, c_tab);
  EXPECT_TRUE(nc::core::simd::isa_supported(nc::core::simd::active_isa()));
}

// Labeled tsan via NC_TSAN_SUITES: concurrent kEvalInt8 forwards race on the
// conv layer's lazily quantized weight cache and (first call) the dispatch
// table's magic statics.  TSan verifies both are publication-safe.
TEST(SimdDispatch, ConcurrentInt8ForwardIsRaceFree) {
  nc::util::Rng rng(606);
  nc::core::Conv2d conv(3, 6, {3, 3}, {1, 1}, {1, 1}, true, rng);
  const Tensor x = nc::testref::random_tensor({1, 3, 12, 14}, 31);

  constexpr int kThreads = 4;
  std::vector<Tensor> outs;
  for (int t = 0; t < kThreads; ++t) outs.emplace_back();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      outs[static_cast<std::size_t>(t)] =
          conv.forward(x, nc::core::Mode::kEvalInt8);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    ASSERT_EQ(outs[static_cast<std::size_t>(t)].shape(), outs[0].shape());
    EXPECT_EQ(nc::testref::max_abs_diff(outs[static_cast<std::size_t>(t)],
                                        outs[0]),
              0.0);
  }
}

// Labeled tsan via NC_TSAN_SUITES: concurrent fp32 and fp16 eval forwards
// share the dispatch table, race on the lazily built fp16 weight cache, and
// each pack B panels into their own thread-local GEMM scratch.  Every
// output must equal the serial forward of its mode bit for bit.
TEST(SimdDispatch, ConcurrentFloatAndHalfForwardIsRaceFree) {
  nc::util::Rng rng(707);
  nc::core::Conv2d conv(3, 6, {3, 3}, {1, 1}, {1, 1}, true, rng);
  const Tensor x = nc::testref::random_tensor({2, 3, 12, 40}, 32);

  constexpr int kThreads = 4;
  const auto mode_of = [](int t) {
    return t % 2 == 0 ? nc::core::Mode::kEval : nc::core::Mode::kEvalHalf;
  };
  std::vector<Tensor> outs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      outs[static_cast<std::size_t>(t)] = conv.forward(x, mode_of(t));
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    const Tensor serial = conv.forward(x, mode_of(t));
    ASSERT_EQ(outs[static_cast<std::size_t>(t)].shape(), serial.shape());
    EXPECT_EQ(nc::testref::max_abs_diff(outs[static_cast<std::size_t>(t)],
                                        serial),
              0.0)
        << "thread " << t;
  }
}

}  // namespace
