/// Self-contained microbenchmarks for the compute kernels underlying every
/// table and figure: the fp32 GEMM (sgemm) and int8 GEMM (qgemm) at every
/// ISA tier the host supports, hgemm at the active tier, and the
/// quantization passes feeding qgemm.
///
/// These isolate the substrate so regressions in the headline throughput
/// numbers (Table 1, Fig. 6) can be attributed: if the int8 fast path's
/// advantage over scalar disappears here, the kEvalInt8 speedup story
/// collapses there.  Per-tier columns report speedup vs the scalar reference
/// so the dispatch win is a number, not a claim.  Run with
/// OMP_NUM_THREADS=1 for single-core figures.
///
/// Output ends with a one-line JSON trailer (grep '^{') consumed by CI as
/// BENCH_kernels.json.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/gemm.hpp"
#include "core/quantize.hpp"
#include "core/simd_dispatch.hpp"
#include "core/tensor.hpp"
#include "util/half.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using nc::core::Tensor;
using nc::core::simd::Isa;

Tensor random_tensor(nc::core::Shape shape, std::uint64_t seed) {
  nc::util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// Best-of-3 throughput: run `fn` in timed batches of >= `min_s` seconds and
/// return work/second of the fastest batch (work = flops or bytes per call).
template <typename Fn>
double best_rate(double work_per_call, Fn&& fn, double min_s = 0.12) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::int64_t iters = 0;
    nc::util::Timer t;
    do {
      fn();
      ++iters;
    } while (t.elapsed_s() < min_s);
    const double rate =
        work_per_call * static_cast<double>(iters) / t.elapsed_s();
    best = std::max(best, rate);
  }
  return best;
}

/// Conv-shaped GEMMs at BCAE-representative sizes.  Forward: M = out
/// channels, N = output pixels, K = lowered patch size.  The two training
/// shapes are the backward passes of the decoder's full-resolution conv:
/// NT backward-weight (N = patch size, K = pixels) and TN backward-data
/// (M = patch size, K = out channels).
struct GemmShape {
  std::int64_t m, n, k;
  bool trans_a, trans_b;
  const char* what;
};

constexpr GemmShape kShapes[] = {
    {32, 3072, 784, false, false, "BCAE-2D L_in (k=7)"},
    {32, 3072, 288, false, false, "BCAE-2D decoder full-res conv"},
    {32, 768, 288, false, false, "BCAE-2D resblock conv"},
    {8, 12288, 48, false, false, "BCAE++ stage-1 downsample"},
    {2, 12288, 48, false, false, "BCAE-HT stage-1 downsample"},
    {32, 288, 3072, false, true, "decoder conv backward-weight"},
    {288, 3072, 32, true, false, "decoder conv backward-data"},
};

std::vector<Isa> supported_isas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (nc::core::simd::isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

/// `{"scalar":v0,"avx2":v1,...}` body (without braces) for the JSON trailer.
std::string per_isa_json(const std::vector<Isa>& isas,
                         const std::vector<double>& values) {
  std::string out;
  char buf[64];
  for (std::size_t t = 0; t < isas.size(); ++t) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.3f", t ? "," : "",
                  nc::core::simd::isa_name(isas[t]), values[t]);
    out += buf;
  }
  return out;
}

/// Per-tier speed-up of `avg` against its scalar entry.
std::vector<double> vs_scalar(const std::vector<Isa>& isas,
                              const std::vector<double>& avg) {
  double scalar = 0.0;
  for (std::size_t t = 0; t < isas.size(); ++t) {
    if (isas[t] == Isa::kScalar) scalar = avg[t];
  }
  std::vector<double> out;
  for (double v : avg) out.push_back(scalar > 0.0 ? v / scalar : 0.0);
  return out;
}

}  // namespace

int main() {
  const Isa active = nc::core::simd::active_isa();
  const char* env = std::getenv("NC_SIMD");
  std::printf("bench_kernels: simd dispatch resolved to %s (NC_SIMD=%s)\n",
              nc::core::simd::isa_name(active), env ? env : "auto");
  const std::vector<Isa> isas = supported_isas();

  // ---- GEMM family ---------------------------------------------------------
  // sgemm runs at every tier through sgemm_with; hgemm runs the active tier.
  // qgemm and hgemm have no transposed forms, so the NT/TN rows show "-".
  std::printf("\nGEMM throughput [GFLOP/s] (per-tier columns: sgemm, then the "
              "dispatched int8 qgemm; speedup vs each scalar reference):\n");
  std::printf("  %-24s", "shape (m,n,k) op");
  for (Isa isa : isas) std::printf(" %7s", nc::core::simd::isa_name(isa));
  std::printf(" %7s %7s |", "best/sc", "hgemm");
  for (Isa isa : isas) std::printf(" %7s", nc::core::simd::isa_name(isa));
  std::printf(" %7s\n", "best/sc");

  // JSON accumulators: per-kernel GFLOP/s averaged over the shapes each
  // kernel runs (sgemm: all; hgemm and qgemm: the untransposed ones).
  double sum_hgemm = 0.0;
  std::vector<double> sum_s(isas.size(), 0.0), sum_q(isas.size(), 0.0);
  double n_all = 0.0, n_nn = 0.0;

  for (const GemmShape& s : kShapes) {
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.n) * static_cast<double>(s.k);
    const bool nn = !s.trans_a && !s.trans_b;
    // Stored extents follow the transpose flags; lda/ldb are the row widths.
    const Tensor a = s.trans_a ? random_tensor({s.k, s.m}, 1)
                               : random_tensor({s.m, s.k}, 1);
    const Tensor b = s.trans_b ? random_tensor({s.n, s.k}, 2)
                               : random_tensor({s.k, s.n}, 2);
    const std::int64_t lda = a.dim(1), ldb = b.dim(1);
    Tensor c({s.m, s.n});

    std::printf("  %3lld x %5lld x %4lld %-3s", static_cast<long long>(s.m),
                static_cast<long long>(s.n), static_cast<long long>(s.k),
                s.trans_a ? "TN" : (s.trans_b ? "NT" : "NN"));
    double scalar_s = 0.0, best_s = 0.0;
    for (std::size_t t = 0; t < isas.size(); ++t) {
      const auto& tile = nc::core::simd::kernels_for(isas[t]).gemm_tile;
      const double g = best_rate(flops, [&] {
        nc::core::sgemm_with(tile, s.trans_a, s.trans_b, s.m, s.n, s.k, 1.f,
                             a.data(), lda, b.data(), ldb, 0.f, c.data(), s.n);
      }) / 1e9;
      if (isas[t] == Isa::kScalar) scalar_s = g;
      best_s = std::max(best_s, g);
      sum_s[t] += g;
      std::printf(" %7.2f", g);
    }
    std::printf(" %6.2fx", scalar_s > 0.0 ? best_s / scalar_s : 0.0);
    n_all += 1.0;
    if (!nn) {
      std::printf(" %7s |", "-");
      for (std::size_t t = 0; t < isas.size(); ++t) std::printf(" %7s", "-");
      std::printf(" %7s  # %s\n", "-", s.what);
      continue;
    }

    std::vector<nc::util::half> ah(static_cast<std::size_t>(s.m * s.k));
    std::vector<nc::util::half> bh(static_cast<std::size_t>(s.k * s.n));
    nc::util::float_to_half_n(a.data(), ah.data(), s.m * s.k);
    nc::util::float_to_half_n(b.data(), bh.data(), s.k * s.n);
    const double hgemm_g =
        best_rate(flops, [&] {
          nc::core::hgemm(s.m, s.n, s.k, ah.data(), s.k, bh.data(), s.n,
                          c.data(), s.n);
        }) / 1e9;
    std::printf(" %7.2f |", hgemm_g);
    sum_hgemm += hgemm_g;
    n_nn += 1.0;

    const auto qa = nc::core::quantize_rows(a.data(), s.m, s.k);
    std::vector<std::int8_t> qb(static_cast<std::size_t>(s.k * s.n));
    const float b_scale =
        nc::core::quantize_tensor(b.data(), s.k * s.n, qb.data());
    double scalar_q = 0.0, best_q = 0.0;
    for (std::size_t t = 0; t < isas.size(); ++t) {
      const auto& ker = nc::core::simd::kernels_for(isas[t]);
      const double g = best_rate(flops, [&] {
        ker.qgemm(s.m, s.n, s.k, qa.values.data(), qa.scales.data(), qb.data(),
                  b_scale, c.data(), s.n);
      }) / 1e9;
      if (isas[t] == Isa::kScalar) scalar_q = g;
      best_q = std::max(best_q, g);
      sum_q[t] += g;
      std::printf(" %7.2f", g);
    }
    std::printf(" %6.2fx  # %s\n", scalar_q > 0.0 ? best_q / scalar_q : 0.0,
                s.what);
  }

  // ---- quantization passes -------------------------------------------------
  const std::int64_t qn = 1 << 20;
  const Tensor x = random_tensor({qn}, 3);
  std::vector<std::int8_t> q8(static_cast<std::size_t>(qn));
  std::printf("\nquantize passes on %lld floats [Gelem/s]:\n",
              static_cast<long long>(qn));
  std::printf("  %-16s", "pass");
  for (Isa isa : isas) std::printf(" %10s", nc::core::simd::isa_name(isa));
  std::printf("\n");
  std::vector<double> maxabs_r(isas.size()), quant_r(isas.size());
  for (std::size_t t = 0; t < isas.size(); ++t) {
    const auto& ker = nc::core::simd::kernels_for(isas[t]);
    volatile float sink = 0.f;
    maxabs_r[t] = best_rate(static_cast<double>(qn), [&] {
      sink = ker.max_abs(x.data(), qn);
    }) / 1e9;
    (void)sink;
    quant_r[t] = best_rate(static_cast<double>(qn), [&] {
      ker.quantize_scaled(x.data(), qn, 127.f, q8.data());
    }) / 1e9;
  }
  std::printf("  %-16s", "max_abs");
  for (double r : maxabs_r) std::printf(" %10.2f", r);
  std::printf("\n  %-16s", "quantize_scaled");
  for (double r : quant_r) std::printf(" %10.2f", r);
  std::printf("\n");

  // ---- JSON trailer --------------------------------------------------------
  std::vector<double> avg_s, avg_q;
  std::size_t active_t = 0;
  for (std::size_t t = 0; t < isas.size(); ++t) {
    avg_s.push_back(sum_s[t] / n_all);
    avg_q.push_back(sum_q[t] / n_nn);
    if (isas[t] == active) active_t = t;
  }
  std::printf(
      "\n{\"bench\":\"kernels\",\"isa\":\"%s\",\"sgemm_gflops\":%.3f,"
      "\"hgemm_gflops\":%.3f,\"sgemm_tier_gflops\":{%s},"
      "\"sgemm_speedup_vs_scalar\":{%s},\"qgemm_gflops\":{%s},"
      "\"qgemm_speedup_vs_scalar\":{%s},\"maxabs_gelems\":%.3f,"
      "\"quantize_gelems\":%.3f}\n",
      nc::core::simd::isa_name(active), avg_s[active_t], sum_hgemm / n_nn,
      per_isa_json(isas, avg_s).c_str(),
      per_isa_json(isas, vs_scalar(isas, avg_s)).c_str(),
      per_isa_json(isas, avg_q).c_str(),
      per_isa_json(isas, vs_scalar(isas, avg_q)).c_str(), maxabs_r.back(),
      quant_r.back());
  return 0;
}
