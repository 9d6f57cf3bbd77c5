/// Regenerates Table 1: reconstruction accuracy (MAE, PSNR, precision,
/// recall), encoder size and encoder throughput for BCAE-2D, BCAE++,
/// BCAE-HT and the original BCAE — all evaluated in half precision, as the
/// paper reports.  Also prints §3.1's compression-ratio arithmetic.
///
/// Expected shape vs the paper:
///   * BCAE++ best MAE/PSNR/precision/recall,
///   * BCAE-2D highest throughput, BCAE-HT in between,
///   * BCAE-HT's encoder ~5% the size of BCAE++'s,
///   * original BCAE worst accuracy,
///   * CR = 31.125 for the new variants at paper scale.
#include <cstdio>
#include <vector>

#include "bench/common.hpp"
#include "metrics/metrics.hpp"
#include "tpc/geometry.hpp"

namespace {

struct Row {
  std::string model;
  nc::metrics::ReconstructionMetrics m;
  std::int64_t encoder_params_full_scale = 0;
  double throughput_half = 0.0;
  double paper_mae, paper_psnr, paper_precision, paper_recall;
  double paper_size_k, paper_throughput;
};

}  // namespace

int main() {
  using namespace nc;
  const auto& ds = bench::bench_dataset();

  struct Spec {
    std::string name;
    double paper[6];  // mae, psnr, prec, recall, size_k, throughput
  };

  std::vector<Row> rows;
  auto run = [&](bcae::BcaeModel&& model, std::int64_t full_scale_params,
                 const double (&paper)[6]) {
    auto tc = bench::bench_trainer_config(model.is_3d());
    const double train_s = bench::train_model(model, ds, tc);
    std::fprintf(stderr, "[bench] %s trained in %.1fs\n", model.name().c_str(),
                 train_s);
    Row r;
    r.model = model.name();
    r.m = bcae::evaluate_model(model, ds, ds.test(), core::Mode::kEvalHalf, 8);
    r.encoder_params_full_scale = full_scale_params;
    r.throughput_half = bench::bench_throughput(model, ds, core::Mode::kEvalHalf);
    r.paper_mae = paper[0];
    r.paper_psnr = paper[1];
    r.paper_precision = paper[2];
    r.paper_recall = paper[3];
    r.paper_size_k = paper[4];
    r.paper_throughput = paper[5];
    rows.push_back(std::move(r));
  };

  // Full-scale encoder parameter counts come from paper-scale constructions
  // (cheap: construction only, no training).
  const std::int64_t params_2d =
      bcae::make_bcae_2d(bcae::Bcae2dConfig{}, 1).encoder_param_count();
  const std::int64_t params_pp = bcae::make_bcae_pp(1).encoder_param_count();
  const std::int64_t params_ht = bcae::make_bcae_ht(1).encoder_param_count();
  const std::int64_t params_orig =
      bcae::make_bcae_original(1).encoder_param_count();

  run(bcae::make_bcae_2d(bcae::Bcae2dConfig{}, 2023), params_2d,
      {0.152, 11.726, 0.906, 0.907, 169.0, 6900});
  run(bcae::make_bcae_pp(2023), params_pp,
      {0.112, 14.325, 0.934, 0.936, 226.2, 2600});
  run(bcae::make_bcae_ht(2023), params_ht,
      {0.138, 12.376, 0.916, 0.915, 9.8, 4600});
  run(bcae::make_bcae_original(2023), params_orig,
      {0.198, 9.923, 0.878, 0.861, 201.7, 2400});

  std::printf("\nTable 1 — performance, encoder model size, throughput "
              "(half precision; measured at bench scale, paper values at "
              "full scale on an RTX A6000)\n");
  nc::bench::print_rule(118);
  std::printf("%-16s %18s %18s %20s %18s %16s %18s\n", "model",
              "MAE (paper)", "PSNR (paper)", "precision (paper)",
              "recall (paper)", "enc size (paper)", "thrpt w/s (paper)");
  nc::bench::print_rule(118);
  for (const auto& r : rows) {
    std::printf(
        "%-16s %8.4f (%6.3f) %8.3f (%6.3f) %10.3f (%6.3f) %8.3f (%6.3f) "
        "%7.1fk (%5.1fk) %8.0f (%5.0f)\n",
        r.model.c_str(), r.m.mae, r.paper_mae, r.m.psnr, r.paper_psnr,
        r.m.precision, r.paper_precision, r.m.recall, r.paper_recall,
        r.encoder_params_full_scale / 1000.0, r.paper_size_k,
        r.throughput_half, r.paper_throughput);
  }
  nc::bench::print_rule(118);

  // §3.1 compression ratios, at paper scale (pure arithmetic).
  const auto paper_wedge = nc::tpc::TpcGeometry::paper_scale().wedge_shape();
  std::printf("\n§3.1 compression ratio (paper scale):\n");
  std::printf("  new variants (code 24 576 elems): %.3f   [paper: 31.125]\n",
              nc::tpc::compression_ratio(paper_wedge, 24576));
  std::printf("  original BCAE (code 28 288 elems): %.3f  [paper: 27.041]\n",
              nc::tpc::compression_ratio(paper_wedge, 8 * 17 * 13 * 16));

  // Shape checks the reader should verify:
  std::printf("\nshape checks: BCAE++ best MAE: %s | BCAE-2D fastest: %s | "
              "HT/++ size ratio: %.3f (paper 0.043)\n",
              (rows[1].m.mae <= rows[0].m.mae && rows[1].m.mae <= rows[2].m.mae &&
               rows[1].m.mae <= rows[3].m.mae)
                  ? "yes"
                  : "NO",
              (rows[0].throughput_half >= rows[1].throughput_half &&
               rows[0].throughput_half >= rows[2].throughput_half)
                  ? "yes"
                  : "NO",
              static_cast<double>(rows[2].encoder_params_full_scale) /
                  static_cast<double>(rows[1].encoder_params_full_scale));
  return 0;
}
