/// Ablation bench for the paper's §4 future-work directions and §2.3's
/// normalization choice:
///   1. post-training int8 quantization of the encoder (accuracy cost,
///      throughput, 4x weight-size reduction),
///   2. magnitude pruning (sparse-CNN direction) — our fp32 GEMM skips zero
///      weights, so pruning converts directly into encoder throughput,
///   3. normalization-layer ablation (§2.3's second modification): the same
///      3-D architecture with and without InstanceNorm.
#include <cstdio>

#include "bench/common.hpp"
#include "core/quantize.hpp"
#include "metrics/metrics.hpp"

int main() {
  using namespace nc;
  const auto& ds = bench::bench_dataset();

  // --- 1 & 2: train one BCAE-2D, then quantize / prune its encoder -------
  auto model = bcae::make_bcae_2d(bcae::Bcae2dConfig{}, 2023);
  auto tc = bench::bench_trainer_config(false);
  bench::train_model(model, ds, tc);

  std::printf("\nAblation A — post-training encoder optimization (BCAE-2D)\n");
  bench::print_rule(96);
  std::printf("%-26s %10s %10s %10s %12s %14s\n", "configuration", "MAE",
              "precision", "recall", "sparsity", "enc wedges/s");
  bench::print_rule(96);

  auto report = [&](const char* label, core::Mode mode) {
    const auto m = bcae::evaluate_model(model, ds, ds.test(), mode, 8);
    const double thr = bench::bench_throughput(model, ds, mode);
    std::printf("%-26s %10.4f %10.3f %10.3f %12.3f %14.1f\n", label, m.mae,
                m.precision, m.recall,
                core::weight_sparsity(model.encoder_params()), thr);
  };

  report("fp32", core::Mode::kEval);
  report("fp16 (paper's mode)", core::Mode::kEvalHalf);
  report("int8 weights+activations", core::Mode::kEvalInt8);

  for (const double fraction : {0.5, 0.8}) {
    // Pruning is destructive; measure increasing sparsity on the same model.
    core::prune_by_magnitude(model.encoder_params(), fraction);
    model.invalidate_half_cache();
    char label[64];
    std::snprintf(label, sizeof(label), "pruned %.0f%% + fp32", fraction * 100);
    report(label, core::Mode::kEval);
  }
  bench::print_rule(96);
  std::printf("int8 weight storage: %.0fkB vs fp32 %.0fkB (4x smaller; code "
              "stream unchanged)\n",
              model.encoder_param_count() / 1024.0,
              model.encoder_param_count() * 4 / 1024.0);

  // --- 3: normalization ablation (§2.3) -----------------------------------
  std::printf("\nAblation B — §2.3 normalization removal: identical 3-D "
              "architecture trained with and without InstanceNorm\n");
  bench::print_rule(96);
  std::printf("%-26s %10s %10s %10s %14s %14s\n", "configuration", "MAE",
              "precision", "recall", "train s/epoch", "enc wedges/s");
  bench::print_rule(96);
  for (const bool use_norm : {false, true}) {
    bcae::Bcae3dConfig cfg = bcae::Bcae3dConfig::bcae_pp();
    cfg.use_norm = use_norm;
    auto m3 = bcae::make_bcae_3d(cfg, 2023, use_norm ? "with-norm" : "norm-free");
    auto tc3 = bench::bench_trainer_config(true);
    const double train_s = bench::train_model(m3, ds, tc3);
    const auto m = bcae::evaluate_model(m3, ds, ds.test(), core::Mode::kEval, 8);
    const double thr = bench::bench_throughput(m3, ds, core::Mode::kEval);
    std::printf("%-26s %10.4f %10.3f %10.3f %14.2f %14.1f\n",
                use_norm ? "with InstanceNorm" : "norm-free (BCAE++)", m.mae,
                m.precision, m.recall,
                train_s / static_cast<double>(tc3.epochs), thr);
  }
  bench::print_rule(96);
  std::printf("expected shape (§2.3): comparable accuracy, slower training "
              "and inference with normalization layers.\n");
  return 0;
}
