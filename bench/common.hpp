/// \file common.hpp
/// \brief Shared harness for the table/figure regeneration benches.
///
/// Every bench uses the same scaled experiment setup:
/// wedges of (16, 48, 62)->64 instead of the paper's (16, 192, 249)->256,
/// short trainings instead of 500-1000 epochs.  Paper reference values are
/// printed next to measured ones so the *shape* comparison (who wins, by
/// roughly what factor) is direct; absolute values are not expected to
/// match (CPU substrate, reduced scale).
///
/// Environment knobs:
///   NC_BENCH_EVENTS  — simulated events for the dataset (default 6)
///   NC_BENCH_EPOCHS  — training epochs per model (default 6)
///   NC_BENCH_WEDGES  — train wedges per epoch cap (default 24)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bcae/evaluator.hpp"
#include "bcae/model.hpp"
#include "bcae/trainer.hpp"
#include "tpc/dataset.hpp"
#include "util/timer.hpp"

namespace nc::bench {

inline std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  return v ? std::atoll(v) : fallback;
}

/// Canonical bench dataset: generated once per process, deterministic.
inline const tpc::WedgeDataset& bench_dataset() {
  static const tpc::WedgeDataset ds = [] {
    tpc::DatasetConfig cfg;
    cfg.geometry = tpc::TpcGeometry::bench_scale();
    cfg.n_events = env_int("NC_BENCH_EVENTS", 6);
    cfg.train_fraction = 0.75;
    std::fprintf(stderr, "[bench] generating %lld events at scale %.3g ...\n",
                 static_cast<long long>(cfg.n_events), cfg.geometry.scale);
    util::Timer t;
    auto d = tpc::WedgeDataset::generate(cfg);
    std::fprintf(stderr,
                 "[bench] dataset: %zu train / %zu test wedges %s (pad %lld), "
                 "occupancy %.3f (%.1fs)\n",
                 d.train().size(), d.test().size(),
                 d.wedge_shape().to_string().c_str(),
                 static_cast<long long>(d.padded_horiz()), d.occupancy(),
                 t.elapsed_s());
    return d;
  }();
  return ds;
}

/// Smaller dataset for the Fig. 7 grid search (25 trainings).
inline const tpc::WedgeDataset& grid_dataset() {
  static const tpc::WedgeDataset ds = [] {
    tpc::DatasetConfig cfg;
    cfg.geometry.scale = 0.125;  // wedges (16, 32, 31) -> 32
    cfg.n_events = env_int("NC_BENCH_GRID_EVENTS", 4);
    cfg.train_fraction = 0.75;
    return tpc::WedgeDataset::generate(cfg);
  }();
  return ds;
}

/// Paper-matched trainer configuration, scaled down in epochs.  The paper's
/// schedules: 3-D variants 1000 epochs (flat 100, decay every 20); 2-D 500
/// epochs (flat 50, decay every 10).  We keep the flat:decay structure at
/// 1/100 scale by default.
inline bcae::TrainerConfig bench_trainer_config(bool is_3d) {
  bcae::TrainerConfig tc;
  tc.epochs = env_int("NC_BENCH_EPOCHS", 6);
  tc.batch_size = 4;  // paper: 4
  tc.lr = 1e-3;       // paper: 1e-3
  tc.flat_epochs = is_3d ? std::max<std::int64_t>(1, tc.epochs / 10)
                         : std::max<std::int64_t>(1, tc.epochs / 10);
  tc.decay_every = 1;
  tc.max_wedges_per_epoch = env_int("NC_BENCH_WEDGES", 24);
  return tc;
}

/// Train a model on the bench dataset with progress logging; returns
/// training wall time in seconds.
inline double train_model(bcae::BcaeModel& model,
                          const tpc::WedgeDataset& dataset,
                          const bcae::TrainerConfig& tc) {
  util::Timer t;
  bcae::Trainer trainer(model, dataset, tc);
  trainer.fit([&](const bcae::EpochStats& s) {
    std::fprintf(stderr, "[bench] %-16s epoch %2lld: seg %.4g reg %.4g lr %.2e\n",
                 model.name().c_str(), static_cast<long long>(s.epoch),
                 s.seg_loss, s.reg_loss, s.lr);
  });
  return t.elapsed_s();
}

/// Throughput protocol shared by Table 1 and Fig. 6: batch of 32, half or
/// full precision, inputs pre-staged (no file IO in the timed region).
inline double bench_throughput(bcae::BcaeModel& model,
                               const tpc::WedgeDataset& ds, core::Mode mode,
                               std::int64_t batch = 32) {
  return bcae::encoder_throughput(model, ds, batch, mode, 1.0);
}

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace nc::bench
