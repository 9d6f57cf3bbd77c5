/// \file trainer.hpp
/// \brief BCAE training procedure (§2.5).
///
/// Reproduces the paper's recipe: AdamW (β = (0.9, 0.999), weight decay
/// 0.01), batch size 4, step-decay LR schedule (constant warm period, then
/// ×0.95 every `decay_every` epochs), classification threshold h = 0.5, and
/// the dynamic balancing of the segmentation coefficient
///   c_{t+1} = 0.5 c_t + (ρ_reg / ρ_seg)·1.5,  c_0 = 2000.
///
/// Epoch counts are configurable; the paper trains 1000 epochs (3-D) / 500
/// epochs (2-D) on 25 152 wedges — the bench harness uses proportionally
/// shorter runs on the scaled geometry (see bench/common.hpp).
#pragma once

#include <functional>
#include <vector>

#include "bcae/model.hpp"
#include "core/optim.hpp"
#include "tpc/dataset.hpp"

namespace nc::bcae {

struct TrainerConfig {
  std::int64_t epochs = 8;
  std::int64_t batch_size = 4;           ///< paper: 4
  double lr = 1e-3;                      ///< paper: 1e-3
  std::int64_t flat_epochs = 2;          ///< paper: 100 (3-D) / 50 (2-D)
  std::int64_t decay_every = 1;          ///< paper: 20 (3-D) / 10 (2-D)
  double decay_factor = 0.95;            ///< paper: 5% decay
  float gamma = kDefaultGamma;           ///< focal focusing parameter
  float threshold = kDefaultThreshold;   ///< mask threshold h
  double c0 = 2000.0;                    ///< initial segmentation coefficient
  std::uint64_t shuffle_seed = 7;
  /// Optional cap on train wedges per epoch (0 = all); lets large datasets
  /// drive short calibration runs.
  std::int64_t max_wedges_per_epoch = 0;
};

struct EpochStats {
  std::int64_t epoch = 0;
  double seg_loss = 0.0;   ///< mean focal loss over the epoch
  double reg_loss = 0.0;   ///< mean masked-MAE over the epoch
  double coefficient = 0.0;  ///< c_t used this epoch
  double lr = 0.0;
};

class Trainer {
 public:
  Trainer(BcaeModel& model, const tpc::WedgeDataset& dataset,
          TrainerConfig config);

  /// Run the configured number of epochs; returns per-epoch statistics.
  /// `on_epoch` (optional) is invoked after each epoch (progress logging).
  std::vector<EpochStats> fit(
      const std::function<void(const EpochStats&)>& on_epoch = {});

  /// One gradient step on a prepared batch; returns (seg_loss, reg_loss).
  /// Exposed for tests that need to assert loss decrease step-by-step.
  std::pair<double, double> train_step(const Tensor& batch, double seg_coeff);

  const TrainerConfig& config() const { return config_; }

 private:
  Tensor make_batch(const std::vector<std::int64_t>& indices) const;

  BcaeModel& model_;
  const tpc::WedgeDataset& dataset_;
  TrainerConfig config_;
  core::AdamW optimizer_;
  util::Rng shuffle_rng_;
};

/// Voxel occupancy labels for a batch: 1 where the log-ADC value is nonzero.
Tensor occupancy_labels(const Tensor& batch);

}  // namespace nc::bcae
