/// BCAE models: code shapes, parameter counts, head semantics, training
/// behaviour, evaluation, checkpointing.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "bcae/evaluator.hpp"
#include "bcae/model.hpp"
#include "bcae/trainer.hpp"
#include "core/checkpoint.hpp"
#include "core/loss.hpp"
#include "core/ops.hpp"
#include "util/serialize.hpp"
#include "tests/reference.hpp"
#include "tpc/dataset.hpp"

namespace {

using nc::bcae::Bcae2dConfig;
using nc::bcae::Bcae3dConfig;
using nc::bcae::BcaeModel;
using nc::core::Mode;
using nc::core::Shape;
using nc::core::Tensor;

/// Tiny shared dataset (scale 1/8 wedges: (16, 32, 31) -> padded 32).
const nc::tpc::WedgeDataset& tiny_dataset() {
  static const nc::tpc::WedgeDataset ds = [] {
    nc::tpc::DatasetConfig cfg;
    cfg.n_events = 2;
    cfg.geometry.scale = 0.125;
    cfg.train_fraction = 0.5;
    return nc::tpc::WedgeDataset::generate(cfg);
  }();
  return ds;
}

TEST(BcaeModel, CodeShape3dMatchesPaper) {
  // §3.1: BCAE++ / BCAE-HT code shape (8, 16, 12, 16) at paper scale.
  const Shape code = nc::bcae::code_shape_3d(Bcae3dConfig::bcae_pp(), 16, 192, 256);
  EXPECT_EQ(code, (Shape{8, 16, 12, 16}));
  EXPECT_EQ(nc::core::shape_numel(code), 24576);
}

TEST(BcaeModel, CodeShape2dMatchesPaper) {
  // §2.4/§3.1: BCAE-2D with d = 3 produces code (32, 24, 32).
  const Shape code = nc::bcae::code_shape_2d(Bcae2dConfig{}, 192, 256);
  EXPECT_EQ(code, (Shape{32, 24, 32}));
  EXPECT_EQ(nc::core::shape_numel(code), 24576);
}

TEST(BcaeModel, EncoderForwardProducesDeclaredCodeShape) {
  auto model2d = nc::bcae::make_bcae_2d(Bcae2dConfig{}, 1);
  const Tensor x2 = nc::testref::random_tensor({1, 16, 48, 64}, 81);
  const Tensor c2 = model2d.encode(x2, Mode::kEval);
  EXPECT_EQ(c2.shape(), (Shape{1, 32, 6, 8}));

  auto model3d = nc::bcae::make_bcae_pp(1);
  const Tensor x3 = nc::testref::random_tensor({1, 1, 16, 48, 64}, 82);
  const Tensor c3 = model3d.encode(x3, Mode::kEval);
  EXPECT_EQ(c3.shape(), (Shape{1, 8, 16, 3, 4}));
}

TEST(BcaeModel, DecodersReturnInputShape) {
  auto model = nc::bcae::make_bcae_2d(Bcae2dConfig{}, 2);
  const Tensor x = nc::testref::random_tensor({2, 16, 48, 64}, 83);
  const auto heads = model.forward(x, Mode::kEval);
  EXPECT_EQ(heads.seg_logits.shape(), x.shape());
  EXPECT_EQ(heads.reg.shape(), x.shape());
}

TEST(BcaeModel, EncoderParamCountsNearPaper) {
  // Paper §3.2 Table 1: 226.2k / 9.8k / 169.0k / 201.7k.  Our architecture
  // reconstruction lands within 10% for ++/HT.
  auto pp = nc::bcae::make_bcae_pp(1);
  EXPECT_EQ(pp.encoder_param_count(), 215312);  // golden; paper 226.2k (~5%)
  auto ht = nc::bcae::make_bcae_ht(1);
  EXPECT_EQ(ht.encoder_param_count(), 9974);    // golden; paper 9.8k (~2%)
  auto b2 = nc::bcae::make_bcae_2d(Bcae2dConfig{}, 1);
  EXPECT_EQ(b2.encoder_param_count(), 174144);  // golden; paper 169.0k (~3%)
}

TEST(BcaeModel, Fig6eEncoderSizeIncrementPerBlock) {
  // Fig. 6E: encoder size grows ~36.1k per extra block (m).  Ours grows by
  // exactly two ResBlocks = 36 992.
  std::int64_t prev = 0;
  for (std::int64_t m = 3; m <= 7; ++m) {
    Bcae2dConfig cfg;
    cfg.m = m;
    auto model = nc::bcae::make_bcae_2d(cfg, 1);
    const std::int64_t size = model.encoder_param_count();
    if (prev) {
      EXPECT_EQ(size - prev, 36992);
    }
    prev = size;
  }
}

TEST(BcaeModel, HtEncoderIsTinyFractionOfPp) {
  // §2.3: BCAE-HT's encoder is ~5% of BCAE++'s.
  auto pp = nc::bcae::make_bcae_pp(1);
  auto ht = nc::bcae::make_bcae_ht(1);
  const double frac = static_cast<double>(ht.encoder_param_count()) /
                      static_cast<double>(pp.encoder_param_count());
  EXPECT_LT(frac, 0.06);
  EXPECT_GT(frac, 0.03);
}

TEST(BcaeModel, OriginalBcaeHasNormLayers) {
  auto orig = nc::bcae::make_bcae_original(1);
  bool has_gamma = false;
  for (const auto* p : orig.params()) {
    if (p->name.find("gamma") != std::string::npos) has_gamma = true;
  }
  EXPECT_TRUE(has_gamma);

  auto pp = nc::bcae::make_bcae_pp(1);
  for (const auto* p : pp.params()) {
    EXPECT_EQ(p->name.find("gamma"), std::string::npos) << p->name;
  }
}

TEST(BcaeModel, ReconstructionMaskSemantics) {
  BcaeModel::Heads heads;
  heads.reg = Tensor::from_vector({4}, {7.f, 8.f, 9.f, 6.5f});
  heads.seg_logits = Tensor::from_vector({4}, {3.f, -3.f, 1.f, -1.f});
  const Tensor recon = BcaeModel::reconstruct(heads, 0.5f);
  EXPECT_EQ(recon[0], 7.f);
  EXPECT_EQ(recon[1], 0.f);
  EXPECT_EQ(recon[2], 9.f);
  EXPECT_EQ(recon[3], 0.f);
}

TEST(BcaeModel, RegressionHeadAlwaysAboveSix) {
  // §2.2: the output transform pins regression predictions above 6.
  auto model = nc::bcae::make_bcae_2d(Bcae2dConfig{}, 3);
  const Tensor x = nc::testref::random_tensor({1, 16, 24, 32}, 84);
  const auto heads = model.forward(x, Mode::kEval);
  EXPECT_GE(nc::core::min_value(heads.reg), 6.f);
}

TEST(BcaeModel, HalfModeMatchesFullForAllVariants) {
  // Table 2's parity claim at the model level: identical inputs, fp32 vs
  // fp16 storage inference, small elementwise deviation.
  const auto& ds = tiny_dataset();
  const std::vector<std::int64_t> idx{0, 1};
  {
    auto model = nc::bcae::make_bcae_2d(Bcae2dConfig{}, 5);
    const Tensor x = ds.batch_2d(ds.train(), idx);
    const Tensor full = model.encode(x, Mode::kEval);
    const Tensor half = model.encode(x, Mode::kEvalHalf);
    const float scale = std::max(std::abs(nc::core::max_value(full)),
                                 std::abs(nc::core::min_value(full)));
    EXPECT_LT(nc::testref::max_abs_diff(full, half),
              0.01 * (static_cast<double>(scale) + 1.0));
  }
  {
    auto model = nc::bcae::make_bcae_ht(5);
    const Tensor x = ds.batch_3d(ds.train(), idx);
    const Tensor full = model.encode(x, Mode::kEval);
    const Tensor half = model.encode(x, Mode::kEvalHalf);
    const float scale = std::max(std::abs(nc::core::max_value(full)),
                                 std::abs(nc::core::min_value(full)));
    EXPECT_LT(nc::testref::max_abs_diff(full, half),
              0.01 * (static_cast<double>(scale) + 1.0));
  }
}

TEST(Trainer, OccupancyLabels) {
  const Tensor batch = Tensor::from_vector({4}, {0.f, 6.5f, 0.f, 9.9f});
  const Tensor labels = nc::bcae::occupancy_labels(batch);
  EXPECT_EQ(labels[0], 0.f);
  EXPECT_EQ(labels[1], 1.f);
  EXPECT_EQ(labels[2], 0.f);
  EXPECT_EQ(labels[3], 1.f);
}

TEST(Trainer, LossesDecreaseOverEpochs) {
  const auto& ds = tiny_dataset();
  Bcae2dConfig cfg;
  cfg.m = 2;
  cfg.n = 2;
  cfg.d = 2;
  auto model = nc::bcae::make_bcae_2d(cfg, 7);
  nc::bcae::TrainerConfig tc;
  tc.epochs = 4;
  tc.batch_size = 4;
  tc.max_wedges_per_epoch = 16;
  nc::bcae::Trainer trainer(model, ds, tc);
  const auto history = trainer.fit();
  ASSERT_EQ(history.size(), 4u);
  // Both losses must come down substantially from the first epoch.
  EXPECT_LT(history.back().seg_loss, history.front().seg_loss * 0.5);
  EXPECT_LT(history.back().reg_loss, history.front().reg_loss);
  // Coefficient starts at c0 and follows the recurrence.
  EXPECT_DOUBLE_EQ(history[0].coefficient, tc.c0);
  EXPECT_NEAR(history[1].coefficient,
              nc::core::next_seg_coefficient(tc.c0, history[0].seg_loss,
                                             history[0].reg_loss),
              1e-9);
}

TEST(Trainer, DeterministicGivenSeeds) {
  const auto& ds = tiny_dataset();
  Bcae2dConfig cfg;
  cfg.m = 1;
  cfg.n = 1;
  cfg.d = 1;
  auto run = [&] {
    auto model = nc::bcae::make_bcae_2d(cfg, 11);
    nc::bcae::TrainerConfig tc;
    tc.epochs = 2;
    tc.batch_size = 2;
    tc.max_wedges_per_epoch = 8;
    nc::bcae::Trainer trainer(model, ds, tc);
    return trainer.fit().back().reg_loss;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Evaluator, PerfectReconstructionScoresPerfectly) {
  // Feed the evaluator a model-free sanity case through the metrics path.
  const auto& ds = tiny_dataset();
  const auto truth = ds.batch_2d(ds.test(), {0, 1});
  const auto m = nc::metrics::evaluate_reconstruction(truth, truth);
  EXPECT_DOUBLE_EQ(m.mae, 0.0);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
}

TEST(Evaluator, UntrainedModelHasPoorMetrics) {
  const auto& ds = tiny_dataset();
  auto model = nc::bcae::make_bcae_2d(Bcae2dConfig{.m = 1, .n = 1, .d = 1}, 13);
  const auto m =
      nc::bcae::evaluate_model(model, ds, ds.test(), Mode::kEval, 8);
  EXPECT_GT(m.mae, 0.1);  // untrained: far from zero error
}

TEST(Evaluator, ThroughputIsPositiveAndHalfRuns) {
  const auto& ds = tiny_dataset();
  auto model = nc::bcae::make_bcae_ht(17);
  const double full = nc::bcae::encoder_throughput(model, ds, 4, Mode::kEval, 0.05);
  const double half = nc::bcae::encoder_throughput(model, ds, 4, Mode::kEvalHalf, 0.05);
  EXPECT_GT(full, 0.0);
  EXPECT_GT(half, 0.0);
}

TEST(Checkpoint, RoundTripRestoresForwardOutputs) {
  const auto& ds = tiny_dataset();
  Bcae2dConfig cfg;
  cfg.m = 1;
  cfg.n = 1;
  cfg.d = 1;
  auto model_a = nc::bcae::make_bcae_2d(cfg, 19);
  const Tensor x = ds.batch_2d(ds.train(), {0});
  const Tensor code_a = model_a.encode(x, Mode::kEval);

  std::stringstream buffer;
  nc::core::save_checkpoint(buffer, model_a.params());

  auto model_b = nc::bcae::make_bcae_2d(cfg, 999);  // different init
  const Tensor code_before = model_b.encode(x, Mode::kEval);
  EXPECT_GT(nc::testref::max_abs_diff(code_a, code_before), 1e-3);

  nc::core::load_checkpoint(buffer, model_b.params());
  const Tensor code_after = model_b.encode(x, Mode::kEval);
  EXPECT_LT(nc::testref::max_abs_diff(code_a, code_after), 1e-7);
}

TEST(Checkpoint, ShapeMismatchThrows) {
  Bcae2dConfig small;
  small.m = 1;
  small.n = 1;
  small.d = 1;
  auto model_a = nc::bcae::make_bcae_2d(small, 21);
  std::stringstream buffer;
  nc::core::save_checkpoint(buffer, model_a.params());

  Bcae2dConfig big = small;
  big.m = 2;
  auto model_b = nc::bcae::make_bcae_2d(big, 23);
  EXPECT_THROW(nc::core::load_checkpoint(buffer, model_b.params()),
               nc::util::SerializeError);
}

}  // namespace
