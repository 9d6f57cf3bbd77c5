/// \file builders.cpp
/// \brief Network construction for all BCAE variants.
///
/// 2-D builders follow Algorithm 1 (encoder) and Algorithm 2 (decoders)
/// verbatim, except that the encoder's output convolution emits
/// `code_channels` = 32 features: Algorithm 1 prints o=16, but §3.1's code
/// shape (32, 24, 32) and the 31.125 compression ratio require 32.
///
/// 3-D builders implement the §2.3 description: four stages, each a strided
/// downsampling convolution (kernel 4, stride 2, pad 1 on the azimuthal and
/// horizontal axes; the 16-layer radial axis is never downsampled) followed
/// by a residual block, with stage features (8, 16, 32, 32) for BCAE++ /
/// original BCAE and (2, 4, 4, 8) for BCAE-HT.  This reproduces the paper's
/// code shape (8, 16, 12, 16) and encoder sizes (our counts: ~215k for
/// BCAE++ vs paper 226.2k; 9 974 for BCAE-HT vs paper 9.8k).
#include <memory>

#include "bcae/model.hpp"
#include "core/act.hpp"
#include "core/conv.hpp"
#include "core/norm.hpp"
#include "core/pool.hpp"
#include "util/rng.hpp"

namespace nc::bcae {

namespace {

using core::Conv2d;
using core::Conv3d;
using core::ConvTranspose3d;
using core::InstanceNorm;
using core::LayerPtr;
using core::LeakyReLU;
using core::ResBlock;
using core::Sequential;

using A2 = std::array<std::int64_t, 2>;
using A3 = std::array<std::int64_t, 3>;

/// Algorithm 1: BCAE_encoder_2D(m, d).
std::unique_ptr<Sequential> build_encoder_2d(const Bcae2dConfig& cfg,
                                             util::Rng& rng) {
  auto net = std::make_unique<Sequential>("encoder2d");
  // L_in = Conv2D(i=16, o=32, k=7, p=3)
  net->add(std::make_unique<Conv2d>(cfg.input_channels, cfg.width, A2{7, 7},
                                    A2{1, 1}, A2{3, 3}, true, rng, "enc.in"));
  net->add(std::make_unique<LeakyReLU>(0.01f, "enc.in.act"));
  for (std::int64_t i = 1; i <= cfg.m; ++i) {
    const std::string tag = "enc.b" + std::to_string(i);
    if (i <= cfg.d) net->add(std::make_unique<core::AvgPool2d>(2, tag + ".pool"));
    // two residual blocks Res(i=32, o=32, k=3, p=1)
    net->add(ResBlock::make_2d(cfg.width, cfg.width, 3, 1, false, rng, tag + ".res1"));
    net->add(ResBlock::make_2d(cfg.width, cfg.width, 3, 1, false, rng, tag + ".res2"));
  }
  // L_out: 1x1 conv to the code channels (see file comment re o=16 vs 32).
  net->add(std::make_unique<Conv2d>(cfg.width, cfg.code_channels, A2{1, 1},
                                    A2{1, 1}, A2{0, 0}, true, rng, "enc.out"));
  return net;
}

/// Algorithm 2: BCAE_decoder_2D(n, d, A).  `transform_output` appends the
/// regression transform T; the segmentation head leaves raw logits (sigmoid
/// is folded into loss/mask).
std::unique_ptr<Sequential> build_decoder_2d(const Bcae2dConfig& cfg,
                                             util::Rng& rng, bool transform_output,
                                             const std::string& label) {
  auto net = std::make_unique<Sequential>(label);
  // The code has code_channels features; bring them to the trunk width.
  net->add(std::make_unique<Conv2d>(cfg.code_channels, cfg.width, A2{1, 1},
                                    A2{1, 1}, A2{0, 0}, true, rng, label + ".in"));
  net->add(std::make_unique<LeakyReLU>(0.01f, label + ".in.act"));
  for (std::int64_t i = 1; i <= cfg.n; ++i) {
    const std::string tag = label + ".b" + std::to_string(i);
    if (i <= cfg.d) net->add(std::make_unique<core::Upsample2d>(2, tag + ".up"));
    net->add(ResBlock::make_2d(cfg.width, cfg.width, 3, 1, false, rng, tag + ".res1"));
    net->add(ResBlock::make_2d(cfg.width, cfg.width, 3, 1, false, rng, tag + ".res2"));
  }
  // L_out = Conv2D(i=32, o=16, k=1), then the output activation A.
  net->add(std::make_unique<Conv2d>(cfg.width, cfg.input_channels, A2{1, 1},
                                    A2{1, 1}, A2{0, 0}, true, rng, label + ".out"));
  if (transform_output) {
    net->add(std::make_unique<core::OutputTransform>(6.f, 3.f, 4.f, label + ".T"));
  }
  return net;
}

/// 3-D encoder: 4 stages of [down-conv + act (+norm) + resblock], then the
/// code convolution.
std::unique_ptr<Sequential> build_encoder_3d(const Bcae3dConfig& cfg,
                                             util::Rng& rng) {
  auto net = std::make_unique<Sequential>("encoder3d");
  std::int64_t in_c = 1;
  for (int i = 0; i < 4; ++i) {
    const std::int64_t out_c = cfg.features[static_cast<std::size_t>(i)];
    const std::string tag = "enc.s" + std::to_string(i);
    // kernel (3,4,4), stride (1,2,2), pad (1,1,1): halves azim/horiz only.
    net->add(std::make_unique<Conv3d>(in_c, out_c, A3{3, 4, 4}, A3{1, 2, 2},
                                      A3{1, 1, 1}, true, rng, tag + ".down"));
    net->add(std::make_unique<LeakyReLU>(0.01f, tag + ".act"));
    if (cfg.use_norm) {
      net->add(std::make_unique<InstanceNorm>(out_c, 1e-5f, tag + ".norm"));
    }
    net->add(ResBlock::make_3d(out_c, out_c, A3{3, 3, 3}, A3{1, 1, 1},
                               cfg.use_norm, rng, tag + ".res"));
    in_c = out_c;
  }
  net->add(std::make_unique<Conv3d>(in_c, cfg.code_channels, A3{3, 3, 3},
                                    A3{1, 1, 1}, A3{1, 1, 1}, true, rng,
                                    "enc.out"));
  return net;
}

/// 3-D decoder: code conv up to the widest feature, 4 stages of
/// [resblock + transposed conv + act (+norm)], final 1-channel conv.
std::unique_ptr<Sequential> build_decoder_3d(const Bcae3dConfig& cfg,
                                             util::Rng& rng, bool transform_output,
                                             const std::string& label) {
  auto net = std::make_unique<Sequential>(label);
  std::int64_t in_c = cfg.code_channels;
  for (int i = 0; i < 4; ++i) {
    const std::int64_t out_c = cfg.decoder_features[static_cast<std::size_t>(i)];
    const std::string tag = label + ".s" + std::to_string(i);
    net->add(ResBlock::make_3d(in_c, in_c, A3{3, 3, 3}, A3{1, 1, 1},
                               cfg.use_norm, rng, tag + ".res"));
    net->add(std::make_unique<ConvTranspose3d>(in_c, out_c, A3{3, 4, 4},
                                               A3{1, 2, 2}, A3{1, 1, 1}, true,
                                               rng, tag + ".up"));
    net->add(std::make_unique<LeakyReLU>(0.01f, tag + ".act"));
    if (cfg.use_norm) {
      net->add(std::make_unique<InstanceNorm>(out_c, 1e-5f, tag + ".norm"));
    }
    in_c = out_c;
  }
  net->add(std::make_unique<Conv3d>(in_c, 1, A3{3, 3, 3}, A3{1, 1, 1},
                                    A3{1, 1, 1}, true, rng, label + ".out"));
  if (transform_output) {
    net->add(std::make_unique<core::OutputTransform>(6.f, 3.f, 4.f, label + ".T"));
  }
  return net;
}

}  // namespace

BcaeModel make_bcae_2d(const Bcae2dConfig& config, std::uint64_t seed) {
  util::Rng rng(seed);
  auto encoder = build_encoder_2d(config, rng);
  auto dec_seg = build_decoder_2d(config, rng, /*transform_output=*/false, "dseg");
  auto dec_reg = build_decoder_2d(config, rng, /*transform_output=*/true, "dreg");
  return BcaeModel(config.to_string(), /*is_3d=*/false, std::move(encoder),
                   std::move(dec_seg), std::move(dec_reg));
}

BcaeModel make_bcae_3d(const Bcae3dConfig& config, std::uint64_t seed,
                       std::string name) {
  util::Rng rng(seed);
  auto encoder = build_encoder_3d(config, rng);
  auto dec_seg = build_decoder_3d(config, rng, /*transform_output=*/false, "dseg");
  auto dec_reg = build_decoder_3d(config, rng, /*transform_output=*/true, "dreg");
  return BcaeModel(std::move(name), /*is_3d=*/true, std::move(encoder),
                   std::move(dec_seg), std::move(dec_reg));
}

}  // namespace nc::bcae
