#include "model_profile.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "checks.hpp"
#include "core/conv.hpp"
#include "tpc/dataset.hpp"

namespace perfbench {

using nc::core::Mode;
using nc::core::Tensor;

double ChainTimes::total_ms() const {
  double t = 0.0;
  for (const auto& [label, ms] : layer_ms) t += ms;
  return t;
}

Tensor padded_batch(const std::vector<Tensor>& wedges) {
  const auto& s = wedges.front().shape();
  const std::int64_t padded = (s[2] + 15) / 16 * 16;
  Tensor batch({static_cast<std::int64_t>(wedges.size()), s[0], s[1], padded});
  const std::int64_t stride = s[0] * s[1] * padded;
  for (std::size_t i = 0; i < wedges.size(); ++i) {
    const Tensor p = nc::tpc::pad_wedge(wedges[i], padded);
    std::copy(p.data(), p.data() + stride,
              batch.data() + static_cast<std::int64_t>(i) * stride);
  }
  return batch;
}

namespace {

Tensor run_chain(nc::core::Sequential& chain, Mode mode, Tensor x,
                 ChainTimes& times) {
  using clock = std::chrono::steady_clock;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    auto& layer = chain.layer(i);
    const auto t0 = clock::now();
    x = layer.forward(x, mode);
    const auto t1 = clock::now();
    times.layer_ms.emplace_back(
        layer.name(), std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return x;
}

nc::core::Conv2d& enc_in_layer(nc::bcae::BcaeModel& model) {
  auto* conv = dynamic_cast<nc::core::Conv2d*>(&model.encoder().layer(0));
  if (conv == nullptr || conv->name() != "enc.in") {
    throw std::runtime_error("encoder layer 0 is not the enc.in Conv2d");
  }
  return *conv;
}

}  // namespace

ModelProfile profile_model(nc::bcae::BcaeModel& model, Mode mode,
                           const Tensor& batch) {
  ModelProfile p;
  p.batch = batch.dim(0);
  const Tensor code = run_chain(model.encoder(), mode, batch, p.encoder);
  run_chain(model.decoder_seg(), mode, code, p.decoder_seg);
  run_chain(model.decoder_reg(), mode, code, p.decoder_reg);
  const auto& w = enc_in_layer(model).weight().value;  // (O, C, K, K)
  // Stride 1, "same" padding: one output pixel per input pixel.
  p.enc_in_flops = 2.0 * static_cast<double>(p.batch) *
                   static_cast<double>(w.numel()) *
                   static_cast<double>(batch.dim(2) * batch.dim(3));
  return p;
}

EncInPair enc_in_outputs(nc::bcae::BcaeModel& model, Mode mode,
                         const Tensor& batch) {
  auto& conv = enc_in_layer(model);
  std::vector<nc::core::Param*> params;
  conv.collect_params(params);
  const Tensor bias = params.size() > 1 ? params[1]->value : Tensor();
  const auto& w = conv.weight().value;
  return {conv.forward(batch, mode),
          direct_conv2d(batch, w, bias, w.dim(2) / 2)};
}

double enc_in_tolerance(Mode mode) {
  switch (mode) {
    case Mode::kEvalHalf: return 2e-3;
    case Mode::kEvalInt8: return 5e-2;
    default: return 1e-5;
  }
}

}  // namespace perfbench
