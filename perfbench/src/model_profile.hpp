/// \file model_profile.hpp
/// \brief The benchmark's model-layer view: per-layer timing of the three
///        BCAE chains and the direct-convolution check of `enc.in`.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "bcae/model.hpp"
#include "core/tensor.hpp"

namespace perfbench {

/// Wall time of each top-level layer of one chain, in chain order.
struct ChainTimes {
  std::vector<std::pair<std::string, double>> layer_ms;
  double total_ms() const;
};

struct ModelProfile {
  std::int64_t batch = 0;  ///< wedges in the profiled batch
  ChainTimes encoder, decoder_seg, decoder_reg;
  double enc_in_flops = 0.0;  ///< multiply-adds x 2 of `enc.in` on the batch
};

/// Stack unpadded wedges into a padded (N, radial, azim, padded_horiz)
/// network batch, the layout BcaeCodec feeds the encoder.
nc::core::Tensor padded_batch(const std::vector<nc::core::Tensor>& wedges);

/// Time every top-level layer's forward in encoder(), decoder_seg() and
/// decoder_reg() on one batch, on the calling thread.  The decoders run on
/// the encoder's output, as BcaeCodec::decompress feeds them.
ModelProfile profile_model(nc::bcae::BcaeModel& model, nc::core::Mode mode,
                           const nc::core::Tensor& batch);

/// The output of `enc.in` (encoder layer 0) on `batch` in `mode`, and the
/// same convolution computed directly from that layer's weights and bias.
struct EncInPair {
  nc::core::Tensor program;
  nc::core::Tensor direct;
};
EncInPair enc_in_outputs(nc::bcae::BcaeModel& model, nc::core::Mode mode,
                         const nc::core::Tensor& batch);

/// Tolerance (relative to max |direct|) of enc.in's output in `mode`:
/// fp32 accumulates in float, fp16 stores inputs and weights in binary16,
/// int8 quantizes both.
double enc_in_tolerance(nc::core::Mode mode);

}  // namespace perfbench
