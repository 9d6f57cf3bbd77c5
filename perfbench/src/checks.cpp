#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "codec/bcae_codec.hpp"
#include "util/half.hpp"

namespace perfbench {

using nc::codec::CompressedWedge;
using nc::codec::WedgeEnvelope;
using nc::core::Tensor;

void CheckLog::expect(const std::string& failure, const std::string& what) {
  ++checks_;
  if (!failure.empty()) failures_.push_back(what + ": " + failure);
}

std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_beyond) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  // Nearest rank: the smallest value with at least q*n samples at or below.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string check_sequence(const std::vector<std::uint64_t>& delivered,
                           std::uint64_t expected, bool ordered) {
  if (delivered.size() != expected) {
    return "delivered " + std::to_string(delivered.size()) + " of " +
           std::to_string(expected);
  }
  if (ordered) {
    for (std::uint64_t i = 0; i < expected; ++i) {
      if (delivered[i] != i) {
        return "position " + std::to_string(i) + " holds seq " +
               std::to_string(delivered[i]);
      }
    }
    return {};
  }
  std::vector<bool> seen(expected, false);
  for (const auto seq : delivered) {
    if (seq >= expected) return "seq " + std::to_string(seq) + " out of range";
    if (seen[seq]) return "seq " + std::to_string(seq) + " delivered twice";
    seen[seq] = true;
  }
  return {};
}

std::int64_t expected_code_elements(const nc::tpc::WedgeShape& shape) {
  return 32 * (shape.azim / 8) * (shape.padded_horiz() / 8);
}

namespace {

CompressedWedge parse_bcae(const WedgeEnvelope& envelope) {
  std::istringstream is(std::string(envelope.payload.begin(),
                                    envelope.payload.end()));
  return CompressedWedge::deserialize(is);
}

std::vector<float> code_values(const WedgeEnvelope& envelope) {
  const auto cw = parse_bcae(envelope);
  std::vector<float> out(cw.code.size());
  nc::util::half_to_float_n(cw.code.data(), out.data(),
                            static_cast<std::int64_t>(out.size()));
  return out;
}

/// ||a - ref||_2 / ||ref||_2 of two BCAE codes.
double code_relative_l2(const WedgeEnvelope& code,
                        const WedgeEnvelope& reference) {
  const auto a = code_values(code);
  const auto r = code_values(reference);
  if (a.size() != r.size()) return INFINITY;
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(r[i]);
    num += d * d;
    den += static_cast<double>(r[i]) * static_cast<double>(r[i]);
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

}  // namespace

std::string check_bcae_envelope(const WedgeEnvelope& envelope,
                                std::uint8_t codec_id,
                                const nc::tpc::WedgeShape& shape) {
  if (envelope.codec_id != codec_id) {
    return "codec id " + std::to_string(envelope.codec_id) + ", want " +
           std::to_string(codec_id);
  }
  if (!(envelope.wedge_shape == shape)) {
    return "shape " + envelope.wedge_shape.to_string() + ", want " +
           shape.to_string();
  }
  try {
    const auto cw = parse_bcae(envelope);
    const auto want = expected_code_elements(shape);
    if (static_cast<std::int64_t>(cw.code.size()) != want ||
        nc::core::shape_numel(cw.code_shape) != want) {
      return "code holds " + std::to_string(cw.code.size()) + " elements, want " +
             std::to_string(want);
    }
  } catch (const std::exception& e) {
    return std::string("payload does not parse: ") + e.what();
  }
  return {};
}

std::string check_same_envelope(const WedgeEnvelope& got,
                                const WedgeEnvelope& want) {
  if (got.codec_id != want.codec_id) return "codec id differs";
  if (!(got.wedge_shape == want.wedge_shape)) return "shape differs";
  if (got.payload.size() != want.payload.size()) return "payload size differs";
  const auto diff =
      std::mismatch(got.payload.begin(), got.payload.end(), want.payload.begin());
  if (diff.first != got.payload.end()) {
    return "payload byte " +
           std::to_string(diff.first - got.payload.begin()) + " differs";
  }
  return {};
}

std::string check_code_parity(const WedgeEnvelope& code,
                              const WedgeEnvelope& fp32_code,
                              double tolerance) {
  double rel = 0.0;
  try {
    rel = code_relative_l2(code, fp32_code);
  } catch (const std::exception& e) {
    return std::string("payload does not parse: ") + e.what();
  }
  // Written so a NaN distance fails too.
  if (!(rel <= tolerance)) {
    return "relative L2 " + std::to_string(rel) + " > " +
           std::to_string(tolerance);
  }
  return {};
}

std::string check_decoded_wedge(const Tensor& wedge,
                                const nc::tpc::WedgeShape& shape) {
  const nc::core::Shape want{shape.radial, shape.azim, shape.horiz};
  if (wedge.shape() != want) {
    return "shape " + nc::core::shape_to_string(wedge.shape()) + ", want " +
           nc::core::shape_to_string(want);
  }
  for (std::int64_t i = 0; i < wedge.numel(); ++i) {
    const float v = wedge[i];
    if (!(v == 0.f || v >= 6.f)) {
      return "voxel " + std::to_string(i) + " = " + std::to_string(v) +
             " (neither 0 nor >= 6)";
    }
  }
  return {};
}

std::string check_same_tensor(const Tensor& got, const Tensor& want) {
  if (got.shape() != want.shape()) return "shape differs";
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    if (got[i] != want[i] && !(std::isnan(got[i]) && std::isnan(want[i]))) {
      return "element " + std::to_string(i) + " differs";
    }
  }
  return {};
}

Tensor direct_conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
                     std::int64_t pad) {
  const auto n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const auto o = weight.dim(0), k = weight.dim(2);
  const auto oh = h + 2 * pad - k + 1, ow = w + 2 * pad - k + 1;
  Tensor out({n, o, oh, ow});
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t oc = 0; oc < o; ++oc) {
      const double b0 = bias.empty() ? 0.0 : static_cast<double>(bias[oc]);
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xx = 0; xx < ow; ++xx) {
          double acc = b0;
          for (std::int64_t ic = 0; ic < c; ++ic) {
            for (std::int64_t ky = 0; ky < k; ++ky) {
              const auto iy = y + ky - pad;
              if (iy < 0 || iy >= h) continue;
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const auto ix = xx + kx - pad;
                if (ix < 0 || ix >= w) continue;
                acc += static_cast<double>(
                           weight[((oc * c + ic) * k + ky) * k + kx]) *
                       static_cast<double>(x[((b * c + ic) * h + iy) * w + ix]);
              }
            }
          }
          out[((b * o + oc) * oh + y) * ow + xx] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

std::string check_close(const Tensor& got, const Tensor& want,
                        double tolerance) {
  if (got.shape() != want.shape()) {
    return "shape " + nc::core::shape_to_string(got.shape()) + ", want " +
           nc::core::shape_to_string(want.shape());
  }
  double scale = 0.0, worst = 0.0;
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    scale = std::max(scale, std::fabs(static_cast<double>(want[i])));
    const double d =
        std::fabs(static_cast<double>(got[i]) - static_cast<double>(want[i]));
    // NaN compares false: make it the worst error.
    worst = d <= worst ? worst : (std::isnan(d) ? INFINITY : d);
  }
  if (!(worst <= tolerance * scale)) {
    return "max error " + std::to_string(worst) + " > " +
           std::to_string(tolerance) + " x max|ref| " + std::to_string(scale);
  }
  return {};
}

}  // namespace perfbench
