/// \file checks.hpp
/// \brief Output checks of the repository benchmark, and its percentile rule.
///
/// Every check compares a program output against either a computation the
/// benchmark makes itself (a direct convolution, a code size worked out from
/// the architecture) or a property the method must have (exactly-once
/// ordered delivery, reconstructions that are 0 or >= 6).  Each check returns
/// an empty string on success and a one-line reason on failure, so the
/// self-tests can show every check firing on a corrupted output.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "codec/wedge_codec.hpp"
#include "core/tensor.hpp"
#include "tpc/geometry.hpp"

namespace perfbench {

/// Collects check outcomes; one failed check makes the run incorrect.
class CheckLog {
 public:
  /// Record one check; an empty `failure` means it passed.
  void expect(const std::string& failure, const std::string& what);
  bool ok() const { return failures_.empty(); }
  std::int64_t checks() const { return checks_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::int64_t checks_ = 0;
  std::vector<std::string> failures_;
};

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or nullopt when
/// fewer than `min_beyond` samples lie strictly above the reported rank — a
/// tail percentile read off too few samples is no tail.
std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_beyond = 10);

/// Median of `samples` (0 for an empty set).
double median(std::vector<double> samples);

/// Delivery check.  `delivered` lists sequence numbers in the order a sink
/// saw them.  With `ordered`, it must be exactly 0, 1, ..., expected-1;
/// otherwise every number in [0, expected) must appear exactly once.
std::string check_sequence(const std::vector<std::uint64_t>& delivered,
                           std::uint64_t expected, bool ordered);

/// BCAE-2D code size for a wedge: 32 code channels, three stride-2 stages,
/// so 32 * (azim/8) * (padded_horiz/8) elements (paper §3.1).
std::int64_t expected_code_elements(const nc::tpc::WedgeShape& shape);

/// The envelope carries `codec_id`, the original shape, and a BCAE payload
/// whose code holds exactly expected_code_elements(shape) values.
std::string check_bcae_envelope(const nc::codec::WedgeEnvelope& envelope,
                                std::uint8_t codec_id,
                                const nc::tpc::WedgeShape& shape);

/// Byte-for-byte equality of two envelopes (codec, shape and payload).
std::string check_same_envelope(const nc::codec::WedgeEnvelope& got,
                                const nc::codec::WedgeEnvelope& want);

/// Half/int8 code parity with the fp32 code of the same wedge (Table 2):
/// relative L2 distance at most `tolerance`.
std::string check_code_parity(const nc::codec::WedgeEnvelope& code,
                              const nc::codec::WedgeEnvelope& fp32_code,
                              double tolerance);

/// A decoded wedge has the original shape and every voxel is 0 (masked) or
/// at least 6 (the regression head's T(x) = 6 + 3 e^x).
std::string check_decoded_wedge(const nc::core::Tensor& wedge,
                                const nc::tpc::WedgeShape& shape);

/// Bitwise equality of two tensors (shape and values).
std::string check_same_tensor(const nc::core::Tensor& got,
                              const nc::core::Tensor& want);

/// Direct 2-D convolution, stride 1, zero padding `pad`, accumulated in
/// double: x (N, C, H, W), weight (O, C, K, K), bias (O) or empty.
nc::core::Tensor direct_conv2d(const nc::core::Tensor& x,
                               const nc::core::Tensor& weight,
                               const nc::core::Tensor& bias, std::int64_t pad);

/// max |got - want| <= tolerance * max |want|, shapes equal.
std::string check_close(const nc::core::Tensor& got,
                        const nc::core::Tensor& want, double tolerance);

}  // namespace perfbench
