/// \file test_checks.cpp
/// \brief Self-tests of the benchmark's output checks: each check passes on
///        a correct output and fires on a corrupted one, and the percentile
///        helper keeps its ">= 10 samples beyond" rule.
///
/// Self-contained (no test framework): prints one line per failed
/// expectation and exits non-zero if any failed.
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bcae/model.hpp"
#include "checks.hpp"
#include "codec/wedge_codec.hpp"
#include "model_profile.hpp"
#include "tpc/dataset.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}
void expect_pass(const std::string& failure, const std::string& what) {
  expect(failure.empty(), what + " should pass, got: " + failure);
}
void expect_fire(const std::string& failure, const std::string& what) {
  expect(!failure.empty(), what + " should fail");
}

using nc::core::Tensor;
using namespace perfbench;

void test_percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  // 100 samples: p90 = 90 has exactly 10 beyond it; p99 has 1.
  const auto p90 = percentile(v, 0.90);
  expect(p90.has_value() && *p90 == 90.0, "p90 of 1..100 is 90");
  expect(!percentile(v, 0.99).has_value(), "p99 of 100 samples is withheld");
  expect(!percentile(v, 0.91).has_value(), "p91 of 100 samples (9 beyond) is withheld");
  v.resize(99);
  expect(!percentile(v, 0.90).has_value(), "p90 of 99 samples (9 beyond) is withheld");
  std::vector<double> big;
  for (int i = 1000; i >= 1; --i) big.push_back(i);  // order must not matter
  const auto p99 = percentile(big, 0.99);
  expect(p99.has_value() && *p99 == 990.0, "p99 of 1000 samples is 990, 10 beyond");
  expect(!percentile({}, 0.5).has_value(), "empty sample has no percentile");
  expect(median({3, 1, 2}) == 2.0 && median({4, 1, 2, 3}) == 2.5, "median");
}

void test_sequence() {
  const std::vector<std::uint64_t> ok = {0, 1, 2, 3, 4};
  expect_pass(check_sequence(ok, 5, true), "ordered identity");
  expect_pass(check_sequence({3, 0, 4, 1, 2}, 5, false), "unordered permutation");
  expect_fire(check_sequence({0, 1, 3, 4}, 5, true), "dropped seq (ordered)");
  expect_fire(check_sequence({0, 1, 3, 4}, 5, false), "dropped seq (unordered)");
  expect_fire(check_sequence({0, 2, 1, 3, 4}, 5, true), "reordered seq");
  expect_fire(check_sequence({0, 1, 1, 3, 4}, 5, false), "duplicated seq");
  expect_fire(check_sequence({0, 1, 2, 3, 4, 5}, 5, true), "extra seq");
}

struct Fixture {
  nc::tpc::WedgeShape shape;
  std::vector<Tensor> wedges;
  nc::bcae::BcaeModel model;
};

Fixture make_fixture() {
  nc::tpc::DatasetConfig cfg;
  cfg.geometry = nc::tpc::TpcGeometry::bench_scale();
  cfg.n_events = 1;
  cfg.seed = 7;
  const auto ds = nc::tpc::WedgeDataset::generate(cfg);
  std::vector<Tensor> wedges;
  for (std::size_t i = 0; i < 2; ++i) {
    wedges.push_back(nc::tpc::clip_horizontal(ds.train()[i], ds.valid_horiz()));
  }
  return {ds.wedge_shape(), std::move(wedges),
          nc::bcae::make_bcae_2d(nc::bcae::Bcae2dConfig{}, 20231023)};
}

void test_envelopes(Fixture& f) {
  const auto fp16 = nc::codec::make_wedge_codec("bcae-fp16", f.model);
  const auto int8 = nc::codec::make_wedge_codec("bcae-int8", f.model);
  const auto fp32 = nc::codec::make_wedge_codec("bcae-fp32", f.model);
  const auto& w = f.wedges[0];
  const auto env = fp16->compress(w);
  const auto ref = fp32->compress(w);

  expect(expected_code_elements(f.shape) == 32 * (48 / 8) * (64 / 8),
         "code size of a (16, 48, 62) wedge is 32 * 6 * 8");
  expect_pass(check_bcae_envelope(env, fp16->codec_id(), f.shape), "fp16 envelope");
  expect_fire(check_bcae_envelope(env, fp32->codec_id(), f.shape), "wrong codec id");
  auto wrong_shape = f.shape;
  wrong_shape.azim = 96;
  expect_fire(check_bcae_envelope(env, fp16->codec_id(), wrong_shape),
              "code size of another shape");

  expect_pass(check_same_envelope(env, fp16->compress(w)), "recompressed envelope");
  auto flipped = env;
  flipped.payload[flipped.payload.size() - 3] ^= 0x01;  // a code mantissa bit
  expect_fire(check_same_envelope(flipped, env), "flipped payload byte");
  auto truncated = env;
  truncated.payload.pop_back();
  expect_fire(check_bcae_envelope(truncated, fp16->codec_id(), f.shape),
              "truncated payload");

  expect_pass(check_code_parity(env, ref, 3e-3), "fp16 parity with fp32");
  expect_pass(check_code_parity(int8->compress(w), ref, 6e-2), "int8 parity with fp32");
  expect_fire(check_code_parity(fp16->compress(f.wedges[1]), ref, 3e-3),
              "code of another wedge");
  auto hi = env;
  hi.payload[hi.payload.size() - 1] ^= 0x40;  // high exponent bit of the last code
  expect_fire(check_code_parity(hi, ref, 3e-3), "flipped exponent bit");
}

void test_decoded(Fixture& f) {
  const auto fp32 = nc::codec::make_wedge_codec("bcae-fp32", f.model);
  const auto env = fp32->compress(f.wedges[0]);
  const Tensor decoded = fp32->decompress(env);
  expect_pass(check_decoded_wedge(decoded, f.shape), "decoded wedge");
  expect_pass(check_same_tensor(decoded, fp32->decompress(env)), "decode is repeatable");

  Tensor bad = decoded.clone();
  bad[bad.numel() / 2] = 3.0f;
  expect_fire(check_decoded_wedge(bad, f.shape), "voxel set to 3.0");
  expect_fire(check_same_tensor(bad, decoded), "changed voxel");
  bad[bad.numel() / 2] = NAN;
  expect_fire(check_decoded_wedge(bad, f.shape), "NaN voxel");
  expect_fire(check_decoded_wedge(decoded.reshaped({16, 62, 48}), f.shape),
              "transposed shape");
}

void test_enc_in(Fixture& f) {
  const Tensor batch = padded_batch({f.wedges[0]});
  for (auto mode : {nc::core::Mode::kEval, nc::core::Mode::kEvalHalf,
                    nc::core::Mode::kEvalInt8}) {
    const auto tag = "mode " + std::to_string(static_cast<int>(mode));
    auto pair = enc_in_outputs(f.model, mode, batch);
    expect_pass(check_close(pair.program, pair.direct, enc_in_tolerance(mode)),
                tag + " enc.in matches direct convolution");
    // Perturb one output by 10% of the output range.
    double range = 0.0;
    for (std::int64_t i = 0; i < pair.direct.numel(); ++i) {
      range = std::max(range, std::fabs(static_cast<double>(pair.direct[i])));
    }
    pair.program[pair.program.numel() / 3] += static_cast<float>(0.1 * range);
    expect_fire(check_close(pair.program, pair.direct, enc_in_tolerance(mode)),
                tag + " perturbed enc.in output");
  }
  Tensor x({1, 1, 3, 3});
  for (int i = 0; i < 9; ++i) x[i] = static_cast<float>(i + 1);
  Tensor w({1, 1, 3, 3});
  w[4] = 1.f;  // identity kernel
  const Tensor y = direct_conv2d(x, w, Tensor::full({1}, 0.5f), 1);
  expect(y.shape() == nc::core::Shape{1, 1, 3, 3} && y[0] == 1.5f && y[8] == 9.5f,
         "direct_conv2d applies kernel and bias");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_sequence();
  Fixture f = make_fixture();
  test_envelopes(f);
  test_decoded(f);
  test_enc_in(f);
  if (g_failures == 0) std::printf("perfbench checks: all expectations hold\n");
  return g_failures == 0 ? 0 : 1;
}
