/// The codec-pluggable contract, held uniformly: every registered WedgeCodec
/// must round-trip bit-exactly through the streamed deployment path,
/// corrupt envelopes must fail loudly at the right layer (deserialize for
/// unknown ids, wedges_failed for poisoned payloads and wrong-codec
/// decodes), and the spill tier must stay lossless under a baseline codec
/// just as it does under the BCAE.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "codec/stream.hpp"
#include "codec/wedge_codec.hpp"
#include "tests/stream_test_utils.hpp"
#include "util/serialize.hpp"

namespace {

using nc::codec::StreamCompressor;
using nc::codec::StreamDecompressor;
using nc::codec::StreamOptions;
using nc::codec::WedgeCodec;
using nc::codec::WedgeCodecId;
using nc::codec::WedgeEnvelope;
using nc::core::Tensor;
using nc::testutil::expect_bit_identical;
using nc::testutil::PipelineVariant;
using nc::testutil::raw_wedge;
using nc::util::SerializeError;

/// One model shared by every arena instantiation: the BCAE adapters borrow
/// it, the baselines ignore it.  BCAE-2D matches the deployment example
/// (streaming_daq); its saturating fp16 activation cast keeps the untrained
/// decoder finite, so bit-exactness assertions never compare NaNs.
nc::bcae::BcaeModel& arena_model() {
  static nc::bcae::BcaeModel model =
      nc::bcae::make_bcae_2d(nc::bcae::Bcae2dConfig{}, 81);
  return model;
}

std::unique_ptr<WedgeCodec> arena_codec(const std::string& name) {
  return nc::codec::make_wedge_codec(name, arena_model());
}

std::string serialized(const WedgeEnvelope& env) {
  std::ostringstream os;
  env.serialize(os);
  return os.str();
}

/// Every registered codec, under each pool variant.
class CodecArena : public ::testing::TestWithParam<
                       std::tuple<PipelineVariant, std::string>> {
 protected:
  StreamOptions base_options() const {
    return nc::testutil::variant_options(std::get<0>(GetParam()));
  }
  std::string codec_name() const { return std::get<1>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecArena,
    ::testing::Combine(
        ::testing::Values(PipelineVariant::kAdaptive,
                          PipelineVariant::kFixedDrain,
                          PipelineVariant::kElastic),
        ::testing::ValuesIn(nc::codec::registered_codec_names())),
    [](const ::testing::TestParamInfo<std::tuple<PipelineVariant, std::string>>&
           tpi) {
      std::string name =
          std::string(nc::testutil::to_string(std::get<0>(tpi.param))) + "_" +
          std::get<1>(tpi.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_P(CodecArena, StreamRoundTripMatchesDirectCodecCallsBitExact) {
  const auto codec = arena_codec(codec_name());
  const int n = 5;

  // Ground truth: direct (unstreamed) codec calls on the same wedges.
  std::vector<WedgeEnvelope> direct;
  std::vector<Tensor> direct_decoded;
  for (int i = 0; i < n; ++i) {
    direct.push_back(codec->compress(raw_wedge(static_cast<std::size_t>(i))));
    direct_decoded.push_back(codec->decompress(direct.back()));
  }

  StreamOptions opt = base_options();
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  opt.n_workers = 2;

  // Write side: streamed envelopes must be byte-identical to direct ones.
  std::mutex store_mutex;
  std::map<std::uint64_t, WedgeEnvelope> storage;
  StreamCompressor compressor(*codec, opt,
                              [&](std::uint64_t seq, WedgeEnvelope&& env) {
                                std::lock_guard<std::mutex> lock(store_mutex);
                                storage.emplace(seq, std::move(env));
                              });
  for (int i = 0; i < n; ++i) {
    compressor.submit(raw_wedge(static_cast<std::size_t>(i)));
  }
  const auto cstats = compressor.finish();
  EXPECT_EQ(cstats.wedges_compressed, n);
  EXPECT_EQ(cstats.wedges_failed, 0);
  ASSERT_EQ(storage.size(), static_cast<std::size_t>(n));
  std::int64_t payload_total = 0;
  for (int i = 0; i < n; ++i) {
    const auto& env = storage.at(static_cast<std::uint64_t>(i));
    const auto& want = direct[static_cast<std::size_t>(i)];
    EXPECT_EQ(env.codec_id, codec->codec_id());
    EXPECT_EQ(env.wedge_shape, want.wedge_shape);
    EXPECT_EQ(serialized(env), serialized(want)) << "wedge " << i;
    payload_total += env.payload_bytes();
  }
  EXPECT_EQ(cstats.payload_bytes, payload_total);

  // Read side: a serialize/deserialize hop (the storage format), then the
  // streamed decode must match the direct decode voxel for voxel.
  StreamOptions dopt = opt;
  dopt.ordered = true;
  std::vector<Tensor> decoded;
  StreamDecompressor decompressor(
      *codec, dopt, [&](std::uint64_t, Tensor&& w) { decoded.push_back(std::move(w)); });
  for (const auto& [seq, env] : storage) {
    std::istringstream is(serialized(env));
    decompressor.submit(WedgeEnvelope::deserialize(is));
  }
  const auto dstats = decompressor.finish();
  EXPECT_EQ(dstats.wedges_compressed, n);
  EXPECT_EQ(dstats.wedges_failed, 0);
  ASSERT_EQ(decoded.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    expect_bit_identical(decoded[static_cast<std::size_t>(i)],
                         direct_decoded[static_cast<std::size_t>(i)]);
  }
}

TEST_P(CodecArena, TruncatedPayloadFailsWedgeWithoutKillingStream) {
  const auto codec = arena_codec(codec_name());
  const int n = 4;
  std::vector<WedgeEnvelope> envs;
  for (int i = 0; i < n; ++i) {
    envs.push_back(codec->compress(raw_wedge(static_cast<std::size_t>(i))));
  }
  // Every codec's payload embeds structure (CompressedWedge header or the
  // baseline bitstream); cutting it in half must fail decode, not crash.
  envs[1].payload.resize(envs[1].payload.size() / 2);

  StreamOptions opt = base_options();
  opt.batch_size = 1;  // contain the failure to the poisoned wedge
  opt.n_workers = 2;
  std::atomic<int> decoded{0};
  StreamDecompressor stream(*codec, opt,
                            [&](std::uint64_t, Tensor&&) { ++decoded; });
  for (const auto& env : envs) stream.submit(env);
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_failed, 1);
  EXPECT_EQ(stats.wedges_compressed, n - 1);
  EXPECT_EQ(decoded.load(), n - 1);
}

// --- envelope wire-format hardening (codec-independent) ---------------------

// Wire layout: magic "NCMP"+"WENV" (8) | u32 version (at 8) | u32 codec_id
// (at 12) | 3x i64 wedge dims (at 16) | u64 payload length (at 40) | payload.
constexpr std::size_t kEnvVersionOffset = 8;
constexpr std::size_t kEnvCodecIdOffset = 12;
constexpr std::size_t kEnvPayloadLenOffset = 40;

TEST(WedgeEnvelope, DeserializeRejectsUnknownCodecId) {
  const auto codec = arena_codec("zfp");
  auto bytes = serialized(codec->compress(raw_wedge(0)));
  bytes[kEnvCodecIdOffset] = 0x7F;  // id 127: in no registry, present or future
  std::istringstream is(bytes);
  EXPECT_THROW((void)WedgeEnvelope::deserialize(is), SerializeError);
}

TEST(WedgeEnvelope, DeserializeRejectsVersionBump) {
  const auto codec = arena_codec("sz");
  auto bytes = serialized(codec->compress(raw_wedge(0)));
  bytes[kEnvVersionOffset] = 0x2;  // version 2 does not exist yet
  std::istringstream is(bytes);
  EXPECT_THROW((void)WedgeEnvelope::deserialize(is), SerializeError);
}

TEST(WedgeEnvelope, DeserializeRejectsPayloadLengthBeyondBuffer) {
  // A length field pointing past the end of the actual bytes must surface
  // as SerializeError from the bounded payload read — not a giant
  // allocation, not a short read silently accepted.
  const auto codec = arena_codec("zfp");
  auto bytes = serialized(codec->compress(raw_wedge(0)));
  const std::uint64_t claimed =
      bytes.size();  // > remaining payload by the header size
  std::memcpy(bytes.data() + kEnvPayloadLenOffset, &claimed, sizeof(claimed));
  std::istringstream is(bytes);
  EXPECT_THROW((void)WedgeEnvelope::deserialize(is), SerializeError);
}

TEST(WedgeEnvelope, DeserializeRejectsHugePayloadLengthWithoutAllocating) {
  // Same attack with an absurd length: the plausibility cap must reject it
  // before any allocation happens.
  const auto codec = arena_codec("sz");
  auto bytes = serialized(codec->compress(raw_wedge(0)));
  const std::uint64_t claimed = std::uint64_t{1} << 62;
  std::memcpy(bytes.data() + kEnvPayloadLenOffset, &claimed, sizeof(claimed));
  std::istringstream is(bytes);
  EXPECT_THROW((void)WedgeEnvelope::deserialize(is), SerializeError);
}

TEST(WedgeEnvelope, DeserializeRejectsTruncatedStream) {
  const auto codec = arena_codec("mgard");
  const auto bytes = serialized(codec->compress(raw_wedge(0)));
  std::istringstream is(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW((void)WedgeEnvelope::deserialize(is), SerializeError);
}

TEST(WedgeEnvelope, WrongCodecDecodeThrowsDirectly) {
  const auto zfp = arena_codec("zfp");
  const auto sz = arena_codec("sz");
  const auto env = zfp->compress(raw_wedge(0));
  EXPECT_THROW((void)sz->decompress(env), std::invalid_argument);
}

TEST(WedgeEnvelope, WrongCodecStreamDecodeLandsInFailed) {
  // A mixed-up deployment: zfp-tagged envelopes fed to an sz-backed
  // decompressor.  Every wedge must land in wedges_failed — never be
  // misdecoded with the wrong mechanism — and the workers must survive.
  const auto zfp = arena_codec("zfp");
  const auto sz = arena_codec("sz");
  const int n = 4;
  StreamOptions opt;
  opt.batch_size = 1;
  opt.n_workers = 2;
  std::atomic<int> decoded{0};
  StreamDecompressor stream(*sz, opt,
                            [&](std::uint64_t, Tensor&&) { ++decoded; });
  for (int i = 0; i < n; ++i) {
    stream.submit(zfp->compress(raw_wedge(static_cast<std::size_t>(i))));
  }
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_failed, n);
  EXPECT_EQ(stats.wedges_compressed, 0);
  EXPECT_EQ(decoded.load(), 0);
}

// --- spill tier under a baseline codec --------------------------------------

TEST(CodecArenaSpill, BaselineCodecSpillReplayCycleIsLossless) {
  // The read-side spill stores serialized WedgeEnvelope bytes, so the tier
  // must be codec-agnostic: a burst of mgard envelopes beyond the intake
  // bound lands on disk and every wedge still comes out.
  const auto codec = arena_codec("mgard");
  const int n = 48;
  std::vector<WedgeEnvelope> envs;
  for (int i = 0; i < n; ++i) {
    envs.push_back(codec->compress(raw_wedge(static_cast<std::size_t>(i))));
  }

  StreamOptions opt;
  opt.queue_capacity = 4;  // force the burst past the intake bound
  opt.batch_size = 2;
  opt.n_workers = 1;
  opt.spill_dir = ::testing::TempDir() + "nc-codec-arena-spill";
  opt.spill_deadline_s = 10.0;
  std::atomic<int> decoded{0};
  StreamDecompressor stream(*codec, opt,
                            [&](std::uint64_t, Tensor&&) { ++decoded; });
  for (const auto& env : envs) {
    EXPECT_TRUE(stream.try_submit(env));  // accepted or spilled, never lost
  }
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_replayed, stats.wedges_spilled);
  EXPECT_EQ(decoded.load(), n);
  std::filesystem::remove_all(opt.spill_dir);
}

}  // namespace
