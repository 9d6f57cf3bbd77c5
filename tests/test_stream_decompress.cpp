/// Read-side streaming: StreamDecompressor round-trips, batched decode
/// equivalence, and corrupt-input containment.  The write side feeds the
/// read side exactly as the deployment does: compress -> serialize ->
/// deserialize -> decompress.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "codec/bcae_codec.hpp"
#include "codec/stream.hpp"
#include "tests/stream_test_utils.hpp"

namespace {

using nc::codec::BcaeCodec;
using nc::codec::BcaeWedgeCodec;
using nc::codec::CompressedWedge;
using nc::codec::StreamCompressor;
using nc::codec::StreamDecompressor;
using nc::codec::StreamOptions;
using nc::codec::WedgeEnvelope;
using nc::core::Mode;
using nc::core::Tensor;
using nc::testutil::compressed_wedges;
using nc::testutil::enveloped_wedges;
using nc::testutil::expect_bit_identical;
using nc::testutil::raw_wedge;

TEST(BcaeCodec, DecompressBatchMatchesSingleDecompression) {
  auto model = nc::bcae::make_bcae_ht(67);
  BcaeCodec codec(model, Mode::kEval);
  const auto cws = compressed_wedges(codec, 4);
  const auto batch = codec.decompress_batch(cws);
  ASSERT_EQ(batch.size(), cws.size());
  for (std::size_t i = 0; i < cws.size(); ++i) {
    expect_bit_identical(batch[i], codec.decompress(cws[i]));
  }
}

TEST(BcaeCodec, DecompressBatchRejectsInconsistentPayload) {
  auto model = nc::bcae::make_bcae_ht(69);
  BcaeCodec codec(model, Mode::kEval);
  auto cw = codec.compress(raw_wedge(0));
  cw.code.resize(cw.code.size() / 2);  // payload no longer matches the shape
  EXPECT_THROW(codec.decompress_batch({cw}), std::invalid_argument);
  CompressedWedge empty_shape = codec.compress(raw_wedge(0));
  empty_shape.code_shape.clear();
  EXPECT_THROW((void)codec.decompress(empty_shape), std::invalid_argument);
}

TEST(StreamDecompressor, UnorderedSingleWorkerMatchesDirectDecompress) {
  auto model = nc::bcae::make_bcae_ht(71);
  BcaeWedgeCodec codec(model, Mode::kEval);
  const int n = 6;
  const auto cws = enveloped_wedges(codec, n);

  StreamOptions opt;
  opt.queue_capacity = 16;
  opt.batch_size = 2;
  opt.n_workers = 1;
  std::map<std::uint64_t, Tensor> decoded;  // single worker: no lock needed
  StreamDecompressor stream(codec, opt,
                            [&](std::uint64_t seq, Tensor&& wedge) {
                              decoded.emplace(seq, std::move(wedge));
                            });
  for (const auto& cw : cws) stream.submit(cw);
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_failed, 0);
  EXPECT_GT(stats.throughput_wps(), 0.0);
  ASSERT_EQ(decoded.size(), static_cast<std::size_t>(n));
  std::int64_t decoded_bytes = 0;
  for (int i = 0; i < n; ++i) {
    const auto& wedge = decoded.at(static_cast<std::uint64_t>(i));
    expect_bit_identical(wedge, codec.decompress(cws[static_cast<std::size_t>(i)]));
    decoded_bytes += wedge.numel() * 2;
  }
  EXPECT_EQ(stats.payload_bytes, decoded_bytes);  // fp16-accounted output volume
}

/// The multi-worker read-side contracts, under each pool variant.
class StreamDecompressorVariant : public nc::testutil::PipelineVariantTest {};

NC_INSTANTIATE_PIPELINE_VARIANTS(StreamDecompressorVariant);

TEST_P(StreamDecompressorVariant, UnorderedFourWorkersMatchesDirectDecompress) {
  auto model = nc::bcae::make_bcae_ht(73);
  BcaeWedgeCodec codec(model, Mode::kEval);
  const int n = 16;
  const auto cws = enveloped_wedges(codec, n);

  StreamOptions opt = base_options();
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  opt.n_workers = 4;
  std::mutex decoded_mutex;  // unordered sink runs concurrently
  std::map<std::uint64_t, Tensor> decoded;
  StreamDecompressor stream(codec, opt,
                            [&](std::uint64_t seq, Tensor&& wedge) {
                              std::lock_guard<std::mutex> lock(decoded_mutex);
                              decoded.emplace(seq, std::move(wedge));
                            });
  for (const auto& cw : cws) stream.submit(cw);
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_failed, 0);
  ASSERT_EQ(decoded.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    expect_bit_identical(decoded.at(static_cast<std::uint64_t>(i)),
                         codec.decompress(cws[static_cast<std::size_t>(i)]));
  }
}

TEST_P(StreamDecompressorVariant, OrderedFourWorkersEmitInSubmissionOrder) {
  auto model = nc::bcae::make_bcae_ht(75);
  BcaeWedgeCodec codec(model, Mode::kEval);
  const int n = 12;
  const auto cws = enveloped_wedges(codec, n);

  StreamOptions opt = base_options();
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  opt.n_workers = 4;
  opt.ordered = true;
  opt.reorder_capacity = 4;  // exercise the bounded buffer on the read side
  std::vector<std::uint64_t> seqs;  // ordered sink: serialized, no lock
  std::vector<Tensor> decoded;
  StreamDecompressor stream(codec, opt,
                            [&](std::uint64_t seq, Tensor&& wedge) {
                              seqs.push_back(seq);
                              decoded.push_back(std::move(wedge));
                            });
  for (const auto& cw : cws) stream.submit(cw);
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(seqs[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
    expect_bit_identical(decoded[static_cast<std::size_t>(i)],
                         codec.decompress(cws[static_cast<std::size_t>(i)]));
  }
}

TEST_P(StreamDecompressorVariant, PoisonedPayloadLandsInFailedWithoutKillingWorkers) {
  auto model = nc::bcae::make_bcae_ht(77);
  BcaeWedgeCodec codec(model, Mode::kEval);
  const int n = 10;
  auto cws = enveloped_wedges(codec, n);
  // Poison one wedge mid-stream: its payload is truncated and can no longer
  // deserialize into a CompressedWedge.
  cws[4].payload.resize(cws[4].payload.size() / 2);

  StreamOptions opt = base_options();
  opt.queue_capacity = 16;
  opt.batch_size = 1;  // contain the failure to the poisoned wedge
  opt.n_workers = 2;
  opt.ordered = true;
  std::vector<std::uint64_t> seqs;
  StreamDecompressor stream(codec, opt,
                            [&](std::uint64_t seq, Tensor&&) {
                              seqs.push_back(seq);
                            });
  for (const auto& cw : cws) stream.submit(cw);
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_failed, 1);
  EXPECT_EQ(stats.wedges_compressed, n - 1);
  // Wedges after the poisoned one still decoded: the workers survived, and
  // the ordered cursor advanced over the failed sequence number.
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(n - 1));
  std::uint64_t expect = 0;
  for (const auto seq : seqs) {
    if (expect == 4) ++expect;  // the poisoned wedge
    EXPECT_EQ(seq, expect++);
  }
}

TEST_P(StreamDecompressorVariant, FullChainCompressSerializeDeserializeDecompress) {
  // The deployment path end-to-end: StreamCompressor -> byte store ->
  // StreamDecompressor, with seq numbers tying stored blobs to submissions.
  auto model = nc::bcae::make_bcae_ht(79);
  BcaeWedgeCodec codec(model, Mode::kEval);
  const int n = 8;

  StreamOptions copt = base_options();
  copt.queue_capacity = 8;
  copt.batch_size = 2;
  copt.n_workers = 2;
  std::mutex store_mutex;
  std::map<std::uint64_t, std::string> storage;
  StreamCompressor compressor(codec, copt,
                              [&](std::uint64_t seq, WedgeEnvelope&& env) {
                                std::ostringstream os;
                                env.serialize(os);
                                std::lock_guard<std::mutex> lock(store_mutex);
                                storage.emplace(seq, os.str());
                              });
  for (int i = 0; i < n; ++i) {
    compressor.submit(raw_wedge(static_cast<std::size_t>(i) % 8));
  }
  const auto cstats = compressor.finish();
  EXPECT_EQ(cstats.wedges_compressed, n);
  ASSERT_EQ(storage.size(), static_cast<std::size_t>(n));

  StreamOptions dopt = base_options();
  dopt.queue_capacity = 8;
  dopt.batch_size = 2;
  dopt.n_workers = 4;
  dopt.ordered = true;
  std::vector<Tensor> decoded;
  StreamDecompressor decompressor(
      codec, dopt, [&](std::uint64_t, Tensor&& w) { decoded.push_back(std::move(w)); });
  std::vector<WedgeEnvelope> deserialized;
  for (const auto& [seq, bytes] : storage) {  // map iterates in seq order
    std::istringstream is(bytes);
    deserialized.push_back(WedgeEnvelope::deserialize(is));
    decompressor.submit(deserialized.back());
  }
  const auto dstats = decompressor.finish();
  EXPECT_EQ(dstats.wedges_compressed, n);
  EXPECT_EQ(dstats.wedges_failed, 0);
  ASSERT_EQ(decoded.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& wedge = decoded[static_cast<std::size_t>(i)];
    // The stream result equals a direct decode of the same stored bytes, and
    // its shape matches the original wedge it came from.
    expect_bit_identical(wedge,
                         codec.decompress(deserialized[static_cast<std::size_t>(i)]));
    EXPECT_EQ(wedge.shape(), raw_wedge(static_cast<std::size_t>(i) % 8).shape());
    // BCAE invariant: reconstructed voxels are 0 or above the threshold (§2.2).
    for (std::int64_t v = 0; v < wedge.numel(); ++v) {
      ASSERT_TRUE(wedge[v] == 0.f || wedge[v] >= 6.f) << wedge[v];
    }
  }
}

}  // namespace
