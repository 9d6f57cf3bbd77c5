/// BCAE codec: round-trip format, compression-ratio accounting, streaming
/// pipeline semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "codec/bcae_codec.hpp"
#include "codec/stream.hpp"
#include "tests/reference.hpp"
#include "tests/stream_test_utils.hpp"
#include "tpc/dataset.hpp"

namespace {

using nc::codec::BcaeCodec;
using nc::codec::BcaeWedgeCodec;
using nc::codec::CompressedWedge;
using nc::codec::WedgeEnvelope;
using nc::core::Mode;
using nc::core::Tensor;

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

/// Unpadded wedge from the dataset pool (the padded store clipped back).
Tensor raw_wedge(std::size_t i) {
  const auto& ds = tiny_dataset();
  return nc::tpc::clip_horizontal(ds.train().at(i), ds.valid_horiz());
}

/// One unordered worker draining an intake of `queue_capacity` in batches
/// of up to `batch_size`.
nc::codec::StreamOptions single_worker(std::size_t queue_capacity,
                                       std::size_t batch_size) {
  nc::codec::StreamOptions opt;
  opt.queue_capacity = queue_capacity;
  opt.batch_size = batch_size;
  return opt;
}

TEST(BcaeCodec, CompressProducesDeclaredRatio) {
  auto model = nc::bcae::make_bcae_2d(nc::bcae::Bcae2dConfig{}, 31);
  BcaeCodec codec(model, Mode::kEval);
  const auto cw = codec.compress(raw_wedge(0));
  // Scaled wedge (16, 32, 31) -> padded (16, 32, 32): code (32, 4, 4).
  EXPECT_EQ(cw.code_shape, (nc::core::Shape{32, 4, 4}));
  EXPECT_EQ(cw.payload_bytes(), 512 * 2);
  EXPECT_NEAR(cw.compression_ratio(), 16.0 * 32 * 31 / 512.0, 1e-9);
}

TEST(BcaeCodec, RoundTripShapeAndMaskSemantics) {
  auto model = nc::bcae::make_bcae_ht(33);
  BcaeCodec codec(model, Mode::kEval);
  const Tensor original = raw_wedge(1);
  const auto cw = codec.compress(original);
  const Tensor recon = codec.decompress(cw);
  ASSERT_EQ(recon.shape(), original.shape());
  // BCAE invariant: every reconstructed voxel is 0 or above 6 (§2.2).
  for (std::int64_t i = 0; i < recon.numel(); ++i) {
    EXPECT_TRUE(recon[i] == 0.f || recon[i] >= 6.f) << recon[i];
  }
}

TEST(BcaeCodec, SerializeDeserializeRoundTrip) {
  auto model = nc::bcae::make_bcae_ht(35);
  BcaeCodec codec(model, Mode::kEval);
  const auto cw = codec.compress(raw_wedge(2));

  std::stringstream buffer;
  cw.serialize(buffer);
  const auto back = CompressedWedge::deserialize(buffer);
  EXPECT_EQ(back.wedge_shape, cw.wedge_shape);
  EXPECT_EQ(back.code_shape, cw.code_shape);
  ASSERT_EQ(back.code.size(), cw.code.size());
  for (std::size_t i = 0; i < cw.code.size(); ++i) {
    EXPECT_EQ(back.code[i].bits(), cw.code[i].bits());
  }
}

TEST(BcaeCodec, BatchMatchesSingleCompression) {
  auto model = nc::bcae::make_bcae_ht(37);
  BcaeCodec codec(model, Mode::kEval);
  const auto singles = {codec.compress(raw_wedge(0)), codec.compress(raw_wedge(1))};
  const auto batch = codec.compress_batch({raw_wedge(0), raw_wedge(1)});
  ASSERT_EQ(batch.size(), 2u);
  std::size_t wi = 0;
  for (const auto& s : singles) {
    ASSERT_EQ(batch[wi].code.size(), s.code.size());
    for (std::size_t i = 0; i < s.code.size(); ++i) {
      EXPECT_NEAR(static_cast<float>(batch[wi].code[i]),
                  static_cast<float>(s.code[i]), 1e-4);
    }
    ++wi;
  }
}

TEST(BcaeCodec, HalfAndFullModeCodesAgree) {
  auto model = nc::bcae::make_bcae_ht(39);
  BcaeCodec full(model, Mode::kEval);
  BcaeCodec half(model, Mode::kEvalHalf);
  const Tensor w = raw_wedge(3);
  const auto cf = full.compress(w);
  const auto ch = half.compress(w);
  double max_diff = 0, scale = 0;
  for (std::size_t i = 0; i < cf.code.size(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(static_cast<double>(static_cast<float>(cf.code[i])) -
                                 static_cast<double>(static_cast<float>(ch.code[i]))));
    scale = std::max(scale, std::abs(static_cast<double>(static_cast<float>(cf.code[i]))));
  }
  EXPECT_LT(max_diff, 0.02 * (scale + 1.0));
}

TEST(BcaeCodec, HalfModeDecompressStaysFiniteOnUntrainedWeights) {
  // Untrained random weights drive the decoder's intermediate activations
  // past the fp16 range; the saturating activation cast must clamp them so
  // every reconstructed voxel is finite (the ROADMAP fp16-overflow item).
  auto model = nc::bcae::make_bcae_ht(83);
  BcaeCodec codec(model, Mode::kEvalHalf);
  const auto cw = codec.compress(raw_wedge(0));
  const Tensor recon = codec.decompress(cw);
  for (std::int64_t i = 0; i < recon.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(recon[i])) << "voxel " << i << " = " << recon[i];
  }
}

TEST(BcaeCodec, RejectsBadInputs) {
  auto model = nc::bcae::make_bcae_ht(41);
  EXPECT_THROW(BcaeCodec(model, Mode::kTrain), std::invalid_argument);
  BcaeCodec codec(model, Mode::kEval);
  EXPECT_THROW(codec.compress(Tensor({4, 4})), std::invalid_argument);
}

TEST(BoundedQueue, BackpressureAndClose) {
  nc::codec::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full
  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  q.close();
  EXPECT_FALSE(q.try_push(4));
  EXPECT_TRUE(q.pop(v));  // drains remaining
  EXPECT_EQ(v, 2);
  EXPECT_FALSE(q.pop(v));  // closed + empty
}

TEST(BoundedQueue, CloseWhileDrainDeliversRemainingItems) {
  nc::codec::BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(i));
  q.close();
  // A closed queue must still hand out what it holds, batch by batch.
  std::vector<int> drained;
  EXPECT_EQ(q.pop_batch(drained, 3), 3u);
  EXPECT_EQ(q.pop_batch(drained, 3), 2u);
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.pop_batch(drained, 3), 0u);  // closed + empty
}

TEST(BoundedQueue, PopBatchZeroMeansClosedAndDrained) {
  // pop_batch shares pop's terminal contract: while the queue is open it
  // blocks until it can deliver >= 1 item — a 0 return is never a spurious
  // wakeup, only the closed-and-drained shutdown signal.
  nc::codec::BoundedQueue<int> q(4);
  std::thread pusher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (void)q.try_push(7);
  });
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 2), 1u);  // woke for the item, not spuriously
  EXPECT_EQ(out, (std::vector<int>{7}));
  pusher.join();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    q.close();
  });
  EXPECT_EQ(q.pop_batch(out, 2), 0u);  // 0 <=> closed and drained...
  closer.join();
  EXPECT_EQ(q.pop_batch(out, 2), 0u);  // ...and it is terminal
  int v = 0;
  EXPECT_FALSE(q.pop(v));  // pop agrees: same contract
}

TEST(BoundedQueue, PopBatchMaxItemsZeroStillDeliversOne) {
  // max_items == 0 is clamped to 1: returning 0 from an open queue would
  // violate the 0-iff-closed contract above.
  nc::codec::BoundedQueue<int> q(4);
  EXPECT_TRUE(q.try_push(3));
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 0), 1u);
  EXPECT_EQ(out, (std::vector<int>{3}));
}

TEST(StreamCompressor, CompressesEverySubmittedWedge) {
  auto model = nc::bcae::make_bcae_ht(43);
  BcaeWedgeCodec codec(model, Mode::kEval);
  std::atomic<int> received{0};
  std::atomic<std::int64_t> bytes{0};
  nc::codec::StreamCompressor stream(
      codec, single_worker(/*queue_capacity=*/64, /*batch_size=*/4),
      [&](WedgeEnvelope&& cw) {
        received.fetch_add(1);
        bytes.fetch_add(cw.payload_bytes());
      });
  const int n = 12;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i % 8)));
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(received.load(), n);
  EXPECT_EQ(stats.payload_bytes, bytes.load());
  EXPECT_GT(stats.throughput_wps(), 0.0);
}

TEST(StreamCompressor, CountsDropsUnderBackpressure) {
  auto model = nc::bcae::make_bcae_ht(45);
  BcaeWedgeCodec codec(model, Mode::kEval);
  // Tiny queue + a sink that can't be outrun: some try_submits must fail.
  nc::codec::StreamCompressor stream(
      codec, single_worker(/*queue_capacity=*/1, /*batch_size=*/1),
      [](WedgeEnvelope&&) {});
  int accepted = 0;
  const int offered = 200;
  for (int i = 0; i < offered; ++i) {
    accepted += stream.try_submit(raw_wedge(static_cast<std::size_t>(i % 8))) ? 1 : 0;
  }
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, accepted);
  EXPECT_EQ(stats.wedges_in + stats.wedges_dropped, offered);
  EXPECT_EQ(stats.wedges_compressed, accepted);
}

TEST(BoundedQueue, WaitForSpaceUnblocksOnCloseAndReportsIt) {
  nc::codec::BoundedQueue<int> q(1);
  EXPECT_TRUE(q.wait_for_space());  // space available: returns immediately
  EXPECT_TRUE(q.try_push(1));
  std::thread closer([&] { q.close(); });
  EXPECT_FALSE(q.wait_for_space());  // full queue: unblocked by close
  closer.join();
}

TEST(BoundedQueue, WaitForSpaceUnblocksOnPop) {
  nc::codec::BoundedQueue<int> q(1);
  ASSERT_TRUE(q.try_push(0));
  std::atomic<bool> unblocked{false};
  std::thread waiter([&] {
    EXPECT_TRUE(q.wait_for_space());  // space appears: true
    unblocked.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(unblocked.load());
  std::vector<int> out;
  ASSERT_EQ(q.pop_batch(out, 1), 1u);
  waiter.join();
  EXPECT_TRUE(unblocked.load());
}

TEST(BoundedQueue, DepthHighWaterKeepsThePeak) {
  nc::codec::BoundedQueue<int> q(16);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.try_push(i));
  std::vector<int> out;
  while (q.size() > 0) (void)q.pop_batch(out, 4);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.try_push(i));
  EXPECT_EQ(q.depth_high_water(), 5u);  // the first wave, not the second
}

TEST(BoundedQueue, ConcurrentProducersAndWorkersDeliverEveryItemOnce) {
  constexpr int kProducers = 3, kWorkers = 4, kPerProducer = 200;
  nc::codec::BoundedQueue<int> q(32);
  std::atomic<int> next{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int v = next.fetch_add(1);
        while (!q.try_push(v)) std::this_thread::yield();
      }
    });
  }
  std::mutex seen_mutex;
  std::vector<int> seen;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      std::vector<int> got;
      while (q.pop_batch(got, 8) != 0) {
        std::lock_guard<std::mutex> lock(seen_mutex);
        seen.insert(seen.end(), got.begin(), got.end());
        got.clear();
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : workers) t.join();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);  // each exactly once
  }
}

TEST(BoundedQueue, PopBatchDeliversItemsInPushOrder) {
  // One FIFO: however the drains are sized, items leave in push order.
  nc::codec::BoundedQueue<int> q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 3), 3u);
  EXPECT_EQ(q.pop_batch(out, 1), 1u);
  EXPECT_EQ(q.pop_batch(out, 16), 6u);  // takes what is there, no more
  std::vector<int> expected(10);
  for (int i = 0; i < 10; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(out, expected);
}

TEST(BoundedQueue, FailedTryPushLeavesItemIntact) {
  // The spill tier reuses an item whose push failed, so a rejected rvalue
  // push must not move from it — neither on a full queue nor a closed one.
  nc::codec::BoundedQueue<std::vector<int>> q(1);
  ASSERT_TRUE(q.try_push(std::vector<int>{1}));
  std::vector<int> item{7, 8, 9};
  EXPECT_FALSE(q.try_push(std::move(item)));  // full
  EXPECT_EQ(item, (std::vector<int>{7, 8, 9}));
  q.close();
  EXPECT_FALSE(q.try_push(std::move(item)));  // closed
  EXPECT_EQ(item, (std::vector<int>{7, 8, 9}));
}

TEST(BoundedQueue, TimedSpaceWaitTimesOutWhileFull) {
  nc::codec::BoundedQueue<int> q(1);
  ASSERT_TRUE(q.try_push(1));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(q.wait_for_space_for(std::chrono::milliseconds(20)),
            nc::codec::SpaceWait::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(20));
}

TEST(BoundedQueue, TimedSpaceWaitReportsReadyThenClosed) {
  nc::codec::BoundedQueue<int> q(1);
  EXPECT_EQ(q.wait_for_space_for(std::chrono::seconds(0)),
            nc::codec::SpaceWait::kReady);  // space now: no wait
  ASSERT_TRUE(q.try_push(1));
  std::thread popper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    int v = 0;
    (void)q.pop(v);
  });
  EXPECT_EQ(q.wait_for_space_for(std::chrono::seconds(30)),
            nc::codec::SpaceWait::kReady);  // woken by the pop
  popper.join();
  ASSERT_TRUE(q.try_push(2));
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
  });
  EXPECT_EQ(q.wait_for_space_for(std::chrono::seconds(30)),
            nc::codec::SpaceWait::kClosed);  // woken by close, still full
  closer.join();
}

TEST(BoundedQueue, AdaptivePopBatchTakesAFairShareOfTheBacklog) {
  nc::codec::BoundedQueue<int> q(32);
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(q.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 8, 4), 3u);  // ceil(9 / 4)
  EXPECT_EQ(q.pop_batch(out, 8, 4), 2u);  // ceil(6 / 4)
  EXPECT_EQ(q.pop_batch(out, 8, 0), 4u);  // share 0: up to max_items
}

TEST(AdaptiveDrainCap, ZeroShareDisablesAdaptivity) {
  using nc::codec::detail::adaptive_drain_cap;
  EXPECT_EQ(adaptive_drain_cap(0, 0, 8), 8u);
  EXPECT_EQ(adaptive_drain_cap(1, 0, 8), 8u);
  EXPECT_EQ(adaptive_drain_cap(100, 0, 8), 8u);
}

TEST(AdaptiveDrainCap, FairShareRoundsUpAndClampsToOneAndMax) {
  using nc::codec::detail::adaptive_drain_cap;
  EXPECT_EQ(adaptive_drain_cap(0, 4, 8), 1u);    // empty: still one item
  EXPECT_EQ(adaptive_drain_cap(1, 4, 8), 1u);    // trickle: single items
  EXPECT_EQ(adaptive_drain_cap(5, 4, 8), 2u);    // ceil(5 / 4)
  EXPECT_EQ(adaptive_drain_cap(16, 4, 8), 4u);   // exact share
  EXPECT_EQ(adaptive_drain_cap(64, 4, 8), 8u);   // deep backlog: batch_size
  EXPECT_EQ(adaptive_drain_cap(64, 1, 8), 8u);   // one worker: whole batch
}

TEST(StreamCompressor, BlockingSubmitRidesOutTinyQueue) {
  auto model = nc::bcae::make_bcae_ht(63);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt;
  opt.queue_capacity = 1;  // every submit after the first must wait for space
  opt.batch_size = 1;
  opt.n_workers = 1;
  std::atomic<int> received{0};
  nc::codec::StreamCompressor stream(
      codec, opt, [&](WedgeEnvelope&&) { received.fetch_add(1); });
  const int n = 6;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i)));
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(received.load(), n);
}

/// The multi-worker write-side contracts, under each pool variant.
class StreamCompressorVariant : public nc::testutil::PipelineVariantTest {};

NC_INSTANTIATE_PIPELINE_VARIANTS(StreamCompressorVariant);

TEST_P(StreamCompressorVariant, MultiWorkerCompressesEverySubmittedWedge) {
  auto model = nc::bcae::make_bcae_ht(49);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt = base_options();
  opt.queue_capacity = 16;
  opt.batch_size = 2;
  opt.n_workers = 3;
  std::atomic<int> received{0};
  std::atomic<std::int64_t> bytes{0};
  nc::codec::StreamCompressor stream(codec, opt, [&](WedgeEnvelope&& cw) {
    received.fetch_add(1);
    bytes.fetch_add(cw.payload_bytes());
  });
  const int n = 18;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i % 8)));
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(stats.wedges_failed, 0);
  EXPECT_EQ(received.load(), n);
  EXPECT_EQ(stats.payload_bytes, bytes.load());
  // Per-worker breakdown must reconcile with the aggregate totals.
  ASSERT_EQ(stats.per_worker.size(), 3u);
  std::int64_t per_worker_sum = 0;
  double cpu_sum = 0.0;
  for (const auto& ws : stats.per_worker) {
    per_worker_sum += ws.wedges_compressed;
    cpu_sum += ws.active_s;
  }
  EXPECT_EQ(per_worker_sum, stats.wedges_compressed);
  EXPECT_DOUBLE_EQ(cpu_sum, stats.cpu_s);
  // elapsed_s is the busy-interval union: positive, and bounded by the
  // summed thread-time plus per-batch bookkeeping slack (the busy window
  // brackets the timed region, so the union picks up a few us per batch).
  EXPECT_GT(stats.elapsed_s, 0.0);
  EXPECT_LE(stats.elapsed_s, stats.cpu_s + 0.05);
  EXPECT_GT(stats.throughput_wps(), 0.0);
}

TEST_P(StreamCompressorVariant, MultiWorkerDropAccountingUnderBackpressure) {
  auto model = nc::bcae::make_bcae_ht(51);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt = base_options();
  opt.queue_capacity = 1;
  opt.batch_size = 1;
  opt.n_workers = 2;
  std::atomic<int> received{0};
  nc::codec::StreamCompressor stream(
      codec, opt, [&](WedgeEnvelope&&) { received.fetch_add(1); });
  int accepted = 0;
  const int offered = 120;
  for (int i = 0; i < offered; ++i) {
    accepted += stream.try_submit(raw_wedge(static_cast<std::size_t>(i % 8))) ? 1 : 0;
  }
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, accepted);
  EXPECT_EQ(stats.wedges_in + stats.wedges_dropped, offered);
  EXPECT_EQ(stats.wedges_compressed, accepted);
  EXPECT_EQ(received.load(), accepted);
}

TEST_P(StreamCompressorVariant, OrderedSinkEmitsInSubmissionOrder) {
  auto model = nc::bcae::make_bcae_ht(53);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt = base_options();
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  opt.n_workers = 4;
  opt.ordered = true;
  // Ordered mode serializes sink invocations, so no lock is needed here.
  std::vector<std::uint64_t> seqs;
  nc::codec::StreamCompressor stream(
      codec, opt,
      [&](std::uint64_t seq, WedgeEnvelope&&) { seqs.push_back(seq); });
  const int n = 16;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i % 8)));
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(seqs[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
  }
}

TEST_P(StreamCompressorVariant, UnorderedSeqsArePermutationOfSubmissions) {
  auto model = nc::bcae::make_bcae_ht(55);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt = base_options();
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  opt.n_workers = 3;
  std::mutex seq_mutex;  // unordered sink runs concurrently
  std::vector<std::uint64_t> seqs;
  nc::codec::StreamCompressor stream(
      codec, opt, [&](std::uint64_t seq, WedgeEnvelope&&) {
        std::lock_guard<std::mutex> lock(seq_mutex);
        seqs.push_back(seq);
      });
  const int n = 12;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i % 8)));
  (void)stream.finish();
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(n));
  std::sort(seqs.begin(), seqs.end());
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(seqs[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
  }
}

TEST_P(StreamCompressorVariant, ThrowingSinkDoesNotKillOrderedPipeline) {
  auto model = nc::bcae::make_bcae_ht(65);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt = base_options();
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  opt.n_workers = 2;
  opt.ordered = true;
  std::vector<std::uint64_t> seqs;
  nc::codec::StreamCompressor stream(
      codec, opt, [&](std::uint64_t seq, WedgeEnvelope&&) {
        if (seq == 1) throw std::runtime_error("storage refused wedge");
        seqs.push_back(seq);
      });
  const int n = 8;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i)));
  const auto stats = stream.finish();
  // Compression succeeded for every wedge; only delivery of seq 1 was lost.
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_failed, 0);
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(n - 1));
  std::uint64_t expect = 0;
  for (const auto seq : seqs) {
    if (expect == 1) ++expect;  // the refused wedge
    EXPECT_EQ(seq, expect++);
  }
}

TEST_P(StreamCompressorVariant, ConcurrentProducersWithConcurrentFinish) {
  auto model = nc::bcae::make_bcae_ht(57);
  BcaeWedgeCodec codec(model, Mode::kEval);
  nc::codec::StreamOptions opt = base_options();
  opt.queue_capacity = 4;
  opt.batch_size = 2;
  opt.n_workers = 2;
  std::atomic<int> received{0};
  nc::codec::StreamCompressor stream(
      codec, opt, [&](WedgeEnvelope&&) { received.fetch_add(1); });
  constexpr int kProducers = 3, kPerProducer = 40;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        (void)stream.try_submit(raw_wedge(static_cast<std::size_t>(i % 8)));
      }
    });
  }
  // Close the intake while producers are (possibly) still submitting: late
  // submissions must land in the drop count, not crash or hang.
  const auto mid = stream.finish();
  for (auto& t : producers) t.join();
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in + stats.wedges_dropped, kProducers * kPerProducer);
  EXPECT_EQ(stats.wedges_compressed, stats.wedges_in);
  EXPECT_EQ(received.load(), stats.wedges_compressed);
  // Compression totals are frozen at the first finish.
  EXPECT_EQ(mid.wedges_compressed, stats.wedges_compressed);
}

TEST(StreamCompressor, DoubleFinishIsIdempotent) {
  auto model = nc::bcae::make_bcae_ht(59);
  BcaeWedgeCodec codec(model, Mode::kEval);
  std::atomic<int> received{0};
  {
    nc::codec::StreamCompressor stream(
        codec, single_worker(/*queue_capacity=*/8, /*batch_size=*/2),
        [&](WedgeEnvelope&&) { received.fetch_add(1); });
    for (int i = 0; i < 5; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i)));
    const auto first = stream.finish();
    const auto second = stream.finish();
    EXPECT_EQ(first.wedges_compressed, 5);
    EXPECT_EQ(second.wedges_compressed, 5);
    EXPECT_DOUBLE_EQ(second.elapsed_s, first.elapsed_s);
    // Destructor runs after the explicit finishes: must be a safe no-op.
  }
  EXPECT_EQ(received.load(), 5);
}

TEST(StreamCompressor, FinishFromAnotherThreadThenDestroy) {
  auto model = nc::bcae::make_bcae_ht(61);
  BcaeWedgeCodec codec(model, Mode::kEval);
  std::atomic<int> received{0};
  {
    nc::codec::StreamCompressor stream(
        codec, single_worker(/*queue_capacity=*/8, /*batch_size=*/2),
        [&](WedgeEnvelope&&) { received.fetch_add(1); });
    for (int i = 0; i < 4; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i)));
    std::thread finisher([&] { (void)stream.finish(); });
    finisher.join();
  }
  EXPECT_EQ(received.load(), 4);
}

TEST(StreamCompressor, SubmitAfterFinishCountsAsDropped) {
  auto model = nc::bcae::make_bcae_ht(47);
  BcaeWedgeCodec codec(model, Mode::kEval);
  std::atomic<int> received{0};
  nc::codec::StreamCompressor stream(
      codec, single_worker(/*queue_capacity=*/8, /*batch_size=*/2),
      [&](WedgeEnvelope&&) { received.fetch_add(1); });
  const int n = 3;
  for (int i = 0; i < n; ++i) stream.submit(raw_wedge(static_cast<std::size_t>(i)));
  (void)stream.finish();
  // The intake is closed: both submit paths must account the loss.
  stream.submit(raw_wedge(0));
  EXPECT_FALSE(stream.try_submit(raw_wedge(1)));
  const auto stats = stream.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 2);
  EXPECT_EQ(received.load(), n);
}

}  // namespace
