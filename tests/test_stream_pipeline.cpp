/// Generic StreamPipeline semantics, tested with synthetic transforms so the
/// worker-pool machinery (sequencing, reorder bound, failure containment,
/// finish) is exercised without the codec in the way.  StreamCompressor /
/// StreamDecompressor are thin adapters over this class — the codec-facing
/// behavior lives in test_codec.cpp and test_stream_decompress.cpp; the
/// spill tier in test_spill.cpp (the bursty-load suite at the bottom also
/// drives it, together with ordering and the reorder bound).  Shared
/// scaffolding: stream_test_utils.hpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "codec/stream_pipeline.hpp"
#include "tests/stream_test_utils.hpp"

namespace {

using nc::codec::StreamOptions;
using nc::codec::StreamPipeline;
using nc::testutil::IntPipeline;
using nc::testutil::PipelineVariant;
using nc::testutil::spin_until;
using nc::testutil::StallLatch;

/// Transform doubling every item; counts completed (returned) transforms.
IntPipeline::BatchFn doubling(std::atomic<int>& completed) {
  return [&completed](std::vector<int>&& in) {
    std::vector<int> out;
    out.reserve(in.size());
    for (const int v : in) out.push_back(2 * v);
    completed.fetch_add(static_cast<int>(in.size()));
    return out;
  };
}

/// Every pipeline contract below must hold under each pool variant.
class StreamPipelineVariant : public nc::testutil::PipelineVariantTest {};

NC_INSTANTIATE_PIPELINE_VARIANTS(StreamPipelineVariant);

TEST_P(StreamPipelineVariant, GenericTransformProcessesEverySubmission) {
  StreamOptions opt = base_options();
  opt.queue_capacity = 16;
  opt.batch_size = 4;
  opt.n_workers = 3;
  std::atomic<int> completed{0};
  std::mutex sink_mutex;
  std::vector<std::pair<std::uint64_t, int>> received;
  IntPipeline pipeline(opt, doubling(completed),
                       [](const int&) { return std::int64_t{4}; },
                       [&](std::uint64_t seq, int&& v) {
                         std::lock_guard<std::mutex> lock(sink_mutex);
                         received.emplace_back(seq, v);
                       });
  const int n = 25;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(stats.wedges_failed, 0);
  EXPECT_EQ(stats.payload_bytes, 4 * n);
  EXPECT_GT(stats.queue_depth_hwm, 0);
  ASSERT_EQ(received.size(), static_cast<std::size_t>(n));
  for (const auto& [seq, v] : received) {
    EXPECT_EQ(v, 2 * static_cast<int>(seq));  // seq identifies the input
  }
  ASSERT_EQ(stats.per_worker.size(), 3u);
  std::int64_t per_worker_sum = 0;
  for (const auto& ws : stats.per_worker) {
    per_worker_sum += ws.wedges_compressed;
  }
  EXPECT_EQ(per_worker_sum, n);
  EXPECT_EQ(stats.batches_stolen, 0);  // one shared queue: nothing to steal
}

TEST_P(StreamPipelineVariant, OrderedModeEmitsInSubmissionOrder) {
  StreamOptions opt = base_options();
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  opt.n_workers = 4;
  opt.ordered = true;
  std::atomic<int> completed{0};
  // Ordered mode serializes sink invocations: no lock needed.
  std::vector<std::uint64_t> seqs;
  IntPipeline pipeline(opt, doubling(completed), nullptr,
                       [&](std::uint64_t seq, int&&) { seqs.push_back(seq); });
  const int n = 40;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.payload_bytes, 0);  // null byte counter
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(seqs[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
  }
}

TEST_P(StreamPipelineVariant, ThrowingTransformLandsInFailedAndKeepsWorkersAlive) {
  StreamOptions opt = base_options();
  opt.queue_capacity = 16;
  opt.batch_size = 1;  // one victim per failure
  opt.n_workers = 2;
  opt.ordered = true;
  std::vector<std::uint64_t> seqs;
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        for (const int v : in) {
          if (v % 5 == 3) throw std::runtime_error("poisoned item");
        }
        return std::move(in);
      },
      nullptr, [&](std::uint64_t seq, int&&) { seqs.push_back(seq); });
  const int n = 20;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_failed, 4);  // 3, 8, 13, 18
  EXPECT_EQ(stats.wedges_compressed, n - 4);
  // The ordered cursor advanced past every failed seq: the survivors arrive
  // in submission order with exactly the poisoned seqs missing.
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(n - 4));
  std::size_t at = 0;
  for (int i = 0; i < n; ++i) {
    if (i % 5 == 3) continue;
    EXPECT_EQ(seqs[at++], static_cast<std::uint64_t>(i));
  }
}

TEST_P(StreamPipelineVariant, WrongSizedTransformOutputCountsAsFailure) {
  StreamOptions opt = base_options();
  opt.batch_size = 4;
  opt.n_workers = 1;
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        in.pop_back();  // contract violation: one output short
        return std::move(in);
      },
      nullptr, [&](std::uint64_t, int&&) { received.fetch_add(1); });
  for (int i = 0; i < 8; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, 0);
  EXPECT_EQ(stats.wedges_failed, 8);
  EXPECT_EQ(received.load(), 0);
}

TEST_P(StreamPipelineVariant, ReorderCapacityBoundsBufferWithStalledWorker) {
  // One worker stalls inside the transform while holding the next-to-emit
  // item; the other worker races ahead.  Without the bound it would buffer
  // every remaining item; with reorder_capacity it must park after filling
  // the buffer (capacity entries) plus the one output in its hands.  (The
  // gate escape does not fire here: the stalled worker is inside the
  // transform, not parked on the bound, so a free popper still exists.)
  constexpr int kItems = 32;
  constexpr std::size_t kCapacity = 4;
  StreamOptions opt = base_options();
  opt.queue_capacity = 64;  // all submissions fit: intake never backpressures
  opt.batch_size = 1;
  opt.n_workers = 2;
  opt.ordered = true;
  opt.reorder_capacity = kCapacity;

  StallLatch stall;
  std::atomic<int> completed{0};

  std::vector<std::uint64_t> seqs;
  IntPipeline pipeline(
      opt,
      [&](std::vector<int>&& in) {
        if (in.front() == 0) stall.wait();
        completed.fetch_add(static_cast<int>(in.size()));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t seq, int&&) { seqs.push_back(seq); });

  for (int i = 0; i < kItems; ++i) pipeline.submit(i);

  // The free worker can complete at most kCapacity buffered transforms plus
  // the one whose emit is parked on the full buffer.
  constexpr int kBound = static_cast<int>(kCapacity) + 1;
  EXPECT_TRUE(spin_until([&] { return completed.load() >= kBound; }, 500));
  EXPECT_EQ(completed.load(), kBound);
  // Hold the stall a little longer: without the capacity the free worker
  // would keep draining the intake into the reorder buffer unbounded.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(completed.load(), kBound);

  stall.release();
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, kItems);
  EXPECT_EQ(stats.wedges_failed, 0);
  EXPECT_EQ(completed.load(), kItems);
  ASSERT_EQ(seqs.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(seqs[static_cast<std::size_t>(i)], static_cast<std::uint64_t>(i));
  }
}

TEST_P(StreamPipelineVariant, ReorderCapacityAdmitsFailedBatchesWithoutDeadlock) {
  // Failed batches occupy reorder slots (as skips) under the same capacity
  // rule; a mix of failures and successes must still drain and finish.
  StreamOptions opt = base_options();
  opt.queue_capacity = 64;
  opt.batch_size = 2;
  opt.n_workers = 4;
  opt.ordered = true;
  opt.reorder_capacity = 2;  // tighter than the worker count
  std::vector<std::uint64_t> seqs;
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        for (const int v : in) {
          if (v % 7 == 2) throw std::runtime_error("poisoned item");
        }
        return std::move(in);
      },
      nullptr, [&](std::uint64_t seq, int&&) { seqs.push_back(seq); });
  const int n = 56;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed + stats.wedges_failed, n);
  EXPECT_GT(stats.wedges_failed, 0);
  // Order is preserved across the failure gaps.
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_LT(seqs[i - 1], seqs[i]);
  }
}

TEST_P(StreamPipelineVariant, FinishIdempotentWithGenericTransform) {
  StreamOptions opt = base_options();
  opt.batch_size = 2;
  std::atomic<int> completed{0};
  IntPipeline pipeline(opt, doubling(completed), nullptr,
                       [](std::uint64_t, int&&) {});
  for (int i = 0; i < 6; ++i) pipeline.submit(i);
  const auto first = pipeline.finish();
  const auto second = pipeline.finish();
  EXPECT_EQ(first.wedges_compressed, 6);
  EXPECT_EQ(second.wedges_compressed, 6);
  EXPECT_DOUBLE_EQ(second.elapsed_s, first.elapsed_s);
  // Submit after finish: both paths account the loss.
  pipeline.submit(99);
  EXPECT_FALSE(pipeline.try_submit(100));
  EXPECT_EQ(pipeline.finish().wedges_dropped, 2);
}

TEST(StreamPipeline, AdaptiveBatchingGrowsWithBacklog) {
  // With a deep backlog a worker's drain grows to batch_size; a released
  // stall guarantees the backlog exists when the worker resumes popping.
  StreamOptions opt;
  opt.queue_capacity = 64;
  opt.batch_size = 8;
  opt.n_workers = 1;
  ASSERT_TRUE(opt.adaptive_batch);  // the default under test

  StallLatch stall;
  std::mutex sizes_mutex;
  std::vector<std::size_t> batch_sizes;
  StreamPipeline<int, int> pipeline(
      opt,
      [&](std::vector<int>&& in) {
        {
          std::lock_guard<std::mutex> lock(sizes_mutex);
          batch_sizes.push_back(in.size());
        }
        for (const int v : in) {
          if (v == 0) stall.wait();
        }
        return std::move(in);
      },
      nullptr, [](std::uint64_t, int&&) {});
  const int n = 33;
  for (int i = 0; i < n; ++i) pipeline.submit(i);  // 32 queue behind the stall
  stall.release();
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  std::size_t max_batch = 0;
  for (const auto s : batch_sizes) max_batch = std::max(max_batch, s);
  // The backlog was 32 deep with one worker: adaptive sizing must have
  // reached the full batch_size at least once.
  EXPECT_EQ(max_batch, opt.batch_size);
}

TEST_P(StreamPipelineVariant, StalledWorkerStrandsNoItem) {
  // One worker stalls inside the transform; the free worker must drain the
  // whole backlog around it, so every item except the one in the stalled
  // worker's hands completes while it sleeps.
  StreamOptions opt = base_options();
  opt.queue_capacity = 64;
  opt.batch_size = 1;
  opt.n_workers = 2;

  StallLatch stall;
  std::atomic<int> completed{0};
  IntPipeline pipeline(
      opt,
      [&](std::vector<int>&& in) {
        if (in.front() == 0) stall.wait();
        completed.fetch_add(static_cast<int>(in.size()));
        return std::move(in);
      },
      nullptr, [](std::uint64_t, int&&) {});

  const int n = 16;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  EXPECT_TRUE(spin_until([&] { return completed.load() >= n - 1; }));
  EXPECT_EQ(completed.load(), n - 1);

  stall.release();
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_failed, 0);
}

TEST_P(StreamPipelineVariant, FinishDeliversEverythingQueuedAtClose) {
  // finish() must not return while the intake still holds accepted items.
  StreamOptions opt = base_options();
  opt.queue_capacity = 128;
  opt.batch_size = 4;
  opt.n_workers = 4;
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t, int&&) { received.fetch_add(1); });
  const int n = 100;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();  // close + drain: no stragglers
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(received.load(), n);
}

TEST_P(StreamPipelineVariant, OrderedBoundedReorderUnderFourWorkersEmitsIdentity) {
  // Ordered-mode progress under contention: a tight reorder bound, uneven
  // per-item latency and more workers than buffer slots.  The run must
  // drain, stay in order and count every item.
  StreamOptions opt = base_options();
  opt.queue_capacity = 64;
  opt.batch_size = 2;
  opt.n_workers = 4;
  opt.ordered = true;
  opt.reorder_capacity = 2;
  std::vector<std::uint64_t> seqs;
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        // Deterministic jitter: some batches take 30x longer than others.
        std::this_thread::sleep_for(
            std::chrono::microseconds(50 + (in.front() % 7) * 450));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t seq, int&&) { seqs.push_back(seq); });
  const int n = 200;
  for (int i = 0; i < n; ++i) pipeline.submit(i);
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_failed, 0);
  nc::testutil::expect_ordered_identity(seqs, n);
}

// ---------------------------------------------------------------------------
// Bursty load: a fixed pool whose drain size stretches with the backlog
// ---------------------------------------------------------------------------

/// Submits 0..n-1 through `submit`, pausing after every `burst` items so the
/// intake swings between backed up and empty.  The pool never resizes under
/// such a load; what scales is each worker's drain — with adaptive_batch,
/// from batch_size on a backlog down to 1 on a trickle — concurrently with
/// the workers' emission.
template <typename Submit>
void submit_in_bursts(int n, int burst, Submit&& submit) {
  for (int i = 0; i < n; ++i) {
    submit(i);
    if ((i + 1) % burst == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

/// Pool contracts under bursty load for both drain sizings: `adaptive`
/// stretches every worker's drain with each burst and shrinks it in each
/// pause; `fixed_drain` runs the same load as the control.
class ElasticPipelineDrain : public nc::testutil::PipelineVariantTest {};

INSTANTIATE_TEST_SUITE_P(
    Drains, ElasticPipelineDrain,
    ::testing::Values(PipelineVariant::kAdaptive, PipelineVariant::kFixedDrain),
    [](const ::testing::TestParamInfo<PipelineVariant>& tpi) {
      return std::string(nc::testutil::to_string(tpi.param));
    });

TEST_P(ElasticPipelineDrain, StaticPoolIgnoresScaling) {
  // Trickle, burst, trickle: exactly n_workers threads run the transform
  // through every phase; no load spawns or retires one.
  StreamOptions opt = base_options();
  opt.n_workers = 2;
  opt.queue_capacity = 16;
  opt.batch_size = 4;
  std::mutex ids_mutex;
  std::set<std::thread::id> ids;
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt,
      [&](std::vector<int>&& in) {
        {
          std::lock_guard<std::mutex> lock(ids_mutex);
          ids.insert(std::this_thread::get_id());
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t, int&&) { received.fetch_add(1); });
  int next = 0;
  const auto trickle = [&] {
    for (int i = 0; i < 8; ++i) {
      pipeline.submit(next++);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  trickle();
  for (int i = 0; i < 64; ++i) pipeline.submit(next++);
  trickle();
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, next);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(received.load(), next);
  ASSERT_EQ(stats.per_worker.size(), 2u) << "static pool size unchanged";
  EXPECT_EQ(stats.per_worker[0].wedges_compressed +
                stats.per_worker[1].wedges_compressed,
            next);
  std::lock_guard<std::mutex> lock(ids_mutex);
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 2u) << "a transform ran outside the fixed pool";
}

TEST_P(ElasticPipelineDrain, OrderedIdentitySurvivesConcurrentScaling) {
  // The bounded reorder gate while four workers' drain sizes swing with
  // every burst: ordered emission must stay a loss-free identity.
  StreamOptions opt = base_options();
  opt.n_workers = 4;
  opt.queue_capacity = 16;
  opt.batch_size = 4;
  opt.ordered = true;
  opt.reorder_capacity = 8;  // tight bound: force gate traffic
  nc::testutil::SeqLog log;
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t seq, int&&) { log.push(seq); });
  const int n = 512;
  submit_in_bursts(n, 64, [&](int i) { pipeline.submit(i); });
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(stats.wedges_failed, 0);
  nc::testutil::expect_ordered_identity(log.snapshot(),
                                        static_cast<std::uint64_t>(n));
}

TEST_P(ElasticPipelineDrain, UnorderedLossFreeUnderConcurrentScaling) {
  StreamOptions opt = base_options();
  opt.n_workers = 4;
  opt.queue_capacity = 8;
  opt.batch_size = 2;
  std::atomic<int> received{0};
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        std::this_thread::sleep_for(std::chrono::microseconds(10));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t, int&&) { received.fetch_add(1); });
  const int n = 512;
  submit_in_bursts(n, 64, [&](int i) { pipeline.submit(i); });
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_EQ(received.load(), n);
}

TEST_P(ElasticPipelineDrain, SpillReplaySurvivesConcurrentScaling) {
  // Spill + replay + ordered reorder + drain sizes swinging with each
  // burst: every moving part of the pipeline at once, with loss-freedom as
  // the oracle.
  StreamOptions opt = base_options();
  opt.n_workers = 4;
  opt.queue_capacity = 4;
  opt.batch_size = 2;
  opt.ordered = true;
  opt.reorder_capacity = 8;
  opt.spill_dir = nc::testutil::fresh_dir();
  nc::testutil::SeqLog log;
  IntPipeline pipeline(
      opt,
      [](std::vector<int>&& in) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return std::move(in);
      },
      nullptr, [&](std::uint64_t seq, int&&) { log.push(seq); },
      nc::testutil::int_spill_codec());
  const int n = 128;
  submit_in_bursts(n, 32, [&](int i) {
    EXPECT_TRUE(pipeline.try_submit(i)) << "accepted or spilled, never lost";
  });
  const auto stats = pipeline.finish();
  EXPECT_EQ(stats.wedges_in, n);
  EXPECT_EQ(stats.wedges_compressed, n);
  EXPECT_EQ(stats.wedges_dropped, 0);
  EXPECT_GT(stats.wedges_spilled, 0) << "test never exercised the spill path";
  EXPECT_EQ(stats.wedges_replayed, stats.wedges_spilled);
  nc::testutil::expect_ordered_identity(log.snapshot(),
                                        static_cast<std::uint64_t>(n));
}

}  // namespace
