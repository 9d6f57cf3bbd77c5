/// \file streaming_daq.cpp
/// \brief Streaming DAQ scenario: the two-sided deployment the paper
///        motivates (§1).
///
/// Default mode (write side): producer threads play the role of the sPHENIX
/// front-end electronics (one per fibre bundle), emitting wedges at a
/// configurable aggregate rate; a pool of compressor workers drains them
/// through the BCAE encoder in batches.  The example reports sustained
/// throughput, queue drops under backpressure, achieved data reduction and
/// the per-worker breakdown — the operational quantities of a
/// streaming-readout DAQ.
///
/// --roundtrip (both sides): a fixed number of wedges flow through the full
/// deployment path — compress pool -> serialized storage -> deserialize ->
/// decompress pool -> analysis sink — and the sink scores every
/// reconstruction against its original wedge (occupancy precision/recall,
/// MAE, PSNR via src/metrics), alongside both directions' throughput.
///
/// With `--spill-dir DIR` the intake gains the lossless spill tier: wedges
/// that would drop under backpressure are serialized raw to segment files
/// under DIR and replayed once the queue drains — the summary then reports
/// spilled/replayed counts and the on-disk high-water mark instead of data
/// loss.
///
/// The pipeline is codec-pluggable: `--codec` selects any registered
/// WedgeCodec (bcae-fp32 | bcae-fp16 | bcae-int8 | zfp | sz | mgard), so the
/// same deployment can run the learned codec or any of the paper's
/// learning-free baselines — the multi-backend story behind the
/// rate--distortion arena (bench_rd).
///
/// Elastic pool: `--workers 0` autoscales the live worker count between
/// `--min-workers` and `--max-workers` (default: every hardware thread) from
/// observed load.  The scaling history (events, hwm/lwm, time-weighted
/// average live workers) joins the exit summary.
///
/// Run:  ./streaming_daq [--rate 200] [--seconds 5] [--batch 16]
///                       [--workers 1] [--producers 1] [--ordered]
///                       [--codec bcae-fp16] [--spill-dir DIR]
///                       [--workers 0 [--min-workers N] [--max-workers N]]
///       ./streaming_daq --roundtrip [--wedges 16] [--batch 4] [--workers 2]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codec/stream.hpp"
#include "codec/wedge_codec.hpp"
#include "core/simd_dispatch.hpp"
#include "metrics/metrics.hpp"
#include "tpc/dataset.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

namespace {

/// Elastic scaling history (skipped for static pools: nothing moved).
void print_scaling(const char* label, const nc::codec::StreamStats& stats,
                   const nc::codec::StreamOptions& options) {
  if (!options.elastic) return;
  std::printf("  %s: %lld up / %lld down scale events, live workers "
              "%lld..%lld (avg %.2f)\n",
              label, static_cast<long long>(stats.scale_up_events),
              static_cast<long long>(stats.scale_down_events),
              static_cast<long long>(stats.workers_lwm),
              static_cast<long long>(stats.workers_hwm),
              stats.avg_live_workers);
}

void print_stream_stats(const char* label, const nc::codec::StreamStats& stats) {
  std::printf("  %s: %lld wedges at %.1f wedges/s (%.2f busy-cores avg, "
              "%lld failed, depth hwm %lld)\n",
              label, static_cast<long long>(stats.wedges_compressed),
              stats.throughput_wps(),
              stats.elapsed_s > 0 ? stats.cpu_s / stats.elapsed_s : 0.0,
              static_cast<long long>(stats.wedges_failed),
              static_cast<long long>(stats.queue_depth_hwm));
  if (stats.wedges_spilled > 0) {
    std::printf("    spill: %lld spilled, %lld replayed, hwm %lld bytes\n",
                static_cast<long long>(stats.wedges_spilled),
                static_cast<long long>(stats.wedges_replayed),
                static_cast<long long>(stats.spill_bytes_hwm));
  }
}

/// Roundtrip mode: compress `n` wedges through the stream, persist each to
/// an in-memory byte store, then stream the bytes back through the
/// decompress pool and score reconstructions against the originals.
int run_roundtrip(const nc::codec::WedgeCodec& wedge_codec,
                  const std::vector<nc::core::Tensor>& wedges,
                  nc::codec::StreamOptions options, std::int64_t n) {
  using namespace nc;

  // -- write side: compress + serialize to "storage" -------------------------
  std::mutex store_mutex;
  std::map<std::uint64_t, std::string> storage;  // seq -> serialized bytes
  codec::StreamCompressor compressor(
      wedge_codec, options, [&](std::uint64_t seq, codec::WedgeEnvelope&& env) {
        std::ostringstream os;
        env.serialize(os);
        std::lock_guard<std::mutex> lock(store_mutex);
        storage.emplace(seq, os.str());
      });
  for (std::int64_t i = 0; i < n; ++i) {
    // Blocking submit: the offline path trades latency for zero drops, so
    // seq i maps back to wedges[i % wedges.size()].
    compressor.submit(wedges[static_cast<std::size_t>(i) % wedges.size()]);
  }
  const auto cstats = compressor.finish();

  std::int64_t stored_bytes = 0;
  for (const auto& [seq, bytes] : storage) {
    stored_bytes += static_cast<std::int64_t>(bytes.size());
  }

  // -- read side: deserialize + decompress + score ---------------------------
  // The decompressor renumbers submissions from 0, so map its seq back to
  // the compress-side seq (= wedge index): if a compress batch ever failed,
  // storage has gaps and the two numberings diverge.
  std::vector<std::uint64_t> stored_seqs;
  stored_seqs.reserve(storage.size());
  for (const auto& [seq, bytes] : storage) stored_seqs.push_back(seq);
  std::mutex metrics_mutex;
  metrics::MetricsAccumulator acc;
  codec::StreamDecompressor decompressor(
      wedge_codec, options, [&](std::uint64_t seq, core::Tensor&& recon) {
        const auto original = stored_seqs[static_cast<std::size_t>(seq)];
        const auto& truth =
            wedges[static_cast<std::size_t>(original) % wedges.size()];
        const auto m = metrics::evaluate_reconstruction(recon, truth);
        std::lock_guard<std::mutex> lock(metrics_mutex);
        acc.add(m, recon.numel());
      });
  for (const auto& [seq, bytes] : storage) {  // map iterates in seq order
    std::istringstream is(bytes);
    decompressor.submit(codec::WedgeEnvelope::deserialize(is));
  }
  const auto dstats = decompressor.finish();

  // -- report ----------------------------------------------------------------
  const std::int64_t raw_bytes =
      cstats.wedges_compressed * wedges.front().numel() * 2;  // fp16 accounting
  const auto m = acc.result();
  const double occupancy =
      acc.total_voxels() > 0
          ? static_cast<double>(m.actual_positive) / acc.total_voxels()
          : 0.0;
  std::printf("\nroundtrip summary (%lld wedges, codec %s, %zu worker(s), "
              "batch %zu%s):\n",
              static_cast<long long>(n), wedge_codec.name().c_str(),
              options.n_workers, options.batch_size,
              options.ordered ? ", ordered" : "");
  print_stream_stats("compress  ", cstats);
  print_scaling("scale(enc) ", cstats, options);
  print_stream_stats("decompress", dstats);
  print_scaling("scale(dec) ", dstats, options);
  std::printf("  storage:    %lld -> %lld bytes (%.2fx reduction, headers "
              "included)\n",
              static_cast<long long>(raw_bytes),
              static_cast<long long>(stored_bytes),
              stored_bytes ? static_cast<double>(raw_bytes) /
                                 static_cast<double>(stored_bytes)
                           : 0.0);
  std::printf("  quality:    MAE %.4f  PSNR %.2f dB over %lld voxels\n", m.mae,
              m.psnr, static_cast<long long>(acc.total_voxels()));
  std::printf("  occupancy:  %.2f%% of voxels occupied; precision %.4f  "
              "recall %.4f\n",
              100.0 * occupancy, m.precision, m.recall);
  // The deployment identity: everything compressed came back out.
  if (dstats.wedges_compressed != cstats.wedges_compressed) {
    std::fprintf(stderr, "ERROR: decompressed %lld of %lld stored wedges\n",
                 static_cast<long long>(dstats.wedges_compressed),
                 static_cast<long long>(cstats.wedges_compressed));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nc;
  util::ArgParser args("streaming_daq", "DAQ-style streaming compression");
  args.add_option("rate", "200", "aggregate wedge arrival rate [wedges/s]");
  args.add_option("seconds", "5", "stream duration");
  args.add_option("batch", "16", "codec batch size");
  args.add_option("queue", "64", "input queue capacity (backpressure bound)");
  args.add_option("workers", "1",
                  "codec worker threads (0 = elastic: autoscale between "
                  "--min-workers and --max-workers from observed load)");
  args.add_option("min-workers", "1", "elastic mode: live worker floor");
  args.add_option("max-workers", "0",
                  "elastic mode: live worker ceiling (0 = all hardware "
                  "threads)");
  args.add_option("producers", "1", "front-end producer threads");
  args.add_option("wedges", "16", "roundtrip mode: wedges through the chain");
  args.add_option("codec", "bcae-fp16",
                  "wedge codec backing the pipeline: bcae-fp32 | bcae-fp16 | "
                  "bcae-int8 | zfp | sz | mgard");
  args.add_option("spill-dir", "",
                  "spill tier directory (lossless backpressure: overflow "
                  "goes to disk instead of wedges_dropped; empty = off)");
  args.add_flag("ordered", "emit compressed wedges in submission order");
  args.add_flag("roundtrip",
                "compress -> store -> decompress, scoring reconstructions");
  if (!args.parse(argc, argv)) return 1;
  const bool roundtrip = args.get_bool("roundtrip");

  // Validate the pipeline shape up front (before the expensive dataset
  // staging) and reject misconfiguration loudly — a silently clamped flag
  // means the run measures a different pipeline than the one asked for.
  const std::int64_t batch_flag = args.get_int("batch");
  if (batch_flag <= 0) {
    std::fprintf(stderr, "error: --batch must be positive (got %lld)\n",
                 static_cast<long long>(batch_flag));
    return 1;
  }
  const std::int64_t queue_flag = args.get_int("queue");
  if (queue_flag <= 0) {
    std::fprintf(stderr, "error: --queue must be positive (got %lld)\n",
                 static_cast<long long>(queue_flag));
    return 1;
  }
  const std::int64_t workers_flag = args.get_int("workers");
  if (workers_flag < 0) {
    std::fprintf(stderr,
                 "error: --workers must be >= 0 (0 = elastic; got %lld)\n",
                 static_cast<long long>(workers_flag));
    return 1;
  }
  const std::int64_t min_workers_flag = args.get_int("min-workers");
  const std::int64_t max_workers_flag = args.get_int("max-workers");
  if (workers_flag == 0) {
    if (min_workers_flag <= 0) {
      std::fprintf(stderr, "error: --min-workers must be positive (got %lld)\n",
                   static_cast<long long>(min_workers_flag));
      return 1;
    }
    // An explicit ceiling of 0 with an elastic pool is a pool with no
    // workers, not "use the default" — refuse rather than guess.
    if (max_workers_flag <= 0 && args.was_set("max-workers")) {
      std::fprintf(stderr,
                   "error: --workers 0 (elastic) needs a positive "
                   "--max-workers (got %lld)\n",
                   static_cast<long long>(max_workers_flag));
      return 1;
    }
    const std::int64_t ceiling =
        max_workers_flag > 0
            ? max_workers_flag
            : static_cast<std::int64_t>(util::hardware_threads());
    if (min_workers_flag > ceiling) {
      std::fprintf(stderr,
                   "error: --min-workers %lld exceeds --max-workers %lld\n",
                   static_cast<long long>(min_workers_flag),
                   static_cast<long long>(ceiling));
      return 1;
    }
  }

  // Stage the detector data (in a real DAQ these arrive over fibre).
  tpc::DatasetConfig cfg;
  cfg.n_events = 4;
  const auto dataset = tpc::WedgeDataset::generate(cfg);
  std::vector<core::Tensor> wedges;
  for (const auto& w : dataset.train()) {
    wedges.push_back(tpc::clip_horizontal(w, dataset.valid_horiz()));
  }
  std::printf("staged %zu wedges of %s\n", wedges.size(),
              dataset.wedge_shape().to_string().c_str());
  // The SIMD tier the encode hot loops (int8/fp16 GEMM, quantization)
  // resolved to — worth a line in a throughput demo, since scalar-vs-vector
  // is a bigger lever here than any pipeline knob.
  const char* simd_env = std::getenv("NC_SIMD");
  std::printf("simd dispatch: %s kernels (NC_SIMD=%s)\n",
              core::simd::isa_name(core::simd::active_isa()),
              simd_env ? simd_env : "auto");

  // A pre-trained model would be loaded from a checkpoint here; for the
  // example an untrained BCAE-2D is fine (throughput is weight-independent,
  // and roundtrip metrics still exercise the full mask semantics).  The
  // saturating fp16 activation cast clamps the untrained decoder's
  // out-of-range intermediates, so even the half-precision roundtrip decode
  // stays finite.  The --codec registry hands back any registered backend;
  // the baselines ignore the model entirely.
  auto model = bcae::make_bcae_2d(bcae::Bcae2dConfig{}, 7);
  std::unique_ptr<codec::WedgeCodec> wedge_codec;
  try {
    wedge_codec = codec::make_wedge_codec(args.get("codec"), model);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s (registered:", e.what());
    for (const auto& name : codec::registered_codec_names()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, ")\n");
    return 1;
  }

  // Flags were validated above, so the size_t casts are safe.
  codec::StreamOptions options;
  options.queue_capacity = static_cast<std::size_t>(queue_flag);
  options.batch_size = static_cast<std::size_t>(batch_flag);
  if (workers_flag == 0) {
    // Elastic mode: start at the floor, let the controller grow the live
    // set toward the ceiling as the offered rate demands.
    options.elastic = true;
    options.min_workers = static_cast<std::size_t>(min_workers_flag);
    options.max_workers = max_workers_flag > 0
                              ? static_cast<std::size_t>(max_workers_flag)
                              : util::hardware_threads();
    options.n_workers = options.min_workers;
  } else {
    options.n_workers = static_cast<std::size_t>(workers_flag);
  }
  options.ordered = args.get_bool("ordered");
  options.spill_dir = args.get("spill-dir");

  if (roundtrip) {
    const std::int64_t n = std::max<std::int64_t>(1, args.get_int("wedges"));
    return run_roundtrip(*wedge_codec, wedges, options, n);
  }

  // With several workers the (unordered) sink runs concurrently: atomics.
  std::atomic<std::int64_t> stored_bytes{0};
  codec::StreamCompressor stream(
      *wedge_codec, options, [&](codec::WedgeEnvelope&& env) {
        stored_bytes.fetch_add(env.payload_bytes(), std::memory_order_relaxed);
      });

  // Producers: fixed aggregate rate split across the front-end threads.
  const double rate = args.get_double("rate");
  const double duration = args.get_double("seconds");
  const int n_producers = std::max<int>(1, static_cast<int>(args.get_int("producers")));
  const auto interval = std::chrono::duration<double>(
      rate > 0 ? static_cast<double>(n_producers) / rate : 0.0);
  const auto t_end =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(duration);
  std::atomic<std::int64_t> offered{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < n_producers; ++p) {
    producers.emplace_back([&, p] {
      std::size_t next = static_cast<std::size_t>(p) % wedges.size();
      while (std::chrono::steady_clock::now() < t_end) {
        (void)stream.try_submit(wedges[next]);
        offered.fetch_add(1, std::memory_order_relaxed);
        next = (next + static_cast<std::size_t>(n_producers)) % wedges.size();
        std::this_thread::sleep_for(interval);
      }
    });
  }
  for (auto& t : producers) t.join();

  const auto stats = stream.finish();
  const std::int64_t raw_bytes = stats.wedges_compressed *
                                 wedges.front().numel() * 2;  // fp16 accounting
  const std::string workers_desc =
      options.elastic
          ? "elastic " + std::to_string(options.min_workers) + ".." +
                std::to_string(options.max_workers) + " worker(s)"
          : std::to_string(options.n_workers) + " worker(s)";
  std::printf("\nstream summary (%.1f s at %.0f wedges/s offered, codec %s, "
              "%d producer(s), %s%s):\n",
              duration, rate, wedge_codec->name().c_str(), n_producers,
              workers_desc.c_str(), options.ordered ? ", ordered sink" : "");
  std::printf("  offered:     %lld wedges\n",
              static_cast<long long>(offered.load()));
  std::printf("  accepted:    %lld\n", static_cast<long long>(stats.wedges_in));
  std::printf("  dropped:     %lld (backpressure)\n",
              static_cast<long long>(stats.wedges_dropped));
  if (!options.spill_dir.empty()) {
    std::printf("  spilled:     %lld (replayed %lld, spill hwm %lld bytes)\n",
                static_cast<long long>(stats.wedges_spilled),
                static_cast<long long>(stats.wedges_replayed),
                static_cast<long long>(stats.spill_bytes_hwm));
  }
  std::printf("  failed:      %lld (codec errors)\n",
              static_cast<long long>(stats.wedges_failed));
  std::printf("  compressed:  %lld (%.1f wedges/s sustained)\n",
              static_cast<long long>(stats.wedges_compressed),
              stats.throughput_wps());
  // Bytes as the storage sink saw them; equals stats.payload_bytes.
  const std::int64_t sunk_bytes = stored_bytes.load();
  std::printf("  data volume: %lld -> %lld bytes (%.2fx reduction)\n",
              static_cast<long long>(raw_bytes),
              static_cast<long long>(sunk_bytes),
              sunk_bytes ? static_cast<double>(raw_bytes) /
                               static_cast<double>(sunk_bytes)
                         : 0.0);
  std::printf("  parallelism: %.2f busy-cores avg (cpu %.2fs / active %.2fs)\n",
              stats.elapsed_s > 0 ? stats.cpu_s / stats.elapsed_s : 0.0,
              stats.cpu_s, stats.elapsed_s);
  std::printf("  intake:      depth high-water %lld of %lld\n",
              static_cast<long long>(stats.queue_depth_hwm),
              static_cast<long long>(stats.queue_capacity));
  print_scaling("scaling    ", stats, options);
  for (std::size_t w = 0; w < stats.per_worker.size(); ++w) {
    const auto& ws = stats.per_worker[w];
    std::printf("  worker %zu:    %lld wedges in %lld batches, %.2fs active\n",
                w, static_cast<long long>(ws.wedges_compressed),
                static_cast<long long>(ws.batches), ws.active_s);
  }
  return 0;
}
