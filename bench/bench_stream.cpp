/// \file bench_stream.cpp
/// \brief Worker-count scaling sweep for both streaming directions.
///
/// Measures wedges/s through StreamCompressor (encode) and
/// StreamDecompressor (decode, the offline-analysis side) as n_workers grows
/// from 1 to the hardware concurrency.  OpenMP is NOT limited per worker by
/// this bench: `util::set_num_threads(1)` below sets the team size of the
/// main thread only, and libgomp gives each new pipeline worker the process
/// default, so every worker still fans out to all cores.  Run it with
/// OMP_NUM_THREADS=1 to measure the worker pool alone.
///
/// A burst run follows: a 4x-capacity try_submit burst with the spill
/// tier enabled — the lossless-backpressure claim
/// (wedges_dropped == 0, every spilled wedge replayed) measured rather than
/// assumed, with the spilled/replayed counts in the JSON trailer.
///
/// The final stdout line is a single machine-readable JSON document
/// (wedges/s per worker count, both directions, plus the burst row) so perf
/// trajectories can be tracked across commits by scraping `grep '^{'` from
/// the output — CI uploads it as the BENCH_stream.json artifact.
///
/// Run:  ./bench_stream [--wedges 64] [--batch 4] [--max-workers 0]
///       (--max-workers 0 = sweep up to hardware_concurrency, min 4)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "codec/stream.hpp"
#include "tpc/dataset.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace {

struct SweepPoint {
  std::size_t workers = 0;
  double wall_s = 0.0;
  double wps = 0.0;
  double speedup = 0.0;
  double cpu_per_wall = 0.0;
};

void print_point(const SweepPoint& p) {
  std::printf("  %-8zu %12.3f %12.1f %9.2fx %10.2f\n", p.workers, p.wall_s,
              p.wps, p.speedup, p.cpu_per_wall);
}

struct BurstPoint {
  std::size_t workers = 0;
  std::size_t capacity = 0;
  long long wedges = 0;
  double wall_s = 0.0;
  double wps = 0.0;
  long long spilled = 0;
  long long replayed = 0;
  long long dropped = 0;
};

std::string json_burst(const BurstPoint& p) {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"workers\":%zu,\"capacity\":%zu,\"wedges\":%lld,"
                "\"wall_s\":%.4f,\"wps\":%.2f,\"spilled\":%lld,"
                "\"replayed\":%lld,\"dropped\":%lld}",
                p.workers, p.capacity, p.wedges, p.wall_s, p.wps, p.spilled,
                p.replayed, p.dropped);
  return buf;
}

std::string json_points(const std::vector<SweepPoint>& points) {
  std::string out = "[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"workers\":%zu,\"wall_s\":%.4f,\"wps\":%.2f,"
                  "\"speedup\":%.3f,\"cpu_per_wall\":%.3f}",
                  i ? "," : "", points[i].workers, points[i].wall_s,
                  points[i].wps, points[i].speedup, points[i].cpu_per_wall);
    out += buf;
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nc;
  util::ArgParser args("bench_stream",
                       "StreamCompressor/StreamDecompressor worker scaling sweep");
  args.add_option("wedges", "64", "wedges pushed through the pipeline per run");
  args.add_option("batch", "4", "codec batch size");
  args.add_option("max-workers", "0",
                  "sweep ceiling (0 = hardware_concurrency, min 4)");
  if (!args.parse(argc, argv)) return 1;

  tpc::DatasetConfig cfg;
  cfg.n_events = 2;
  cfg.geometry.scale = 0.125;
  cfg.train_fraction = 0.5;
  const auto dataset = tpc::WedgeDataset::generate(cfg);
  std::vector<core::Tensor> wedges;
  for (const auto& w : dataset.train()) {
    wedges.push_back(tpc::clip_horizontal(w, dataset.valid_horiz()));
  }

  auto model = bcae::make_bcae_2d(bcae::Bcae2dConfig{}, 7);
  codec::BcaeWedgeCodec wedge_codec(model, core::Mode::kEvalHalf);
  // Warm the fp16 weight caches (encoder and both decoder heads) so the
  // sweeps time steady-state throughput.
  (void)wedge_codec.decompress(wedge_codec.compress(wedges.front()));

  // The decode sweep replays pre-compressed wedges: storage -> analysis.
  std::vector<codec::WedgeEnvelope> stored;
  for (const auto& w : wedges) stored.push_back(wedge_codec.compress(w));

  // Limits OpenMP on this (main) thread only.  Pipeline workers start with
  // the process default team size; only OMP_NUM_THREADS=1 reaches them.
  util::set_num_threads(1);

  const unsigned hw = static_cast<unsigned>(util::hardware_threads());
  std::size_t sweep_ceiling = static_cast<std::size_t>(
      std::max<std::int64_t>(0, args.get_int("max-workers")));
  if (sweep_ceiling == 0) sweep_ceiling = std::max(4u, hw);
  const std::int64_t n_wedges = std::max<std::int64_t>(1, args.get_int("wedges"));
  const std::size_t batch =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("batch")));

  std::printf("bench_stream: %lld wedges of %s, batch %lld, hardware threads %u\n",
              static_cast<long long>(n_wedges),
              dataset.wedge_shape().to_string().c_str(),
              static_cast<long long>(batch), hw);

  std::vector<std::size_t> sweep;
  for (std::size_t w = 1; w <= sweep_ceiling; w *= 2) sweep.push_back(w);
  if (sweep.back() != sweep_ceiling) sweep.push_back(sweep_ceiling);

  // One run of either direction at a given worker count; returns the
  // pipeline stats for the derived columns.  The speedup column is relative
  // to the direction's 1-worker run.
  const auto run_sweep = [&](const char* label, auto&& run_one) {
    double base_wps = 0.0;
    std::printf("\n%s direction:\n", label);
    std::printf("  %-8s %12s %12s %10s %10s\n", "workers", "wall [s]", "wps",
                "speedup", "cpu/wall");
    std::vector<SweepPoint> points;
    for (const std::size_t n_workers : sweep) {
      codec::StreamOptions opt;
      opt.queue_capacity = std::max<std::size_t>(64, 4 * n_workers);
      opt.batch_size = batch;
      opt.n_workers = n_workers;
      util::Timer wall;
      const codec::StreamStats stats = run_one(opt);
      const double wall_s = wall.elapsed_s();
      SweepPoint p;
      p.workers = n_workers;
      p.wall_s = wall_s;
      p.wps = wall_s > 0 ? static_cast<double>(stats.wedges_compressed) / wall_s
                         : 0.0;
      if (base_wps == 0.0) base_wps = p.wps;  // 1 worker
      p.speedup = base_wps > 0 ? p.wps / base_wps : 0.0;
      p.cpu_per_wall =
          stats.elapsed_s > 0 ? stats.cpu_s / stats.elapsed_s : 0.0;
      print_point(p);
      points.push_back(p);
      if (stats.wedges_compressed != n_wedges) {
        std::fprintf(stderr, "ERROR: %s processed %lld of %lld wedges\n",
                     label, static_cast<long long>(stats.wedges_compressed),
                     static_cast<long long>(n_wedges));
        std::exit(1);
      }
    }
    return points;
  };

  const auto compress_points =
      run_sweep("compress", [&](const codec::StreamOptions& opt) {
        // The unordered sink runs concurrently across workers: tally atomically.
        std::atomic<std::int64_t> bytes{0};
        codec::StreamCompressor stream(
            wedge_codec, opt, [&bytes](codec::WedgeEnvelope&& cw) {
              bytes.fetch_add(cw.payload_bytes(), std::memory_order_relaxed);
            });
        for (std::int64_t i = 0; i < n_wedges; ++i) {
          stream.submit(wedges[static_cast<std::size_t>(i) % wedges.size()]);
        }
        return stream.finish();
      });

  const auto decompress_points =
      run_sweep("decompress", [&](const codec::StreamOptions& opt) {
        std::atomic<std::int64_t> voxels{0};
        codec::StreamDecompressor stream(
            wedge_codec, opt, [&voxels](core::Tensor&& w) {
              voxels.fetch_add(w.numel(), std::memory_order_relaxed);
            });
        for (std::int64_t i = 0; i < n_wedges; ++i) {
          stream.submit(stored[static_cast<std::size_t>(i) % stored.size()]);
        }
        return stream.finish();
      });

  // Burst absorption: try_submit a 4x-capacity burst against the compress
  // pool with the spill tier enabled.  Drops or an unreplayed spill are
  // hard errors — this row *is* the lossless-backpressure claim.
  const auto spill_root =
      std::filesystem::temp_directory_path() /
      ("bench_stream_spill_" +
       std::to_string(std::chrono::steady_clock::now().time_since_epoch().count()));
  const std::size_t burst_workers = std::min<std::size_t>(4, sweep_ceiling);
  const auto run_burst = [&] {
    codec::StreamOptions opt;
    opt.queue_capacity = 16;
    opt.batch_size = batch;
    opt.n_workers = burst_workers;
    opt.spill_dir = spill_root.string();
    const long long n_burst = 4 * static_cast<long long>(opt.queue_capacity);
    std::atomic<std::int64_t> bytes{0};
    util::Timer wall;
    codec::StreamCompressor stream(
        wedge_codec, opt, [&bytes](codec::WedgeEnvelope&& cw) {
          bytes.fetch_add(cw.payload_bytes(), std::memory_order_relaxed);
        });
    for (long long i = 0; i < n_burst; ++i) {
      (void)stream.try_submit(wedges[static_cast<std::size_t>(i) % wedges.size()]);
    }
    const codec::StreamStats stats = stream.finish();
    BurstPoint p;
    p.workers = opt.n_workers;
    p.capacity = opt.queue_capacity;
    p.wedges = n_burst;
    p.wall_s = wall.elapsed_s();
    p.wps = p.wall_s > 0
                ? static_cast<double>(stats.wedges_compressed) / p.wall_s
                : 0.0;
    p.spilled = static_cast<long long>(stats.wedges_spilled);
    p.replayed = static_cast<long long>(stats.wedges_replayed);
    p.dropped = static_cast<long long>(stats.wedges_dropped);
    std::printf("  %12.3f %12.1f %9lld %9lld %8lld\n", p.wall_s, p.wps,
                p.spilled, p.replayed, p.dropped);
    if (stats.wedges_compressed != n_burst || p.dropped != 0 ||
        p.replayed != p.spilled) {
      std::fprintf(stderr,
                   "ERROR: burst not lossless (%lld of %lld compressed, "
                   "%lld dropped, %lld/%lld replayed)\n",
                   static_cast<long long>(stats.wedges_compressed), n_burst,
                   p.dropped, p.replayed, p.spilled);
      std::error_code ec;
      std::filesystem::remove_all(spill_root, ec);  // don't strand temp files
      std::exit(1);
    }
    return p;
  };
  std::printf("\nburst (4x capacity, spill tier on, %zu workers):\n",
              burst_workers);
  std::printf("  %12s %12s %9s %9s %8s\n", "wall [s]", "wps", "spilled",
              "replayed", "dropped");
  const BurstPoint burst = run_burst();
  std::error_code cleanup_ec;
  std::filesystem::remove_all(spill_root, cleanup_ec);

  if (hw < 4) {
    std::printf("\nnote: only %u hardware thread(s) visible — worker scaling "
                "needs >= 4 cores to show the expected >1.5x at 4 workers.\n",
                hw);
  }

  // Machine-readable trailer (single line, greppable with '^{').
  std::printf("\n{\"bench\":\"stream\",\"wedges\":%lld,\"batch\":%lld,"
              "\"hardware_threads\":%u,"
              "\"compress\":%s,\"decompress\":%s,\"burst\":%s}\n",
              static_cast<long long>(n_wedges), static_cast<long long>(batch),
              hw, json_points(compress_points).c_str(),
              json_points(decompress_points).c_str(),
              json_burst(burst).c_str());
  return 0;
}
