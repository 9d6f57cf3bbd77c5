/// \file main.cpp
/// \brief Entry point of one benchmark run: one workload, one process.
///
///   nc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///                [--workers <n>] [--trace-out <file.jsonl>]
///
/// The OpenMP team of every thread the program spawns comes from the
/// environment (OMP_NUM_THREADS): libgomp gives each new thread the
/// process-wide default, not the setting of the thread that spawned it, so
/// perfbench/run.py sets the variable before starting this process.  The run
/// refuses to start when workers x team exceeds the usable cores.
///
/// Output: "# key=value" header lines, one "metric <name> <value> <unit>"
/// line per metric, the attempted/failed counts, any failed check, and as
/// the last line one JSON object {"correct", "attempted", "failed",
/// "metrics"}.  Exit code 0 when the run completed (correct or not).
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/simd_dispatch.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

std::size_t usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The OpenMP team a freshly spawned thread (a pipeline worker) gets.
int team_of_new_threads() {
  int team = 1;
  std::thread probe([&] { team = nc::util::num_threads(); });
  probe.join();
  return team;
}

}  // namespace

int main(int argc, char** argv) {
  nc::util::ArgParser args("nc_perfbench", "one run of one benchmark workload");
  args.add_option("workload", "", "encode-fp16 | decode-fp32 | service-int8");
  args.add_option("seed", "1", "seed of the simulated events and the send schedule");
  args.add_option("seconds", "10", "length of the timed phase");
  args.add_option("trace", "0", "1 = traced run printing the per-layer metrics");
  args.add_option("workers", "0", "pipeline workers (0 = the workload's default)");
  args.add_option("trace-out", "", "traced run: file the spans are written to");
  if (!args.parse(argc, argv)) return 2;

  try {
    perfbench::RunOptions opt;
    opt.workload = args.get("workload");
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    opt.seconds = args.get_double("seconds");
    opt.trace = args.get_int("trace") != 0;
    opt.workers = static_cast<std::size_t>(args.get_int("workers"));
    opt.trace_out = args.get("trace-out");
    if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be positive");

    const std::size_t nproc = usable_cores();
    if (opt.workers == 0) opt.workers = perfbench::default_workers(opt.workload, nproc);
    const int team = std::max(nc::util::num_threads(), team_of_new_threads());
    const std::size_t compute = opt.workers * static_cast<std::size_t>(team);
    std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
    std::printf("# nproc=%zu workers=%zu team=%d compute_threads=%zu isa=%s\n", nproc,
                opt.workers, team, compute,
                nc::core::simd::isa_name(nc::core::simd::active_isa()));
    if (compute > nproc) {
      std::fprintf(stderr,
                   "nc_perfbench: refusing to run: %zu workers x %d OpenMP threads = %zu "
                   "compute threads > %zu usable cores (set OMP_NUM_THREADS or --workers)\n",
                   opt.workers, team, compute, nproc);
      return 3;
    }
    std::fflush(stdout);

    perfbench::RunReport r = perfbench::run_workload(opt);
    for (const auto& h : r.header) std::printf("# %s\n", h.c_str());
    std::string json;
    for (const auto& m : r.metrics) {
      if (std::isnan(m.value)) {
        // A p90 needs at least 10 samples beyond it; a shorter run has none.
        std::printf("metric %s unavailable %s (too few samples)\n", m.name.c_str(),
                    m.unit.c_str());
        continue;
      }
      std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    json.empty() ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
      json += buf;
    }
    std::printf("counts attempted=%lld failed=%lld checks=%lld\n",
                static_cast<long long>(r.attempted), static_cast<long long>(r.failed),
                static_cast<long long>(r.checks.checks()));
    for (const auto& f : r.checks.failures()) std::printf("check failed: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
                r.checks.ok() ? "true" : "false", static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed), json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nc_perfbench: %s\n", e.what());
    return 1;
  }
}
