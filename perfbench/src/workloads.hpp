/// \file workloads.hpp
/// \brief The benchmark's three workloads, run against the public APIs of
///        the codec, bcae, tpc and core layers.
///
///   encode-fp16   DAQ write side: StreamCompressor (bcae-fp16), closed loop
///                 of blocking submits.
///   decode-fp32   analysis read side: StreamDecompressor (bcae-fp32), closed
///                 loop over envelopes compressed during set-up.
///   service-int8  CompressionService, 8 sessions on the [bcae-int8, zfp]
///                 ladder, driven open-loop by one generator thread at a
///                 fixed aggregate rate, about half of rung-0 capacity.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 0;     ///< pipeline workers (0 = workload default)
  std::string trace_out;       ///< traced run: where the spans are written
};

struct RunReport {
  std::vector<std::string> header;  ///< "key=value" facts about the run
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  CheckLog checks;
};

/// Pipeline workers a workload uses by default on a host with `nproc`
/// usable cores (closed loops: all of them; the service all but one, which
/// is left to its generator, scheduler and admission threads).
std::size_t default_workers(const std::string& workload, std::size_t nproc);

/// Set up, run and check one workload.  Throws std::invalid_argument on an
/// unknown workload name.
RunReport run_workload(const RunOptions& options);

}  // namespace perfbench
