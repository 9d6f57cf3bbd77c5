#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "bcae/model.hpp"
#include "codec/service.hpp"
#include "codec/stream.hpp"
#include "codec/wedge_codec.hpp"
#include "model_profile.hpp"
#include "tpc/dataset.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using nc::codec::WedgeCodec;
using nc::codec::WedgeEnvelope;
using nc::core::Mode;
using nc::core::Tensor;

namespace {

// Fixed parts of the inputs.  The weights are untrained but fixed, so every
// run of every seed compresses with the same model; --seed only varies the
// simulated events and the service's send schedule.
constexpr std::uint64_t kWeightSeed = 20231023;
constexpr int kSetupReps = 3;          // set-ups per run; setup_s is their median
constexpr std::size_t kWarmupWedges = 2;
constexpr std::size_t kSampled = 4;    // wedges re-computed apart from the stream
constexpr std::size_t kSessions = 8;
// Wedges/s offered to the service per pipeline worker: about a quarter of
// what one worker compresses with bcae-int8 (~13 ms a wedge on the
// reference host).  At half of capacity, queueing turned the host's steal
// time into a run-to-run spread of the median latency near 50%.
constexpr double kServiceRatePerWorker = 20.0;
constexpr double kServiceLead = 0.05;   // s from phase start to the first send

// Table 2 parity of the compressed codes against the fp32 code of the same
// wedge; measured relative L2 is ~7e-4 (fp16) and ~2.6e-2 (int8).
double parity_tolerance(Mode mode) {
  return mode == Mode::kEvalInt8 ? 6e-2 : 3e-3;
}

struct Spec {
  const char* name;
  const char* codec;
  Mode mode;
  std::int64_t events;  // simulated events; each yields 24 wedges
  enum Kind { kEncode, kDecode, kService } kind;
};

const std::vector<Spec>& specs() {
  static const std::vector<Spec> s = {
      {"encode-fp16", "bcae-fp16", Mode::kEvalHalf, 4, Spec::kEncode},
      // Decoding costs ~15x encoding, so one event's 24 wedges make the
      // corpus, which keeps its pre-encode inside the set-up budget.
      {"decode-fp32", "bcae-fp32", Mode::kEval, 1, Spec::kDecode},
      {"service-int8", "bcae-int8", Mode::kEvalInt8, 4, Spec::kService},
  };
  return s;
}

const Spec& find_spec(const std::string& name) {
  for (const auto& s : specs()) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Set-up

struct SetupTimes {
  double generate_s = 0, build_s = 0, warmup_s = 0, corpus_encode_s = 0;
  double total_s = 0;
};

struct Inputs {
  nc::tpc::WedgeShape shape;
  double occupancy = 0.0;
  std::vector<Tensor> wedges;  // unpadded (radial, azim, horiz)
  std::unique_ptr<nc::bcae::BcaeModel> model;
  std::unique_ptr<WedgeCodec> codec;     // rung 0 / the stream's codec
  std::unique_ptr<WedgeCodec> fallback;  // service rung 1
  std::vector<WedgeEnvelope> corpus;     // decode-fp32 input
  SetupTimes t;
};

std::vector<Tensor> first_n(const std::vector<Tensor>& v, std::size_t n) {
  return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(std::min(n, v.size()))};
}

Inputs set_up(const Spec& spec, std::uint64_t seed) {
  Inputs in;
  const double t_start = now_s();

  nc::tpc::DatasetConfig cfg;
  cfg.geometry = nc::tpc::TpcGeometry::bench_scale();
  cfg.n_events = spec.events;
  cfg.seed = seed;
  const auto ds = nc::tpc::WedgeDataset::generate(cfg);
  in.shape = ds.wedge_shape();
  in.occupancy = ds.occupancy();
  for (const auto* split : {&ds.train(), &ds.test()}) {
    for (const auto& w : *split) {
      in.wedges.push_back(nc::tpc::clip_horizontal(w, ds.valid_horiz()));
    }
  }
  const double t_gen = now_s();
  in.t.generate_s = t_gen - t_start;

  in.model = std::make_unique<nc::bcae::BcaeModel>(
      nc::bcae::make_bcae_2d(nc::bcae::Bcae2dConfig{}, kWeightSeed));
  in.codec = nc::codec::make_wedge_codec(spec.codec, *in.model);
  if (spec.kind == Spec::kService) {
    in.fallback = nc::codec::make_wedge_codec("zfp", *in.model);
  }
  const double t_build = now_s();
  in.t.build_s = t_build - t_gen;

  // The first call of a codec builds its derived weight caches and scratch;
  // it stays out of the timed phase.
  const auto warm = first_n(in.wedges, kWarmupWedges);
  if (spec.kind == Spec::kDecode) {
    in.corpus = in.codec->compress_batch(in.wedges);
    const double t_corpus = now_s();
    in.t.corpus_encode_s = t_corpus - t_build;
    (void)in.codec->decompress_batch(
        {in.corpus.begin(), in.corpus.begin() + 1});
    in.t.warmup_s = now_s() - t_corpus;
  } else {
    (void)in.codec->compress_batch(warm);
    if (in.fallback) (void)in.fallback->compress_batch(warm);
    in.t.warmup_s = now_s() - t_build;
  }
  in.t.total_s = now_s() - t_start;
  return in;
}

// ---------------------------------------------------------------------------
// Timed phases

struct Phase {
  double wall_s = 0.0, cpu_s = 0.0;
  std::int64_t attempted = 0, delivered = 0, failed = 0;
  std::vector<double> latency_ms;  // per delivered wedge, in send order
  std::vector<double> submit_us;   // per submit call
  double submit_s = 0.0;           // summed time inside submit calls
  double gen_lag_max_ms = 0.0;
  double ratio = 0.0;              // mean compression ratio of the outputs
  nc::codec::StreamStats pipeline;
  std::int64_t degradations = 0, shed = 0;
};

/// Per-wedge timestamps of one phase, keyed by (session, seq), for the
/// traced per-layer split.
struct WedgeTimes {
  std::vector<std::vector<double>> sent;     // [session][seq] send time (s)
  std::vector<std::vector<double>> arrived;  // [session][seq] sink time (s)
};

/// What the checks look at after a phase.  Sinks check each output as it
/// arrives and keep only the sampled ones, so memory does not grow with the
/// number of wedges a faster program delivers.
struct Outputs {
  // Streams (session 0).
  std::vector<std::uint64_t> seqs;  // sink order
  std::string first_failure;        // first output that failed its check
  std::vector<std::pair<std::uint64_t, WedgeEnvelope>> sampled_envelopes;
  std::vector<std::pair<std::uint64_t, Tensor>> sampled_decoded;
  // Service, per session.  Each session's sink touches only its own slots.
  std::vector<std::vector<std::uint64_t>> session_seqs;
  std::vector<std::vector<std::size_t>> session_wedge;  // [s][seq] -> wedge
  std::vector<std::optional<WedgeEnvelope>> session_first;
  std::vector<std::string> session_failure;
  std::vector<std::int64_t> session_degraded;  // outputs of a lower rung
};

void finish_phase(Phase& p, double t0_cpu) {
  p.cpu_s = cpu_seconds() - t0_cpu;
  for (const auto us : p.submit_us) p.submit_s += us * 1e-6;
}

const void* storage(const Tensor& t) { return t.data(); }
const void* storage(const WedgeEnvelope& e) { return e.payload.data(); }

/// Closed loop: one thread submits `next(i)` with blocking submits until
/// `seconds` have passed, then finish() drains the backlog.  `keep(seq, out)`
/// runs for every output, serialized.
template <typename Stream, typename Out, typename Next, typename Keep>
Phase run_closed_loop(const WedgeCodec& registry_codec, std::size_t workers,
                      double seconds, SpanLog* log, WedgeTimes& times,
                      Next next, Keep keep) {
  std::optional<TimedCodec> timed;
  if (log) timed.emplace(registry_codec, *log);
  const WedgeCodec& codec =
      log ? static_cast<const WedgeCodec&>(*timed) : registry_codec;

  nc::codec::StreamOptions opt;
  opt.n_workers = workers;
  const auto origin = log ? log->origin() : Clock::now();
  std::mutex mutex;
  std::vector<std::pair<std::uint64_t, double>> arrivals;
  std::vector<double> sent;
  Phase p;
  const double cpu0 = cpu_seconds();
  {
    Stream stream(codec, opt, [&](std::uint64_t seq, Out&& out) {
      const double t = since(origin, Clock::now());
      std::lock_guard<std::mutex> lock(mutex);
      arrivals.emplace_back(seq, t);
      keep(seq, std::move(out));
      if (log) log->add(SpanKind::kSink, t, since(origin, Clock::now()), {0, seq});
    });
    for (std::uint64_t i = 0;; ++i) {
      const double t = since(origin, Clock::now());
      if (t >= seconds) break;
      auto item = next(i, log != nullptr);
      if (log) log->tag(storage(item), {0, i});
      sent.push_back(t);
      stream.submit(std::move(item));
      const double t1 = since(origin, Clock::now());
      p.submit_us.push_back((t1 - t) * 1e6);
      if (log) log->add(SpanKind::kSubmit, t, t1, {0, i});
    }
    p.pipeline = stream.finish();
  }
  p.wall_s = since(origin, Clock::now());
  finish_phase(p, cpu0);
  p.attempted = static_cast<std::int64_t>(sent.size());
  p.delivered = static_cast<std::int64_t>(arrivals.size());
  p.failed = p.attempted - p.delivered;
  times.sent = {sent};
  times.arrived = {std::vector<double>(sent.size(), NAN)};
  for (const auto& [seq, t] : arrivals) {
    if (seq < sent.size()) times.arrived[0][seq] = t;
  }
  for (std::size_t seq = 0; seq < sent.size(); ++seq) {
    const double t = times.arrived[0][seq];
    if (!std::isnan(t)) p.latency_ms.push_back((t - sent[seq]) * 1e3);
  }
  return p;
}

Phase run_encode(const Inputs& in, std::size_t workers, double seconds,
                 SpanLog* log, Outputs& out, WedgeTimes& times) {
  double ratio_sum = 0.0;
  const auto id = in.codec->codec_id();
  Phase p = run_closed_loop<nc::codec::StreamCompressor, WedgeEnvelope>(
      *in.codec, workers, seconds, log, times,
      [&](std::uint64_t i, bool traced) {
        // A traced run gives every submit its own storage so the codec
        // decorator can tell the wedges of a batch apart.
        const Tensor& w = in.wedges[i % in.wedges.size()];
        return traced ? w.clone() : w;
      },
      [&](std::uint64_t seq, WedgeEnvelope&& env) {
        out.seqs.push_back(seq);
        ratio_sum += env.compression_ratio();
        if (out.first_failure.empty()) {
          out.first_failure = check_bcae_envelope(env, id, in.shape);
        }
        if (seq < kSampled) out.sampled_envelopes.emplace_back(seq, std::move(env));
      });
  p.ratio = ratio_sum / static_cast<double>(std::max<std::int64_t>(1, p.delivered));
  return p;
}

Phase run_decode(const Inputs& in, std::size_t workers, double seconds,
                 SpanLog* log, Outputs& out, WedgeTimes& times) {
  Phase p = run_closed_loop<nc::codec::StreamDecompressor, Tensor>(
      *in.codec, workers, seconds, log, times,
      [&](std::uint64_t i, bool) {
        return in.corpus[i % in.corpus.size()];  // a copy: fresh payload storage
      },
      [&](std::uint64_t seq, Tensor&& wedge) {
        out.seqs.push_back(seq);
        if (out.first_failure.empty()) {
          out.first_failure = check_decoded_wedge(wedge, in.shape);
        }
        if (seq < kSampled) out.sampled_decoded.emplace_back(seq, std::move(wedge));
      });
  for (const auto& e : in.corpus) p.ratio += e.compression_ratio();
  p.ratio /= static_cast<double>(in.corpus.size());
  return p;
}

Phase run_service(const Inputs& in, std::size_t workers, double seconds,
                  std::uint64_t seed, SpanLog* log, Outputs& out,
                  WedgeTimes& times) {
  std::optional<TimedCodec> timed0, timed1;
  std::vector<const WedgeCodec*> ladder = {in.codec.get(), in.fallback.get()};
  if (log) {
    timed0.emplace(*in.codec, *log);
    timed1.emplace(*in.fallback, *log);
    ladder = {&*timed0, &*timed1};
  }
  nc::codec::ServiceOptions so;
  so.pipeline.n_workers = workers;

  const auto origin = log ? log->origin() : Clock::now();
  times.sent.assign(kSessions, {});
  times.arrived.assign(kSessions, {});
  out.session_seqs.assign(kSessions, {});
  out.session_wedge.assign(kSessions, {});
  out.session_first.assign(kSessions, std::nullopt);
  out.session_failure.assign(kSessions, {});
  out.session_degraded.assign(kSessions, 0);
  std::vector<double> ratio_sum(kSessions, 0.0);
  // The schedule is fixed before the phase starts: send i goes out at
  // kServiceLead + i / rate to a seeded session with a seeded wedge, so
  // every run of a seed offers the same load whatever the program does.
  const double rate = kServiceRatePerWorker * static_cast<double>(workers);
  const auto n_sends = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<std::pair<std::size_t, std::size_t>> schedule(n_sends);
  nc::util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 7);
  for (auto& [session, wedge] : schedule) {
    session = static_cast<std::size_t>(rng.uniform_int(kSessions));
    wedge = static_cast<std::size_t>(rng.uniform_int(in.wedges.size()));
  }
  for (std::size_t s = 0; s < kSessions; ++s) {
    times.arrived[s].assign(n_sends, NAN);
  }

  Phase p;
  std::int64_t not_accepted = 0, shed_sends = 0;
  std::vector<std::pair<std::size_t, std::uint64_t>> send_order;  // (session, seq)
  const auto id = in.codec->codec_id();
  const double cpu0 = cpu_seconds();
  {
    nc::codec::CompressionService service(so);
    std::vector<nc::codec::SessionId> ids;
    for (std::size_t s = 0; s < kSessions; ++s) {
      nc::codec::SessionOptions opt;
      opt.ladder = ladder;
      // Per-session sink calls are serialized by the service, so each
      // session's slots are only ever touched by one sink at a time.
      opt.sink = [&, s](std::uint64_t seq, WedgeEnvelope&& env) {
        const double t = since(origin, Clock::now());
        if (seq < times.arrived[s].size()) times.arrived[s][seq] = t;
        out.session_seqs[s].push_back(seq);
        ratio_sum[s] += env.compression_ratio();
        if (env.codec_id != id) ++out.session_degraded[s];
        if (out.session_failure[s].empty()) {
          out.session_failure[s] = check_bcae_envelope(env, id, in.shape);
        }
        if (seq == 0) out.session_first[s] = std::move(env);
        if (log) {
          log->add(SpanKind::kSink, t, since(origin, Clock::now()),
                   {static_cast<std::uint32_t>(s), seq});
        }
      };
      ids.push_back(service.open_session(std::move(opt)));
    }
    for (std::size_t i = 0; i < n_sends; ++i) {
      const auto [s, w] = schedule[i];
      const double due = kServiceLead + static_cast<double>(i) / rate;
      std::this_thread::sleep_until(origin + std::chrono::duration_cast<Clock::duration>(
                                                 std::chrono::duration<double>(due)));
      const std::uint64_t seq = times.sent[s].size();
      Tensor wedge = log ? in.wedges[w].clone() : in.wedges[w];
      if (log) log->tag(wedge.data(), {static_cast<std::uint32_t>(s), seq});
      const double t = since(origin, Clock::now());
      const auto r = service.try_submit(ids[s], std::move(wedge));
      const double t1 = since(origin, Clock::now());
      p.gen_lag_max_ms = std::max(p.gen_lag_max_ms, (t - due) * 1e3);
      p.submit_us.push_back((t1 - t) * 1e6);
      if (log) {
        log->add(SpanKind::kSubmit, t, t1, {static_cast<std::uint32_t>(s), seq});
      }
      // Accepted and shed sends consume a session sequence number.
      if (r == nc::codec::SubmitResult::kAccepted ||
          r == nc::codec::SubmitResult::kShed) {
        send_order.emplace_back(s, seq);
        times.sent[s].push_back(due);
        out.session_wedge[s].push_back(w);
      }
      if (r != nc::codec::SubmitResult::kAccepted) ++not_accepted;
      if (r == nc::codec::SubmitResult::kShed) ++shed_sends;
    }
    for (const auto sid : ids) {
      const auto st = service.close_session(sid);
      p.degradations += st.degradations;
      p.shed += st.shed;
    }
    p.pipeline = service.finish().pipeline;
  }
  p.wall_s = since(origin, Clock::now()) - kServiceLead;
  finish_phase(p, cpu0);
  p.attempted = static_cast<std::int64_t>(n_sends);
  std::int64_t seqs_used = 0, degraded = 0;
  for (std::size_t s = 0; s < kSessions; ++s) {
    seqs_used += static_cast<std::int64_t>(times.sent[s].size());
    p.delivered += static_cast<std::int64_t>(out.session_seqs[s].size());
    degraded += out.session_degraded[s];
    p.ratio += ratio_sum[s];
  }
  p.ratio /= static_cast<double>(std::max<std::int64_t>(1, p.delivered));
  for (const auto& [s, seq] : send_order) {
    const double t = times.arrived[s][seq];
    if (!std::isnan(t)) p.latency_ms.push_back((t - times.sent[s][seq]) * 1e3);
  }
  // A failure is a send that was not accepted, an accepted wedge that never
  // reached its sink (shed or failed gap), or one compressed by a degraded
  // rung.
  p.failed = not_accepted + (seqs_used - shed_sends - p.delivered) + degraded;
  return p;
}

// ---------------------------------------------------------------------------
// Checks

void check_outputs(const Spec& spec, Inputs& in, const Phase& p,
                   const Outputs& out, CheckLog& log) {
  const auto fp32 = nc::codec::make_wedge_codec("bcae-fp32", *in.model);
  const double parity = parity_tolerance(spec.mode);
  std::vector<Tensor> sampled;

  if (spec.kind == Spec::kEncode) {
    log.expect(check_sequence(out.seqs, static_cast<std::uint64_t>(p.attempted),
                              /*ordered=*/false),
               "every submitted wedge delivered exactly once");
    log.expect(out.first_failure, "every envelope: codec id, shape, code element count");
    for (const auto& [seq, env] : out.sampled_envelopes) {
      const Tensor& w = in.wedges[seq % in.wedges.size()];
      sampled.push_back(w);
      const auto tag = "seq " + std::to_string(seq);
      log.expect(check_same_envelope(env, in.codec->compress(w)),
                 tag + " stream envelope equals a single compress call");
      log.expect(check_code_parity(env, fp32->compress(w), parity),
                 tag + " code parity with fp32");
    }
  } else if (spec.kind == Spec::kDecode) {
    log.expect(check_sequence(out.seqs, static_cast<std::uint64_t>(p.attempted),
                              /*ordered=*/false),
               "every submitted envelope decoded exactly once");
    std::string first_bad;
    for (const auto& e : in.corpus) {
      if (first_bad.empty()) first_bad = check_bcae_envelope(e, in.codec->codec_id(), in.shape);
    }
    log.expect(first_bad, "corpus envelopes: codec id, shape, code element count");
    log.expect(out.first_failure, "every decoded wedge: shape, voxels 0 or >= 6");
    for (const auto& [seq, wedge] : out.sampled_decoded) {
      log.expect(check_same_tensor(wedge, in.codec->decompress(
                                              in.corpus[seq % in.corpus.size()])),
                 "seq " + std::to_string(seq) +
                     " stream decode equals a single decompress call");
    }
  } else {
    for (std::size_t s = 0; s < kSessions; ++s) {
      const auto tag = "session " + std::to_string(s);
      log.expect(check_sequence(out.session_seqs[s], out.session_wedge[s].size(),
                                /*ordered=*/true),
                 tag + " sink sees 0, 1, 2, ... with no gap");
      log.expect(out.session_failure[s], tag + " envelopes: codec id, shape, code element count");
      if (!out.session_first[s]) continue;
      const Tensor& w = in.wedges[out.session_wedge[s][0]];
      if (sampled.size() < kSampled) sampled.push_back(w);
      log.expect(check_same_envelope(*out.session_first[s], in.codec->compress(w)),
                 tag + " seq 0 envelope equals a single compress call");
      log.expect(check_code_parity(*out.session_first[s], fp32->compress(w), parity),
                 tag + " seq 0 code parity with fp32");
    }
  }
  if (sampled.empty()) sampled = first_n(in.wedges, kSampled);
  const auto pair = enc_in_outputs(*in.model, spec.mode, padded_batch(sampled));
  log.expect(check_close(pair.program, pair.direct, enc_in_tolerance(spec.mode)),
             "enc.in output matches a direct convolution");
}

// ---------------------------------------------------------------------------
// Metrics

void add(std::vector<Metric>& m, const std::string& name, double value,
         const std::string& unit) {
  m.push_back({name, value, unit});
}

/// The tail percentile every workload reports: p90, the highest percentile
/// that keeps >= 10 samples beyond it on the slowest workload (decode-fp32
/// delivers ~180 wedges in a traced phase).  NaN when a run is too short.
double p90(const std::vector<double>& v) {
  return percentile(v, 0.90).value_or(NAN);
}

void end_to_end_metrics(const Phase& p, double setup_s, std::vector<Metric>& m) {
  const double n = static_cast<double>(std::max<std::int64_t>(1, p.delivered));
  add(m, "setup_s", setup_s, "s");
  add(m, "wps", static_cast<double>(p.delivered) / p.wall_s, "1/s");
  add(m, "latency_p50_ms", median(p.latency_ms), "ms");
  add(m, "cpu_ms_per_wedge", p.cpu_s * 1e3 / n, "ms");
  add(m, "peak_rss_mb", peak_rss_mb(), "MB");
  add(m, "compression_ratio", p.ratio, "x");
}

/// Labels whose bcae.<label>.ms the traced run reports: together they cover
/// at least 90% of each chain's time in every workload's mode.
const std::vector<std::string>& profiled_labels() {
  static const std::vector<std::string> labels = [] {
    std::vector<std::string> l = {"enc.in",      "enc.in.act",  "enc.b1.res1",
                                  "enc.b1.res2", "enc.b2.res1", "enc.b2.res2"};
    // The decoders' full-resolution blocks: b3 upsamples to full size.
    for (const char* head : {"dseg", "dreg"}) {
      for (int b = 3; b <= 8; ++b) {
        for (int r = 1; r <= 2; ++r) {
          l.push_back(std::string(head) + ".b" + std::to_string(b) + ".res" +
                      std::to_string(r));
        }
      }
    }
    return l;
  }();
  return labels;
}

void per_layer_metrics(const std::vector<SetupTimes>& setups,
                       const Phase& untraced, const Phase& traced,
                       const SpanLog& log, const WedgeTimes& times,
                       std::size_t workers, const ModelProfile& prof,
                       std::vector<Metric>& m) {
  std::vector<double> gen, build, warm, corpus;
  for (const auto& s : setups) {
    gen.push_back(s.generate_s);
    build.push_back(s.build_s);
    warm.push_back(s.warmup_s);
    corpus.push_back(s.corpus_encode_s);
  }
  add(m, "tpc.generate_s", median(gen), "s");
  add(m, "bcae.build_s", median(build), "s");
  add(m, "codec.warmup_s", median(warm), "s");
  add(m, "codec.corpus_encode_s", median(corpus), "s");

  const double codec_s = log.codec_s();
  const auto calls = log.codec_calls();
  const auto wedges = std::max<std::int64_t>(1, log.codec_wedges());
  const double delivered = static_cast<double>(std::max<std::int64_t>(1, traced.delivered));
  add(m, "codec.calls", static_cast<double>(calls), "count");
  add(m, "codec.wedges_per_call",
      static_cast<double>(wedges) / static_cast<double>(std::max<std::int64_t>(1, calls)),
      "count");
  add(m, "codec.ms_per_wedge", codec_s * 1e3 / static_cast<double>(wedges), "ms");
  add(m, "codec.busy_frac", codec_s / (static_cast<double>(workers) * traced.wall_s), "1");

  add(m, "pipeline.submit_block_ms_per_wedge", traced.submit_s * 1e3 / delivered, "ms");
  add(m, "pipeline.worker_other_ms_per_wedge",
      (traced.pipeline.cpu_s - codec_s) * 1e3 / delivered, "ms");
  add(m, "pipeline.queue_depth_hwm", static_cast<double>(traced.pipeline.queue_depth_hwm),
      "count");
  add(m, "pipeline.batches_stolen", static_cast<double>(traced.pipeline.batches_stolen),
      "count");

  // Per-wedge split of the latency at the codec boundary.
  std::vector<double> queue_ms, deliver_ms;
  const auto& keys = log.batch_keys();
  for (const auto& span : log.spans()) {
    if (span.kind != SpanKind::kCodec) continue;
    for (std::uint32_t i = 0; i < span.count; ++i) {
      const auto& k = keys[span.first + i];
      if (k.session >= times.sent.size() || k.seq >= times.sent[k.session].size()) continue;
      queue_ms.push_back((span.t0 - times.sent[k.session][k.seq]) * 1e3);
      const double arrived = times.arrived[k.session][k.seq];
      if (!std::isnan(arrived)) deliver_ms.push_back((arrived - span.t1) * 1e3);
    }
  }
  // The end-to-end tail: on a shared host it follows hypervisor steal time
  // too closely to gate on, so it is reported here, unbounded.
  add(m, "e2e.latency_p90_ms", p90(traced.latency_ms), "ms");
  add(m, "service.queue_ms_p50", median(queue_ms), "ms");
  add(m, "service.queue_ms_p90", p90(queue_ms), "ms");
  add(m, "service.deliver_ms_p50", median(deliver_ms), "ms");
  add(m, "service.deliver_ms_p90", p90(deliver_ms), "ms");
  add(m, "service.submit_us_p50", median(traced.submit_us), "us");
  add(m, "service.submit_us_p90", p90(traced.submit_us), "us");
  add(m, "service.gen_lag_ms_max", traced.gen_lag_max_ms, "ms");
  add(m, "service.degradations", static_cast<double>(traced.degradations), "count");
  add(m, "service.shed", static_cast<double>(traced.shed), "count");

  const double b = static_cast<double>(prof.batch);
  add(m, "bcae.encoder_ms_per_wedge", prof.encoder.total_ms() / b, "ms");
  add(m, "bcae.decoder_ms_per_wedge",
      (prof.decoder_seg.total_ms() + prof.decoder_reg.total_ms()) / b, "ms");
  for (const auto& label : profiled_labels()) {
    double ms = 0.0;
    for (const auto* chain : {&prof.encoder, &prof.decoder_seg, &prof.decoder_reg}) {
      for (const auto& [l, t] : chain->layer_ms) {
        if (l == label) ms += t;
      }
    }
    add(m, "bcae." + label + ".ms", ms, "ms");
  }
  double enc_in_ms = 0.0;
  for (const auto& [l, t] : prof.encoder.layer_ms) {
    if (l == "enc.in") enc_in_ms = t;
  }
  add(m, "bcae.enc.in.gflops", prof.enc_in_flops / (enc_in_ms * 1e-3) * 1e-9, "GFLOP/s");

  const double wps_u = static_cast<double>(untraced.delivered) / untraced.wall_s;
  const double wps_t = static_cast<double>(traced.delivered) / traced.wall_s;
  const double p50_u = median(untraced.latency_ms), p50_t = median(traced.latency_ms);
  add(m, "trace.wps_overhead_pct", (wps_u - wps_t) / wps_u * 100.0, "%");
  add(m, "trace.latency_p50_overhead_pct", (p50_t - p50_u) / p50_u * 100.0, "%");
  add(m, "trace.spans", static_cast<double>(log.spans().size()), "count");
}

}  // namespace

std::size_t default_workers(const std::string& workload, std::size_t nproc) {
  const auto& spec = find_spec(workload);
  if (spec.kind == Spec::kService) return std::max<std::size_t>(1, nproc - 1);
  return std::max<std::size_t>(1, nproc);
}

RunReport run_workload(const RunOptions& opt) {
  const Spec& spec = find_spec(opt.workload);
  RunReport report;

  // Set-up runs kSetupReps times; the last one's inputs are used.  Each
  // set-up frees the previous one first, so memory peaks as in one.
  std::optional<Inputs> inputs;
  std::vector<SetupTimes> setups;
  std::vector<double> setup_totals;
  for (int r = 0; r < kSetupReps; ++r) {
    inputs.reset();
    inputs.emplace(set_up(spec, opt.seed));
    setups.push_back(inputs->t);
    setup_totals.push_back(inputs->t.total_s);
  }
  Inputs& in = *inputs;
  report.header.push_back("wedge=" + in.shape.to_string() + "->" +
                          std::to_string(in.shape.padded_horiz()));
  report.header.push_back("wedges=" + std::to_string(in.wedges.size()));
  report.header.push_back("occupancy=" + std::to_string(in.occupancy));
  report.header.push_back("codec=" + in.codec->name());

  // A traced run splits its time between an untraced phase, the reference
  // for the tracing overhead, and the traced phase.
  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  auto run_phase = [&](SpanLog* log, Outputs& out, WedgeTimes& times) {
    switch (spec.kind) {
      case Spec::kEncode: return run_encode(in, opt.workers, phase_s, log, out, times);
      case Spec::kDecode: return run_decode(in, opt.workers, phase_s, log, out, times);
      default: return run_service(in, opt.workers, phase_s, opt.seed, log, out, times);
    }
  };

  Outputs out;
  WedgeTimes times;
  const Phase p = run_phase(nullptr, out, times);
  check_outputs(spec, in, p, out, report.checks);
  report.attempted = p.attempted;
  report.failed = p.failed;

  if (!opt.trace) {
    end_to_end_metrics(p, median(setup_totals), report.metrics);
    return report;
  }

  // Traced run: the same phase again with the timing decorator and spans,
  // then the single-threaded model-layer pass.
  SpanLog log(Clock::now());
  Outputs tout;
  WedgeTimes ttimes;
  const Phase tp = run_phase(&log, tout, ttimes);
  check_outputs(spec, in, tp, tout, report.checks);
  report.attempted += tp.attempted;
  report.failed += tp.failed;
  const auto batch = padded_batch(first_n(in.wedges, nc::codec::StreamOptions{}.batch_size));
  const ModelProfile prof = profile_model(*in.model, spec.mode, batch);
  per_layer_metrics(setups, p, tp, log, ttimes, opt.workers, prof, report.metrics);
  if (!opt.trace_out.empty()) {
    std::ofstream os(opt.trace_out);
    log.write_jsonl(os);
    if (!os) throw std::runtime_error("cannot write spans to " + opt.trace_out);
  }
  return report;
}

}  // namespace perfbench
