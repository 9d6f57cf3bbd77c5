/// \file stream.hpp
/// \brief DAQ-style streaming codec stages: both sides of the deployment.
///
/// Models the two-sided deployment the paper targets (§1): wedges arrive
/// continuously from front-end electronics and a real-time compressor must
/// keep up with the collision rate (`StreamCompressor`); later, offline
/// analysis streams the stored bitstreams back through the decoder
/// (`StreamDecompressor`).  Both are thin adapters over the generic
/// `StreamPipeline` worker pool (see stream_pipeline.hpp for the concurrency
/// model: one bounded FIFO intake with explicit backpressure,
/// adaptively-sized batched transforms, sequence numbering, optional
/// in-order emission, failure containment and idempotent finish()).
/// Both directions inherit the intake's depth observability
/// (`StreamStats::queue_depth_hwm`) for free, since the intake lives below
/// the transform.  They likewise both support the lossless spill tier
/// (`StreamOptions::spill_dir`, spill.hpp): the write side spills raw fp32
/// wedges, the read side spills serialized WedgeEnvelope bytes, and in
/// either case a burst beyond the intake bound lands on disk and is
/// replayed — `wedges_dropped` stays 0.
///
/// Since the codec-pluggable refactor, both stages are parameterized by a
/// `WedgeCodec` (wedge_codec.hpp) rather than hard-wired to the BCAE: any
/// registered codec — bcae-fp32/fp16/int8 or the zfp/sz/mgard baselines —
/// can back the same deployment, and the stream's unit of exchange is the
/// codec-tagged `WedgeEnvelope`.  The codec is borrowed and must outlive
/// the stage; its batched methods are invoked concurrently from all
/// `n_workers` threads (the WedgeCodec thread-safety contract).
#pragma once

#include <cstdint>
#include <functional>

#include "codec/stream_pipeline.hpp"
#include "codec/wedge_codec.hpp"

namespace nc::codec {

/// Write side: raw wedges in, codec-tagged envelopes out through the codec's
/// batched encoder.  `n_workers` threads drain the queue in batches of
/// `batch_size` (batching is what buys encoder throughput, Fig. 6).
class StreamCompressor {
 public:
  using Sink = std::function<void(WedgeEnvelope&&)>;
  /// Sink receiving the wedge's submission sequence number.
  using SeqSink = std::function<void(std::uint64_t, WedgeEnvelope&&)>;

  StreamCompressor(const WedgeCodec& codec, const StreamOptions& options,
                   SeqSink sink);
  StreamCompressor(const WedgeCodec& codec, const StreamOptions& options,
                   Sink sink);
  /// Legacy single-worker construction (unordered).
  StreamCompressor(const WedgeCodec& codec, std::size_t queue_capacity,
                   std::size_t batch_size, Sink sink);

  StreamCompressor(const StreamCompressor&) = delete;
  StreamCompressor& operator=(const StreamCompressor&) = delete;

  /// Non-blocking submit with backpressure accounting.
  bool try_submit(core::Tensor wedge) { return pipeline_.try_submit(std::move(wedge)); }
  /// Blocking submit (test/offline use).
  void submit(core::Tensor wedge) { pipeline_.submit(std::move(wedge)); }

  /// Close the intake, drain the queue, join the workers and return totals
  /// plus the per-worker breakdown.  Idempotent: later calls return the same
  /// compression totals with up-to-date intake/drop counters.
  StreamStats finish() { return pipeline_.finish(); }

  const StreamOptions& options() const { return pipeline_.options(); }

  /// Elastic pool passthroughs (see StreamPipeline): manual/observed live
  /// worker count.
  std::size_t set_live_workers(std::size_t n, const char* reason = "manual") {
    return pipeline_.set_live_workers(n, reason);
  }
  std::size_t live_workers() const { return pipeline_.live_workers(); }

 private:
  StreamPipeline<core::Tensor, WedgeEnvelope> pipeline_;
};

/// Read side: codec-tagged envelopes in, decoded tensors out through the
/// codec's batched decoder — the offline-analysis twin of
/// `StreamCompressor`.  Stats vocabulary is shared with the write side:
/// `wedges_compressed` counts decoded wedges and `payload_bytes` the
/// fp16-accounted bytes of the reconstructed wedges (the volume handed to
/// the analysis sink).  A wedge whose payload fails to decode (wrong codec
/// id, corrupt payload, truncated bitstream) fails its whole batch into
/// `wedges_failed` — the same wholesale containment as the write side —
/// without killing its worker or stalling the ordered cursor; run
/// corrupt-prone streams with `batch_size = 1` to contain the loss to the
/// poisoned wedge.
class StreamDecompressor {
 public:
  using Sink = std::function<void(core::Tensor&&)>;
  /// Sink receiving the wedge's submission sequence number.
  using SeqSink = std::function<void(std::uint64_t, core::Tensor&&)>;

  StreamDecompressor(const WedgeCodec& codec, const StreamOptions& options,
                     SeqSink sink);
  StreamDecompressor(const WedgeCodec& codec, const StreamOptions& options,
                     Sink sink);

  StreamDecompressor(const StreamDecompressor&) = delete;
  StreamDecompressor& operator=(const StreamDecompressor&) = delete;

  /// Non-blocking submit with backpressure accounting.
  bool try_submit(WedgeEnvelope envelope) {
    return pipeline_.try_submit(std::move(envelope));
  }
  /// Blocking submit (test/offline use).
  void submit(WedgeEnvelope envelope) { pipeline_.submit(std::move(envelope)); }

  /// Close the intake, drain the queue, join the workers and return totals
  /// plus the per-worker breakdown (idempotent, like the write side).
  StreamStats finish() { return pipeline_.finish(); }

  const StreamOptions& options() const { return pipeline_.options(); }

  /// Elastic pool passthroughs (see StreamPipeline).
  std::size_t set_live_workers(std::size_t n, const char* reason = "manual") {
    return pipeline_.set_live_workers(n, reason);
  }
  std::size_t live_workers() const { return pipeline_.live_workers(); }

 private:
  StreamPipeline<WedgeEnvelope, core::Tensor> pipeline_;
};

}  // namespace nc::codec
