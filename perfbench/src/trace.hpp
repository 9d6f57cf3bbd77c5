/// \file trace.hpp
/// \brief In-memory spans for the traced run, and the timing decorator that
///        records the codec layer from outside the program.
///
/// A span is one submit, one codec call or one sink delivery.  Wedge spans
/// carry (session, seq); a codec call carries the keys of the wedges in its
/// batch, resolved from the address of each wedge's storage, which the
/// pipeline moves but never copies.  Spans stay in memory during the run and
/// are written out once it ends.  Untraced runs use none of this: they hand
/// the registry codec to the pipeline directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "codec/wedge_codec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `origin`.
inline double since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double>(t - origin).count();
}

/// Identity of one wedge: its session (0 for a plain stream) and the
/// sequence number the program gave it.
struct WedgeKey {
  std::uint32_t session = 0;
  std::uint64_t seq = 0;
};

enum class SpanKind { kSubmit, kCodec, kSink };

struct Span {
  SpanKind kind = SpanKind::kSubmit;
  double t0 = 0.0, t1 = 0.0;  ///< seconds since the phase origin
  WedgeKey key;               ///< submit and sink spans
  std::uint32_t first = 0, count = 0;  ///< codec spans: range in SpanLog::batch_keys
};

/// Thread-safe span store plus the storage-address -> key map the codec
/// decorator resolves batches with.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  Clock::time_point origin() const { return origin_; }
  double now() const { return since(origin_, Clock::now()); }

  /// Announce that the wedge whose storage starts at `addr` has `key`.
  void tag(const void* addr, WedgeKey key);
  void add(SpanKind kind, double t0, double t1, WedgeKey key);
  /// Record one codec call over wedges identified by storage address.
  void add_codec_call(double t0, double t1, const std::vector<const void*>& addrs);

  /// Total codec-call seconds, calls and wedges so far.
  double codec_s() const;
  std::int64_t codec_calls() const;
  std::int64_t codec_wedges() const;

  /// Snapshot of every span and the codec batch keys (call after the run).
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<WedgeKey>& batch_keys() const { return batch_keys_; }

  /// One JSON object per line: {"kind", "t0", "t1", "session", "seq"} for
  /// wedge spans, {"kind", "t0", "t1", "wedges": [[session, seq], ...]}
  /// for codec calls.
  void write_jsonl(std::ostream& os) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::unordered_map<const void*, WedgeKey> tags_;
  std::vector<Span> spans_;
  std::vector<WedgeKey> batch_keys_;
  double codec_s_ = 0.0;
  std::int64_t codec_calls_ = 0;
};

/// Forwards every call to the registry codec and records each one as a
/// codec span in `log`.
class TimedCodec final : public nc::codec::WedgeCodec {
 public:
  TimedCodec(const nc::codec::WedgeCodec& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  std::uint8_t codec_id() const override { return inner_.codec_id(); }
  std::string name() const override { return inner_.name(); }
  std::vector<nc::codec::WedgeEnvelope> compress_batch(
      const std::vector<nc::core::Tensor>& wedges) const override;
  std::vector<nc::core::Tensor> decompress_batch(
      const std::vector<nc::codec::WedgeEnvelope>& envelopes) const override;

 private:
  const nc::codec::WedgeCodec& inner_;
  SpanLog& log_;
};

}  // namespace perfbench
