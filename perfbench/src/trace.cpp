#include "trace.hpp"

#include <ostream>

namespace perfbench {

void SpanLog::tag(const void* addr, WedgeKey key) {
  std::lock_guard<std::mutex> lock(mutex_);
  tags_[addr] = key;
}

void SpanLog::add(SpanKind kind, double t0, double t1, WedgeKey key) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{kind, t0, t1, key, 0, 0});
}

void SpanLog::add_codec_call(double t0, double t1,
                             const std::vector<const void*>& addrs) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span{SpanKind::kCodec, t0, t1, {}, 0, 0};
  span.first = static_cast<std::uint32_t>(batch_keys_.size());
  for (const void* addr : addrs) {
    // The entry is dropped once resolved: the wedge is alive for the whole
    // call, so its address cannot have been reused by a later wedge yet.
    const auto it = tags_.find(addr);
    if (it == tags_.end()) continue;
    batch_keys_.push_back(it->second);
    tags_.erase(it);
    ++span.count;
  }
  spans_.push_back(span);
  codec_s_ += t1 - t0;
  ++codec_calls_;
}

double SpanLog::codec_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return codec_s_;
}

std::int64_t SpanLog::codec_calls() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return codec_calls_;
}

std::int64_t SpanLog::codec_wedges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(batch_keys_.size());
}

void SpanLog::write_jsonl(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  static const char* const kNames[] = {"submit", "codec", "sink"};
  for (const auto& s : spans_) {
    os << "{\"kind\": \"" << kNames[static_cast<int>(s.kind)]
       << "\", \"t0\": " << s.t0 << ", \"t1\": " << s.t1;
    if (s.kind == SpanKind::kCodec) {
      os << ", \"wedges\": [";
      for (std::uint32_t i = 0; i < s.count; ++i) {
        const auto& k = batch_keys_[s.first + i];
        os << (i ? ", [" : "[") << k.session << ", " << k.seq << "]";
      }
      os << "]}\n";
    } else {
      os << ", \"session\": " << s.key.session << ", \"seq\": " << s.key.seq
         << "}\n";
    }
  }
}

std::vector<nc::codec::WedgeEnvelope> TimedCodec::compress_batch(
    const std::vector<nc::core::Tensor>& wedges) const {
  std::vector<const void*> addrs;
  addrs.reserve(wedges.size());
  for (const auto& w : wedges) addrs.push_back(w.data());
  const double t0 = log_.now();
  auto out = inner_.compress_batch(wedges);
  log_.add_codec_call(t0, log_.now(), addrs);
  return out;
}

std::vector<nc::core::Tensor> TimedCodec::decompress_batch(
    const std::vector<nc::codec::WedgeEnvelope>& envelopes) const {
  std::vector<const void*> addrs;
  addrs.reserve(envelopes.size());
  for (const auto& e : envelopes) addrs.push_back(e.payload.data());
  const double t0 = log_.now();
  auto out = inner_.decompress_batch(envelopes);
  log_.add_codec_call(t0, log_.now(), addrs);
  return out;
}

}  // namespace perfbench
