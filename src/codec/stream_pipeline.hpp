/// \file stream_pipeline.hpp
/// \brief Generic worker-pool streaming stage: the threading skeleton shared
///        by the write-side StreamCompressor and read-side StreamDecompressor.
///
/// The paper's deployment is two-sided: a real-time encoder keeps up with the
/// collision rate at the DAQ, and offline analysis later runs the decoder
/// heads over the stored bitstreams.  Both directions need the same
/// machinery — a bounded intake, a pool of workers draining it in batches
/// through some transform, sequence numbering, optional in-order emission,
/// failure containment and idempotent teardown — so that machinery lives
/// here once, parameterized by the batch transform:
///
///   StreamPipeline<In, Out>:  In items -> [BoundedQueue] -> n_workers x
///       transform(batch of In) -> Out items -> sink(seq, Out)
///
/// The intake is one FIFO `BoundedQueue` (intake.hpp) shared by every
/// worker.  Pushes are already serialized under the submit mutex and a
/// wedge costs milliseconds of transform time, so a single queue lock is
/// not where the time goes.
///
/// Concurrency model (identical for every instantiation):
///  * Every accepted item gets a sequence number matching submission (FIFO)
///    order; the sink receives it alongside the payload.  Without the spill
///    tier a popped batch is a contiguous ascending run of sequence numbers.
///  * Adaptive batching (`StreamOptions::adaptive_batch`, on by default):
///    each worker sizes its next drain from the current intake depth —
///    toward `batch_size` when the pipeline is backed up (throughput),
///    toward 1 when lightly loaded (latency, and batches spread across
///    workers instead of one worker grabbing the whole trickle).
///  * Unordered mode (default): workers invoke the sink as soon as a batch
///    finishes, possibly concurrently — the sink must be thread-safe when
///    `n_workers > 1`.
///  * Ordered mode: outputs pass through a reorder buffer and the sink sees
///    strictly increasing sequence numbers; sink invocations are serialized,
///    so the sink needs no internal locking.  `reorder_capacity` bounds how
///    far ahead of the emit cursor the buffer may grow: when it fills,
///    workers holding later sequence numbers block until the cursor advances.
///    The bound is per-batch soft — a passing batch may overshoot by up to
///    `batch_size` entries.  Progress guarantee: the worker holding the
///    next-to-emit batch always passes, and if the next-to-emit item is
///    not yet in any worker's hands (a replayed spill item still on disk or
///    queued behind later fresh items) while every other worker is parked
///    on the bound, the last arriving worker passes anyway (gate escape) and
///    goes back to pop.
///  * A transform failure (throw, or wrong output count) drops the whole
///    batch into `wedges_failed` without killing the worker (a dead worker
///    turns blocking submits into a deadlock) or stalling the ordered cursor.
///  * Spill tier (`StreamOptions::spill_dir`, off by default): when a submit
///    finds the intake full — and, with `spill_deadline_s`, space has not
///    appeared within the deadline — the item is serialized raw into an
///    append-only on-disk log (spill.hpp) instead of being dropped, keeping
///    its already-reserved sequence number.  A drainer thread replays
///    spilled items back into the intake (oldest first — spill appends are
///    serialized under the submit mutex, so spill order is seq order)
///    whenever depth falls to `spill_low_water`, and `finish()` replays
///    everything left before closing the intake, so backpressure is
///    lossless: `wedges_dropped` stays 0 unless the spill itself fails
///    (unwritable disk, `spill_max_bytes` quota — the disk-full containment
///    path) or the pipeline is already finishing.  Replayed items re-enter
///    the intake out of arrival order relative to fresh submissions; the
///    ordered mode tolerates that (the reorder gate keys on the true batch
///    minimum, and the gate escape keeps a bounded buffer live while the
///    next-to-emit item is still on disk), at the cost of reorder-buffer
///    overshoot proportional to the spilled backlog in the worst case.
///  * Fixed pool: the pipeline runs exactly `n_workers` threads for its
///    whole life.  A worker with nothing to do sleeps in the intake's
///    condvar wait and costs no CPU, so there is no scaling to do.  Workers
///    are never pinned to cores: the OS scheduler places them.
///  * `finish()` is idempotent (atomic exchange) and safe to call from any
///    thread, including implicitly via the destructor after an explicit
///    `finish()`.
///
/// Timing: per-worker `active_s` is thread-time spent in transform+sink; the
/// aggregate `elapsed_s` is the union of busy intervals (wall time during
/// which at least one worker was busy), so `throughput_wps()` reflects true
/// parallel throughput rather than summed thread-time.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "codec/intake.hpp"
#include "codec/spill.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"
#include "util/timer.hpp"

namespace nc::codec {

/// Pipeline configuration knobs (shared by both stream directions).
struct StreamOptions {
  std::size_t queue_capacity = 64;  ///< intake bound (backpressure threshold)
  std::size_t batch_size = 8;      ///< max items per transform pass (Fig. 6)
  std::size_t n_workers = 1;       ///< worker threads draining the intake
  bool ordered = false;            ///< reorder output to submission order
  /// Ordered mode only: max outputs buffered ahead of the emit cursor before
  /// workers block (0 = unbounded).  Bounds memory when one worker stalls on
  /// a slow batch while the others race ahead; soft by up to one batch.
  std::size_t reorder_capacity = 0;
  /// Scale each worker's drain batch with intake depth: up to batch_size
  /// when backed up, down to 1 when lightly loaded (bounded latency).
  bool adaptive_batch = true;
  /// Spill tier: when non-empty, submits that would drop on a full intake
  /// are serialized into segment files under this directory instead
  /// (lossless backpressure) and replayed once depth falls back to
  /// spill_low_water.  Requires a SpillCodec at pipeline construction.
  /// Give each pipeline its own directory (segments are instance-prefixed,
  /// so sharing one merely mixes unrelated files).
  std::string spill_dir;
  /// Spill enabled: how long a submit may wait for intake space before
  /// diverting to disk (0 = spill immediately).  Applies to try_submit and
  /// submit alike — with a spill tier, even the blocking submit never
  /// blocks past the deadline.
  double spill_deadline_s = 0.0;
  /// Replay threshold: the drainer re-injects spilled items whenever intake
  /// depth is at or below this (0 = half the effective intake capacity).
  std::size_t spill_low_water = 0;
  /// Cap on on-disk spill bytes (0 = unbounded).  An append that would
  /// exceed it fails that wedge into wedges_dropped — the disk-full
  /// containment path — without poisoning the tier.
  std::size_t spill_max_bytes = 0;
  /// Keep fully-replayed spill segments on disk after finish() (audit /
  /// replay-after-close via SpillReader) instead of deleting as they drain.
  bool spill_keep = false;
  /// Codec id stamped into each spill segment header (0 = untagged) so a
  /// kept log replayed under a different codec is rejected at open instead
  /// of failing per-wedge downstream.  StreamCompressor/StreamDecompressor
  /// fill this from their codec automatically.
  std::uint32_t spill_codec_id = 0;
};

/// Per-worker accounting, reported in StreamStats::per_worker.  The counter
/// names keep the write-side vocabulary ("compressed" = items that made it
/// through the transform) so existing consumers read unchanged; for the
/// read-side pipeline they count decoded wedges.
struct WorkerStats {
  std::int64_t wedges_compressed = 0;
  std::int64_t batches = 0;
  std::int64_t payload_bytes = 0;
  double active_s = 0.0;  ///< thread-time spent in transform+sink
};

struct StreamStats {
  std::int64_t wedges_in = 0;        ///< accepted into the intake
  std::int64_t wedges_dropped = 0;   ///< lost: backpressure or submit after close
  std::int64_t wedges_compressed = 0;  ///< made it through the transform
  std::int64_t wedges_failed = 0;    ///< accepted but lost to a transform error
  std::int64_t payload_bytes = 0;
  /// Always 0: the intake is one shared FIFO, so no pop is ever served from
  /// another worker's queue.  Kept so existing stats readers still compile.
  std::int64_t batches_stolen = 0;
  std::int64_t wedges_spilled = 0;   ///< diverted to the spill tier on a full intake
  std::int64_t wedges_replayed = 0;  ///< spilled wedges re-injected into the intake
  std::int64_t spill_bytes_hwm = 0;  ///< deepest the on-disk spill tier ever got
  std::int64_t queue_depth_hwm = 0;  ///< deepest the intake ever got
  /// Intake capacity after normalization (the bound queue_depth_hwm runs
  /// under).
  std::int64_t queue_capacity = 0;
  double elapsed_s = 0.0;  ///< wall time with >=1 worker busy (parallel active time)
  double cpu_s = 0.0;      ///< summed per-worker active time
  std::vector<WorkerStats> per_worker;

  double throughput_wps() const {
    return elapsed_s > 0 ? wedges_compressed / elapsed_s : 0.0;
  }
};

namespace detail {
// Zero sizes are nonsensical (capacity 0 would deadlock blocking submits);
// clamp before the intake is constructed from them.
inline StreamOptions normalized_stream_options(StreamOptions options) {
  if (options.queue_capacity == 0) options.queue_capacity = 1;
  if (options.batch_size == 0) options.batch_size = 1;
  if (options.n_workers == 0) options.n_workers = 1;
  return options;
}
}  // namespace detail

/// Generic multi-worker streaming stage: `n_workers` threads drain the
/// intake in batches of up to `batch_size` through `transform` (batching is
/// what buys throughput on the encoder/decoder, Fig. 6) and hand every
/// output to the sink.  `StreamCompressor` and `StreamDecompressor` are thin
/// adapters over this class; tests instantiate it directly with synthetic
/// transforms.
template <typename In, typename Out>
class StreamPipeline {
 public:
  /// Sink receiving each output alongside its submission sequence number.
  using SeqSink = std::function<void(std::uint64_t, Out&&)>;
  /// Batch transform: must return exactly one output per input, in input
  /// order.  A throw (or a wrong-sized return) fails the whole batch.
  using BatchFn = std::function<std::vector<Out>(std::vector<In>&&)>;
  /// Per-output byte accounting for StreamStats::payload_bytes (may be null).
  using ByteCounter = std::function<std::int64_t(const Out&)>;

  /// Raw serializer pair for the spill tier: encode turns an input item
  /// into the record payload SpillLog stores, decode inverts it on replay.
  /// Only consulted when StreamOptions::spill_dir is set.
  struct SpillCodec {
    std::function<std::string(const In&)> encode;
    std::function<In(const std::string&)> decode;
    explicit operator bool() const {
      return static_cast<bool>(encode) && static_cast<bool>(decode);
    }
  };

  StreamPipeline(const StreamOptions& options, BatchFn transform,
                 ByteCounter payload_bytes, SeqSink sink,
                 SpillCodec spill_codec = {})
      : options_(detail::normalized_stream_options(options)),
        transform_(std::move(transform)),
        payload_bytes_(std::move(payload_bytes)),
        sink_(std::move(sink)),
        spill_codec_(std::move(spill_codec)),
        intake_(options_.queue_capacity),
        workers_alive_(options_.n_workers) {
    // Stand the spill tier up before any thread exists: a SpillLog failure
    // (unwritable dir) must abort construction cleanly, not orphan workers.
    if (!options_.spill_dir.empty()) {
      if (!spill_codec_) {
        throw std::invalid_argument(
            "StreamPipeline: spill_dir set but no spill codec provided");
      }
      SpillOptions sopt;
      sopt.dir = options_.spill_dir;
      sopt.max_bytes = options_.spill_max_bytes;
      sopt.keep = options_.spill_keep;
      sopt.codec_id = options_.spill_codec_id;
      spill_ = std::make_unique<SpillLog>(sopt);
      spill_low_water_ =
          options_.spill_low_water != 0
              ? std::min(options_.spill_low_water, intake_.capacity())
              : intake_.capacity() / 2;
      drainer_ = std::thread([this] { drainer_loop(); });
    }
    worker_stats_.resize(options_.n_workers);
    workers_.reserve(options_.n_workers);
    for (std::size_t w = 0; w < options_.n_workers; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~StreamPipeline() { (void)finish(); }

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  /// Non-blocking submit with backpressure accounting.  With the spill
  /// tier enabled, a full intake diverts the item to disk (after waiting up
  /// to spill_deadline_s for space) instead of dropping it, so `false`
  /// means the item is truly lost: spill failure or submit after finish.
  bool try_submit(In item) {
    // Counters update under the same lock as the push: a concurrent finish()
    // snapshot must never see a processed item missing from wedges_in.  The
    // lock also serializes pushes, so intake order matches seq order — the
    // property the ordered mode's progress argument rests on.
    {
      std::lock_guard<std::mutex> lock(submit_mutex_);
      if (!spill_) {
        const bool accepted = push_locked(item);
        if (!accepted) wedges_dropped_.fetch_add(1, std::memory_order_relaxed);
        return accepted;
      }
      // A failed push leaves `item` intact for the spill path (try_push
      // moves only on success).
      if (push_locked(item)) return true;
    }
    return spill_or_drop(std::move(item));
  }

  /// Blocking submit (test/offline use).  With the spill tier enabled this
  /// blocks at most spill_deadline_s before spilling — disk absorbs the
  /// burst instead of the producer's latency.
  void submit(In item) {
    if (spill_) {
      (void)try_submit(std::move(item));
      return;
    }
    // Wait for space *outside* submit_mutex_: holding it across a blocking
    // push would stall concurrent try_submit callers (the real-time path)
    // behind an offline producer parked on a full intake.
    while (true) {
      {
        std::lock_guard<std::mutex> lock(submit_mutex_);
        if (push_locked(item)) return;
      }
      if (!intake_.wait_for_space()) {
        // Intake closed (submit after finish); the item is lost and must
        // show up in the drop count.
        wedges_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  }

  /// Close the intake, drain it, join the workers and return totals plus
  /// the per-worker breakdown.  Idempotent: later calls return the same
  /// processing totals with up-to-date intake/drop counters.
  StreamStats finish() {
    std::lock_guard<std::mutex> lock(finish_mutex_);
    if (!finished_.exchange(true)) {
      if (spill_) {
        // Seal the spill tier before draining it: once spill_closed_ is
        // observed (under submit_mutex_, mutually exclusive with every
        // append), a late submit drops instead of spilling into a log
        // nobody will replay.  Only then may the drainer's final sweep
        // treat "pending == 0" as terminal.
        {
          std::lock_guard<std::mutex> submit_lock(submit_mutex_);
          spill_closed_ = true;
        }
        {
          std::lock_guard<std::mutex> drainer_lock(drainer_mutex_);
          final_drain_ = true;
        }
        drainer_cv_.notify_all();
        if (drainer_.joinable()) drainer_.join();
        merged_.spill_bytes_hwm = static_cast<std::int64_t>(spill_->bytes_hwm());
        spill_->close();
      }
      intake_.close();
      for (auto& worker : workers_) {
        if (worker.joinable()) worker.join();
      }
      merged_.per_worker = worker_stats_;
      for (const auto& ws : worker_stats_) {
        merged_.wedges_compressed += ws.wedges_compressed;
        merged_.payload_bytes += ws.payload_bytes;
        merged_.cpu_s += ws.active_s;
      }
      merged_.elapsed_s = busy_s_;  // workers joined: no interval still open
      merged_.queue_depth_hwm =
          static_cast<std::int64_t>(intake_.depth_high_water());
      merged_.queue_capacity = static_cast<std::int64_t>(intake_.capacity());
    }
    StreamStats out = merged_;
    {
      // Snapshot under submit_mutex_: a producer parked between making its
      // item visible (try_push) and bumping wedges_in_ would otherwise let a
      // concurrent finish() report wedges_compressed > wedges_in.
      std::lock_guard<std::mutex> submit_lock(submit_mutex_);
      out.wedges_in = wedges_in_.load(std::memory_order_relaxed);
      out.wedges_dropped = wedges_dropped_.load(std::memory_order_relaxed);
      out.wedges_spilled = wedges_spilled_.load(std::memory_order_relaxed);
    }
    out.wedges_failed = wedges_failed_.load(std::memory_order_relaxed);
    out.wedges_replayed = wedges_replayed_.load(std::memory_order_relaxed);
    return out;
  }

  const StreamOptions& options() const { return options_; }

  // --- Live load observability (lock-free monitoring; values are instant
  // snapshots and may be stale by one operation) ------------------------
  /// Wedges diverted to the spill tier so far.
  std::int64_t wedges_spilled() const {
    return wedges_spilled_.load(std::memory_order_relaxed);
  }
  /// Spilled records written but not yet replayed (0 without a spill tier).
  std::size_t spill_pending() const { return spill_ ? spill_->pending() : 0; }
  /// Bytes currently held in spill segment files (0 without a spill tier).
  std::size_t spill_bytes_on_disk() const {
    return spill_ ? spill_->bytes_on_disk() : 0;
  }
  /// Items queued at the intake right now.
  std::size_t intake_depth() const { return intake_.size(); }
  /// The intake's capacity (queue_capacity after normalization).
  std::size_t intake_capacity() const { return intake_.capacity(); }

 private:
  /// A queued item tagged with its FIFO sequence number.
  struct Item {
    std::uint64_t seq = 0;
    In value;
  };

  /// Push under submit_mutex_ (caller holds it); true when accepted.  The
  /// item is moved into the intake on success and restored on failure —
  /// no deep copy on either path, so retry loops (blocking submit, the
  /// spill deadline wait) and the spill fallback stay cheap.
  bool push_locked(In& item) {
    Item queued{next_seq_, std::move(item)};
    if (!intake_.try_push(std::move(queued))) {
      item = std::move(queued.value);  // failed push left `queued` intact
      return false;
    }
    ++next_seq_;
    wedges_in_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Slow path of a spill-enabled submit whose first push failed: wait up
  /// to the deadline for intake space, then serialize to the spill log.
  /// Returns false only when the item is truly lost (counted dropped).
  bool spill_or_drop(In&& item) {
    using clock = std::chrono::steady_clock;
    if (options_.spill_deadline_s > 0) {
      const auto deadline =
          clock::now() + std::chrono::duration_cast<clock::duration>(
                             std::chrono::duration<double>(
                                 options_.spill_deadline_s));
      while (true) {
        const auto now = clock::now();
        if (now >= deadline) break;
        const SpaceWait wait = intake_.wait_for_space_for(
            std::chrono::duration_cast<std::chrono::nanoseconds>(deadline -
                                                                 now));
        if (wait == SpaceWait::kClosed) break;  // finishing: drop below
        std::lock_guard<std::mutex> lock(submit_mutex_);
        if (push_locked(item)) return true;
        // kTimeout still retries the push once (space may have appeared
        // between the wait expiring and the lock), then falls out.
        if (wait == SpaceWait::kTimeout) break;
      }
    }
    // Serialize outside submit_mutex_ — encoding is the CPU-heavy part and
    // must not stall concurrent real-time submitters.
    std::string bytes;
    try {
      bytes = spill_codec_.encode(item);
    } catch (const std::exception& e) {
      NC_LOG_WARN << "spill encode failed, wedge dropped: " << e.what();
      wedges_dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    std::lock_guard<std::mutex> lock(submit_mutex_);
    // Late space beats disk; also re-checked here because the deadline wait
    // ran unlocked.
    if (push_locked(item)) return true;
    if (spill_closed_) {
      // finish() already sealed the tier: a spilled record would never be
      // replayed, so this is a drop, exactly like submit-after-close.
      wedges_dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    try {
      // Appends run under submit_mutex_ — deliberately, although that puts
      // a disk write on the overflow path of concurrent submitters: the
      // append must be atomic with the spill_closed_ check above (a record
      // landing after finish()'s final drain sweep would be silently lost)
      // and with seq consumption (consumed only on success, so a failed
      // append leaves no gap for the ordered cursor to hang on).  It also
      // makes record order seq order, keeping replay oldest-first.  Only
      // the pre-encoded bytes are written here; the CPU-heavy encode ran
      // outside the lock.
      spill_->append(next_seq_, bytes);
    } catch (const util::SerializeError& e) {
      NC_LOG_WARN << "spill append failed, wedge dropped: " << e.what();
      wedges_dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    ++next_seq_;
    wedges_in_.fetch_add(1, std::memory_order_relaxed);
    wedges_spilled_.fetch_add(1, std::memory_order_relaxed);
    {
      // Notify under drainer_mutex_: an idle drainer waits indefinitely,
      // so this wakeup must not race past its pending-count check.
      std::lock_guard<std::mutex> drainer_lock(drainer_mutex_);
      drainer_cv_.notify_all();
    }
    return true;
  }

  /// True when the drainer should replay now: something is pending and
  /// either the pipeline is finishing or the intake has drained to the
  /// low-water mark.
  bool should_replay_locked() const {  ///< caller holds drainer_mutex_
    return spill_->pending() > 0 &&
           (final_drain_ || intake_.size() <= spill_low_water_);
  }

  /// Spill drainer: with nothing pending it parks indefinitely (a spill
  /// append or finish() wakes it — both notify under drainer_mutex_, so
  /// the wakeup cannot slip between the pending check and the wait); with
  /// a backlog it polls on a 1 ms tick, because workers draining the
  /// intake past the low-water mark emit no push-side signal.  Exits once
  /// finish() has sealed the tier and the backlog is gone.
  void drainer_loop() {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(drainer_mutex_);
        if (final_drain_ && spill_->pending() == 0) return;
        if (!should_replay_locked()) {
          if (spill_->pending() == 0) {
            drainer_cv_.wait(lock, [&] {
              return final_drain_ || spill_->pending() > 0;
            });
          } else {
            drainer_cv_.wait_for(lock, std::chrono::milliseconds(1));
          }
          continue;
        }
      }
      replay_one();
    }
  }

  /// Re-inject the oldest spilled item into the intake under its original
  /// sequence number.  A record that fails to read back or decode is
  /// accounted like a transform failure — counted and, in ordered mode,
  /// skipped — so a corrupt spill can never wedge the emit cursor.
  void replay_one() {
    const auto rec = spill_->pop();
    if (!rec) return;
    if (!rec->ok) {
      NC_LOG_WARN << "spill record for item " << rec->seq
                  << " unreadable, counted as failed";
      fail_replayed(rec->seq);
      return;
    }
    In value;
    try {
      value = spill_codec_.decode(rec->payload);
    } catch (const std::exception& e) {
      NC_LOG_WARN << "spill decode failed for item " << rec->seq << ": "
                  << e.what();
      fail_replayed(rec->seq);
      return;
    }
    // The intake only closes after this thread is joined, so the wait can
    // fail only on a logic error upstream; treat it like a lost record
    // rather than hanging or leaking the seq.  A failed try_push leaves
    // `queued` intact, so the retry loop never re-reads or copies.
    Item queued{rec->seq, std::move(value)};
    while (!intake_.try_push(std::move(queued))) {
      if (!intake_.wait_for_space()) {
        fail_replayed(rec->seq);
        return;
      }
    }
    wedges_replayed_.fetch_add(1, std::memory_order_relaxed);
  }

  void fail_replayed(std::uint64_t seq) {
    wedges_failed_.fetch_add(1, std::memory_order_relaxed);
    skip_seqs({seq});
  }

  void enter_busy() {
    std::lock_guard<std::mutex> lock(busy_mutex_);
    if (busy_workers_++ == 0) busy_timer_.reset();
  }

  void exit_busy() {
    std::lock_guard<std::mutex> lock(busy_mutex_);
    if (--busy_workers_ == 0) busy_s_ += busy_timer_.elapsed_s();
  }

  /// Ordered mode: block while the reorder buffer is at capacity, unless
  /// this batch can advance the emit cursor (its minimum sequence number is
  /// at or below next_emit_) — that batch must always pass or nothing would
  /// ever drain.  Without the spill tier a batch's sequence numbers are
  /// ascending (FIFO pop) and seqs.front() is the minimum; a replayed spill
  /// item re-enters the intake with an *older* seq than the fresh items
  /// already queued, so callers pass the true minimum.
  ///
  /// Gate escape: with the spill tier on, the next-to-emit item can still
  /// sit on disk or in the intake behind later items while every live
  /// worker holds a later batch — without an escape that is a deadlock
  /// (everyone parked here, nobody left to pop it).  The last free worker
  /// therefore passes the gate anyway (detected as gate_waiters_ ==
  /// workers_alive_ at wait entry: nobody else can pop), overshooting the
  /// bound by its batch, and returns to the intake to keep draining toward
  /// next_emit_.
  void wait_for_reorder_space_locked(std::unique_lock<std::mutex>& lock,
                                     std::uint64_t min_seq) {
    if (options_.reorder_capacity == 0) return;
    ++gate_waiters_;
    reorder_cv_.wait(lock, [&] {
      return min_seq <= next_emit_ ||
             reorder_.size() < options_.reorder_capacity ||
             gate_waiters_ >= workers_alive_;
    });
    --gate_waiters_;
  }

  void emit_batch(const std::vector<std::uint64_t>& seqs,
                  std::vector<Out>&& outputs) {
    if (!options_.ordered) {
      for (std::size_t i = 0; i < outputs.size(); ++i) {
        sink_(seqs[i], std::move(outputs[i]));
      }
      return;
    }
    std::unique_lock<std::mutex> lock(reorder_mutex_);
    wait_for_reorder_space_locked(lock,
                                  *std::min_element(seqs.begin(), seqs.end()));
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      reorder_.emplace(seqs[i], std::move(outputs[i]));
    }
    drain_reorder_locked();
  }

  void skip_seqs(const std::vector<std::uint64_t>& seqs) {
    if (!options_.ordered || seqs.empty()) return;
    std::unique_lock<std::mutex> lock(reorder_mutex_);
    // Skips occupy reorder slots too (they hold the cursor open), so they
    // respect the same capacity bound as real outputs.
    wait_for_reorder_space_locked(lock,
                                  *std::min_element(seqs.begin(), seqs.end()));
    for (const auto seq : seqs) {
      // Defensive: today callers only skip never-emitted batches, but a seq
      // below the emit cursor would wedge the buffer on a key that can never
      // match next_emit_ again, so keep the guard.
      if (seq >= next_emit_) reorder_.emplace(seq, std::nullopt);
    }
    drain_reorder_locked();
  }

  void drain_reorder_locked() {  ///< caller holds reorder_mutex_
    bool advanced = false;
    while (!reorder_.empty() && reorder_.begin()->first == next_emit_) {
      auto node = reorder_.extract(reorder_.begin());
      // Advance the cursor before invoking the sink: if the sink throws,
      // that item is lost but the stream keeps flowing instead of stalling
      // on a sequence number that was already extracted.
      ++next_emit_;
      advanced = true;
      if (node.mapped().has_value()) {
        try {
          sink_(node.key(), std::move(*node.mapped()));
        } catch (const std::exception& e) {
          // Swallow here: drain runs from worker catch handlers too (via
          // skip_seqs), where a second throw would escape the thread and
          // terminate the process.
          NC_LOG_WARN << "ordered sink failed for item " << node.key() << ": "
                      << e.what();
        }
      }
    }
    // Freed slots / advanced cursor: wake workers parked on the capacity.
    if (advanced && options_.reorder_capacity != 0) reorder_cv_.notify_all();
  }

  void worker_loop(std::size_t worker_index) {
    WorkerStats& ws = worker_stats_[worker_index];
    std::vector<Item> items;
    std::vector<std::uint64_t> seqs;
    std::vector<In> batch;
    items.reserve(options_.batch_size);
    seqs.reserve(options_.batch_size);
    batch.reserve(options_.batch_size);
    while (true) {
      items.clear();
      seqs.clear();
      batch.clear();
      // Adaptive batching happens inside the queue, on the depth observed
      // at pop time: a fair share of the backlog per worker, clamped to
      // [1, batch_size] — full batches when backed up (throughput), single
      // items on a trickle (latency, and the trickle spreads across
      // workers instead of one grabbing it all).
      const std::size_t share =
          options_.adaptive_batch ? options_.n_workers : 0;
      if (intake_.pop_batch(items, options_.batch_size, share) == 0) break;
      for (auto& item : items) {
        seqs.push_back(item.seq);
        batch.push_back(std::move(item.value));
      }
      enter_busy();
      // Time only the transform+sink work: counting from thread start would
      // fold intake-wait idle into active time and deflate throughput_wps().
      util::Timer timer;
      std::vector<Out> outputs;
      bool transform_ok = true;
      try {
        outputs = transform_(std::move(batch));
        if (outputs.size() != seqs.size()) {
          throw std::runtime_error("batch transform returned " +
                                   std::to_string(outputs.size()) +
                                   " outputs for " +
                                   std::to_string(seqs.size()) + " items");
        }
      } catch (const std::exception& e) {
        // A poisoned batch must not kill the worker (a dead worker turns
        // blocking submits into a deadlock) nor stall the ordered sink.
        transform_ok = false;
        NC_LOG_WARN << "stream worker " << worker_index
                    << ": dropping batch of " << seqs.size()
                    << " items: " << e.what();
        wedges_failed_.fetch_add(static_cast<std::int64_t>(seqs.size()),
                                 std::memory_order_relaxed);
        skip_seqs(seqs);
      }
      if (transform_ok) {
        // The items are processed whatever the sink does with them, so the
        // stats update precedes emission; a sink failure is logged but does
        // not land in wedges_failed (reserved for transform errors).
        std::int64_t bytes = 0;
        if (payload_bytes_) {
          for (const auto& out : outputs) bytes += payload_bytes_(out);
        }
        ws.wedges_compressed += static_cast<std::int64_t>(outputs.size());
        ws.payload_bytes += bytes;
        ++ws.batches;
        try {
          emit_batch(seqs, std::move(outputs));
        } catch (const std::exception& e) {
          // Only the unordered path throws here (the ordered drain swallows
          // sink errors per item); the rest of this batch is lost downstream.
          NC_LOG_WARN << "stream worker " << worker_index << ": sink error, "
                      << seqs.size() << " processed items may be lost "
                      << "downstream: " << e.what();
        }
      }
      ws.active_s += timer.elapsed_s();
      exit_busy();
    }
    // This thread is done popping: shrink the live-worker count the gate
    // escape compares against and re-evaluate any parked waiter, so a
    // shutdown can never strand a worker waiting for a popper that exited.
    {
      std::lock_guard<std::mutex> lock(reorder_mutex_);
      --workers_alive_;
    }
    reorder_cv_.notify_all();
  }

  StreamOptions options_;
  BatchFn transform_;
  ByteCounter payload_bytes_;
  SeqSink sink_;
  SpillCodec spill_codec_;
  BoundedQueue<Item> intake_;

  // Intake sequencing: the mutex makes seq numbers match submission order.
  std::mutex submit_mutex_;
  std::uint64_t next_seq_ = 0;
  std::atomic<std::int64_t> wedges_in_{0};
  std::atomic<std::int64_t> wedges_dropped_{0};
  std::atomic<std::int64_t> wedges_failed_{0};

  // Spill tier (null when disabled).  spill_closed_ is guarded by
  // submit_mutex_ (sealed by finish() before the final drain, mutually
  // exclusive with every append); final_drain_ by drainer_mutex_.
  std::unique_ptr<SpillLog> spill_;
  std::size_t spill_low_water_ = 0;
  bool spill_closed_ = false;
  std::mutex drainer_mutex_;
  std::condition_variable drainer_cv_;
  bool final_drain_ = false;
  std::thread drainer_;
  std::atomic<std::int64_t> wedges_spilled_{0};
  std::atomic<std::int64_t> wedges_replayed_{0};

  // Busy-interval union: a clock that runs while >=1 worker is busy.
  std::mutex busy_mutex_;
  int busy_workers_ = 0;
  util::Timer busy_timer_;
  double busy_s_ = 0.0;

  // Ordered-sink reorder buffer.  nullopt marks a failed item whose
  // sequence number must still advance the emit cursor.
  std::mutex reorder_mutex_;
  std::condition_variable reorder_cv_;  ///< capacity waiters (ordered mode)
  std::map<std::uint64_t, std::optional<Out>> reorder_;
  std::uint64_t next_emit_ = 0;
  std::size_t gate_waiters_ = 0;   ///< workers parked on the reorder bound
  std::size_t workers_alive_ = 0;  ///< workers still popping (gate escape)

  std::vector<WorkerStats> worker_stats_;
  std::vector<std::thread> workers_;

  std::atomic<bool> finished_{false};
  std::mutex finish_mutex_;
  StreamStats merged_;  ///< worker totals, filled once on first finish()
};

}  // namespace nc::codec
