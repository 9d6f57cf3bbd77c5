/// \file autoscale.hpp
/// \brief Deterministic worker-count autoscaling policy.
///
/// `AutoscaleController` is a pure sample-in / target-out state machine
/// with no clocks, threads or sleeps — one `observe()` call is one tick —
/// so unit tests drive it with injected depth/busy/spill samples and assert
/// exact decision sequences (tests/test_autoscale.cpp).
///
/// Nothing in the library drives it any more: `StreamPipeline` runs a
/// fixed pool of exactly `n_workers` threads.  ROADMAP.md lists this header
/// and its tests for deletion.
///
/// Decision shape (per tick):
///
///   spill observed ──────────────────────────────▶ jump to max_workers
///   (the backlog already overflowed to disk;        ("spill", bypasses
///    ramping +1 at a time is already too late)       window AND cooldown)
///
///   avg depth over `window` ticks >= up_depth ───▶ double the target
///                                                   ("backlog": geometric
///                                                    ramp-up so a burst is
///                                                    met before the spill
///                                                    tier engages)
///
///   avg depth <= up_depth/4 AND
///   avg busy  <= down_busy over `window` ticks ──▶ target - 1
///                                                   ("quiet": conservative
///                                                    step-down on a trickle)
///
/// Hysteresis: after any change the controller holds for `cooldown` ticks
/// (samples during the hold are discarded, so a decision never fires on
/// evidence that predates the previous one), and every non-spill decision
/// needs a full fresh `window` of samples.  Targets always clamp to
/// [min_workers, max_workers].
#pragma once

#include <algorithm>
#include <cstddef>

namespace nc::codec {

/// Autoscaler tuning.
struct AutoscaleConfig {
  std::size_t min_workers = 1;  ///< floor the pool spins down to on a trickle
  std::size_t max_workers = 1;  ///< ceiling (the pool's thread count)
  std::size_t window = 8;       ///< samples averaged per decision
  std::size_t cooldown = 4;     ///< ticks held after a decision (hysteresis)
  double up_depth = 0.5;        ///< avg intake-depth fraction triggering scale-up
  double down_busy = 0.25;      ///< avg busy fraction at/below which to scale down
  /// Scale-down also requires the intake to be near-empty; 0 derives the
  /// threshold as up_depth / 4.
  double down_depth = 0.0;
};

/// One controller tick's worth of observed load.
struct AutoscaleSample {
  double depth_fraction = 0.0;  ///< intake depth / effective capacity, [0, 1]
  double busy_fraction = 0.0;   ///< busy workers / live workers, [0, 1]
  bool spilling = false;        ///< spill tier grew (or holds a backlog) since last tick
};

/// Deterministic autoscaling state machine (see file comment).
class AutoscaleController {
 public:
  AutoscaleController(const AutoscaleConfig& config, std::size_t initial)
      : cfg_(normalized(config)),
        target_(std::clamp(initial, cfg_.min_workers, cfg_.max_workers)) {}

  /// Feed one tick of observed load; returns the (possibly unchanged)
  /// live-worker target.  Pure: same sample sequence, same targets.
  std::size_t observe(const AutoscaleSample& sample) {
    if (sample.spilling) {
      if (target_ < cfg_.max_workers) {
        // Emergency path: items are already landing on disk, so the gradual
        // ramp (and any cooldown hold) has demonstrably lost the race.
        decide(cfg_.max_workers, "spill");
        return target_;
      }
      // Already at the ceiling: no decision to make, but refresh the hold —
      // spilling ticks must not burn the cooldown, or a transient spill
      // could step back down ("quiet") the instant the backlog drains and
      // thrash up/down within one scale interval.
      cooldown_ = cfg_.cooldown;
      reset_window();
      return target_;
    }
    if (cooldown_ > 0) {
      // Hysteresis hold: discard the sample so the next decision rests
      // only on evidence gathered after the previous one took effect.
      --cooldown_;
      return target_;
    }
    depth_sum_ += sample.depth_fraction;
    busy_sum_ += sample.busy_fraction;
    if (++n_samples_ < cfg_.window) return target_;
    const double depth = depth_sum_ / static_cast<double>(n_samples_);
    const double busy = busy_sum_ / static_cast<double>(n_samples_);
    reset_window();
    if (depth >= cfg_.up_depth && target_ < cfg_.max_workers) {
      // Geometric ramp: a backlog that survives a whole window deserves a
      // doubling, not a +1 crawl — the point is to win before spilling.
      decide(std::min(cfg_.max_workers, target_ * 2), "backlog");
    } else if (depth <= cfg_.down_depth && busy <= cfg_.down_busy &&
               target_ > cfg_.min_workers) {
      decide(target_ - 1, "quiet");
    }
    return target_;
  }

  std::size_t target() const { return target_; }
  /// Reason of the most recent change ("" before the first decision).
  const char* last_reason() const { return last_reason_; }
  const AutoscaleConfig& config() const { return cfg_; }

 private:
  static AutoscaleConfig normalized(AutoscaleConfig cfg) {
    if (cfg.min_workers == 0) cfg.min_workers = 1;
    cfg.max_workers = std::max(cfg.max_workers, cfg.min_workers);
    if (cfg.window == 0) cfg.window = 1;
    if (cfg.down_depth <= 0.0) cfg.down_depth = cfg.up_depth / 4.0;
    return cfg;
  }

  void decide(std::size_t target, const char* reason) {
    target_ = target;
    last_reason_ = reason;
    cooldown_ = cfg_.cooldown;
    reset_window();
  }

  void reset_window() {
    depth_sum_ = 0.0;
    busy_sum_ = 0.0;
    n_samples_ = 0;
  }

  AutoscaleConfig cfg_;
  std::size_t target_;
  std::size_t cooldown_ = 0;
  std::size_t n_samples_ = 0;
  double depth_sum_ = 0.0;
  double busy_sum_ = 0.0;
  const char* last_reason_ = "";
};

}  // namespace nc::codec
