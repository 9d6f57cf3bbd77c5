/// \file admission.hpp
/// \brief Deterministic per-session admission policy for the compression
///        service: degrade down the codec ladder first, shed last.
///
/// The service's overload story (see service.hpp) is *not* "spill until
/// spill_max_bytes": a session that persistently offers more than its fair
/// share is first hopped down a configurable codec degradation ladder
/// (e.g. bcae-int8 -> zfp; legal mid-stream because every codec speaks
/// WedgeEnvelope), and only once the ladder is exhausted does the service
/// start shedding that session's wedges — predictable, counted, early
/// per-session drops instead of unbounded disk growth.
///
/// The policy is a pure sample-in / decision-out state machine with no
/// clocks, threads or sleeps — one `observe()` call is one tick — so unit
/// tests drive it with injected depth/spill samples and assert exact
/// decision sequences (tests/test_admission.cpp).  The service
/// owns one controller per session and is the thin impure driver that
/// samples real staging-queue depths every `admission_interval_s` and
/// applies the returned decisions.
///
/// Decision shape (per tick):
///
///   pipeline spilling AND depth >= spill_depth
///   AND a rung is left ──────────────────────────▶ kDegrade
///                                                   (emergency: the shared
///                                                    tier is already on
///                                                    disk; bypasses window
///                                                    AND cooldown)
///
///   avg depth over `window` >= degrade_depth
///   AND a rung is left ──────────────────────────▶ kDegrade
///
///   avg depth >= shed_depth AND ladder
///   exhausted ───────────────────────────────────▶ kShed (latched: every
///                                                   submit drops until
///                                                   kStopShed)
///
///   shedding AND avg depth <= recover_depth ─────▶ kStopShed
///
///   not shedding, a rung used, avg depth <=
///   recover_depth for `recover_window` straight
///   windows ─────────────────────────────────────▶ kRecover (climb one
///                                                   rung back; 0 = never)
///
/// Hysteresis: after any non-hold decision the controller holds for
/// `cooldown` ticks (samples during the hold are discarded) and every
/// windowed decision needs a full fresh `window`.
/// Shed is strictly last: kShed can only fire with `rungs_left == 0`, so a
/// session with any ladder headroom is always degraded before a single
/// wedge is dropped.
#pragma once

#include <cstddef>

namespace nc::codec {

/// Admission tuning (surfaces as ServiceOptions::admission).
struct AdmissionConfig {
  std::size_t window = 4;    ///< samples averaged per windowed decision
  std::size_t cooldown = 4;  ///< ticks held after a decision (hysteresis)
  /// Avg staging-depth fraction at/above which a session hops one rung down
  /// its ladder.
  double degrade_depth = 0.75;
  /// With the shared pipeline spilling, a single sample at/above this depth
  /// degrades immediately (no window, no cooldown) — disk pressure means
  /// the gradual path has already lost.
  double spill_depth = 0.5;
  /// Avg depth at/above which a ladder-exhausted session starts shedding.
  double shed_depth = 0.95;
  /// Avg depth at/below which shedding stops, and below which quiet windows
  /// count toward climbing a rung back up.
  double recover_depth = 0.125;
  /// Consecutive quiet windows required before climbing one rung back
  /// toward the preferred codec (0 = never recover, degradations stick).
  std::size_t recover_window = 0;
};

/// One admission tick's worth of observed per-session load.
struct AdmissionSample {
  double depth_fraction = 0.0;  ///< staging depth / staging capacity, [0, 1]
  bool spilling = false;        ///< the shared pipeline's spill tier is active
  std::size_t rungs_left = 0;   ///< ladder rungs below the current codec
  std::size_t rungs_used = 0;   ///< ladder rungs already descended
};

/// What the service should do to the session this tick.
enum class AdmissionDecision {
  kHold,      ///< no change
  kDegrade,   ///< hop one rung down the codec ladder
  kShed,      ///< start dropping this session's submits (ladder exhausted)
  kStopShed,  ///< stop dropping (depth recovered)
  kRecover,   ///< climb one rung back toward the preferred codec
};

/// Deterministic per-session admission state machine (see file comment).
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config)
      : cfg_(normalized(config)) {}

  /// Feed one tick of observed load; returns the decision the service
  /// should apply.  Pure: same sample sequence, same decisions.
  AdmissionDecision observe(const AdmissionSample& sample) {
    if (sample.spilling && sample.depth_fraction >= cfg_.spill_depth &&
        sample.rungs_left > 0) {
      // Emergency path: overflow is already landing on disk while this
      // session holds a deep backlog — a cheaper codec now beats a
      // windowed deliberation later.  Starts a cooldown like any decision.
      return decide(AdmissionDecision::kDegrade);
    }
    if (cooldown_ > 0) {
      // Hysteresis hold: discard the sample so the next decision rests
      // only on evidence gathered after the previous one took effect.
      --cooldown_;
      return AdmissionDecision::kHold;
    }
    depth_sum_ += sample.depth_fraction;
    if (++n_samples_ < cfg_.window) return AdmissionDecision::kHold;
    const double depth = depth_sum_ / static_cast<double>(n_samples_);
    reset_window();
    if (shedding_) {
      if (depth <= cfg_.recover_depth) {
        shedding_ = false;
        return decide(AdmissionDecision::kStopShed);
      }
      return AdmissionDecision::kHold;
    }
    if (depth >= cfg_.degrade_depth && sample.rungs_left > 0) {
      quiet_windows_ = 0;
      return decide(AdmissionDecision::kDegrade);
    }
    if (depth >= cfg_.shed_depth && sample.rungs_left == 0) {
      // Strictly the last rung: reachable only with the ladder exhausted.
      quiet_windows_ = 0;
      shedding_ = true;
      return decide(AdmissionDecision::kShed);
    }
    if (depth <= cfg_.recover_depth && sample.rungs_used > 0 &&
        cfg_.recover_window > 0) {
      if (++quiet_windows_ >= cfg_.recover_window) {
        quiet_windows_ = 0;
        return decide(AdmissionDecision::kRecover);
      }
    } else {
      quiet_windows_ = 0;
    }
    return AdmissionDecision::kHold;
  }

  bool shedding() const { return shedding_; }
  const AdmissionConfig& config() const { return cfg_; }

 private:
  static AdmissionConfig normalized(AdmissionConfig cfg) {
    if (cfg.window == 0) cfg.window = 1;
    if (cfg.shed_depth < cfg.degrade_depth) cfg.shed_depth = cfg.degrade_depth;
    return cfg;
  }

  AdmissionDecision decide(AdmissionDecision decision) {
    cooldown_ = cfg_.cooldown;
    reset_window();
    return decision;
  }

  void reset_window() {
    depth_sum_ = 0.0;
    n_samples_ = 0;
  }

  AdmissionConfig cfg_;
  bool shedding_ = false;
  std::size_t cooldown_ = 0;
  std::size_t n_samples_ = 0;
  std::size_t quiet_windows_ = 0;
  double depth_sum_ = 0.0;
};

}  // namespace nc::codec
