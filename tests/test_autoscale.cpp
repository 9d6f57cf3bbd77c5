/// \file test_autoscale.cpp
/// \brief Deterministic unit tests for the worker-count scaling policy.
///
/// AutoscaleController is a pure sample-in / target-out state machine (no
/// clocks, no threads), so every test here drives it with an injected sample
/// sequence and asserts the exact decision trace — hysteresis, floor/ceiling
/// clamps, spill-triggered scale-up — with zero sleeps.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "codec/autoscale.hpp"

namespace {

using nc::codec::AutoscaleConfig;
using nc::codec::AutoscaleController;
using nc::codec::AutoscaleSample;

AutoscaleConfig config(std::size_t min_workers, std::size_t max_workers,
                       std::size_t window, std::size_t cooldown) {
  AutoscaleConfig cfg;
  cfg.min_workers = min_workers;
  cfg.max_workers = max_workers;
  cfg.window = window;
  cfg.cooldown = cooldown;
  return cfg;  // up_depth 0.5 / down_busy 0.25 / down_depth derived
}

AutoscaleSample loaded() { return {1.0, 1.0, false}; }
AutoscaleSample idle() { return {0.0, 0.0, false}; }
AutoscaleSample spilling() { return {1.0, 1.0, true}; }

TEST(Autoscale, InitialTargetClampsToRange) {
  EXPECT_EQ(AutoscaleController(config(2, 4, 1, 0), 100).target(), 4u);
  EXPECT_EQ(AutoscaleController(config(2, 4, 1, 0), 0).target(), 2u);
  EXPECT_EQ(AutoscaleController(config(2, 4, 1, 0), 3).target(), 3u);
}

TEST(Autoscale, BacklogDoublesOnlyAfterFullWindow) {
  AutoscaleController ctl(config(1, 8, 4, 0), 1);
  // Three loaded samples: window not full, no decision yet.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(ctl.observe(loaded()), 1u);
  // Fourth completes the window: geometric ramp, 1 -> 2.
  EXPECT_EQ(ctl.observe(loaded()), 2u);
  EXPECT_STREQ(ctl.last_reason(), "backlog");
  // Each further full window doubles again, clamped at the ceiling.
  for (int i = 0; i < 4; ++i) ctl.observe(loaded());
  EXPECT_EQ(ctl.target(), 4u);
  for (int i = 0; i < 4; ++i) ctl.observe(loaded());
  EXPECT_EQ(ctl.target(), 8u);
  for (int i = 0; i < 8; ++i) ctl.observe(loaded());
  EXPECT_EQ(ctl.target(), 8u) << "ceiling must hold";
}

TEST(Autoscale, CooldownDiscardsSamples) {
  // window 2, cooldown 3: after the first decision, three loaded samples
  // are discarded outright — the next decision needs a fresh window after
  // the hold, so it lands exactly on sample 2 + 3 + 2.
  AutoscaleController ctl(config(1, 8, 2, 3), 1);
  EXPECT_EQ(ctl.observe(loaded()), 1u);
  EXPECT_EQ(ctl.observe(loaded()), 2u);  // decision #1
  EXPECT_EQ(ctl.observe(loaded()), 2u);  // cooldown 3
  EXPECT_EQ(ctl.observe(loaded()), 2u);  // cooldown 2
  EXPECT_EQ(ctl.observe(loaded()), 2u);  // cooldown 1
  EXPECT_EQ(ctl.observe(loaded()), 2u);  // fresh window, 1 of 2
  EXPECT_EQ(ctl.observe(loaded()), 4u);  // decision #2
}

TEST(Autoscale, SpillJumpsToMaxBypassingWindowAndCooldown) {
  // A giant window and cooldown must not delay the emergency path.
  AutoscaleController ctl(config(1, 8, 64, 64), 1);
  EXPECT_EQ(ctl.observe(spilling()), 8u);
  EXPECT_STREQ(ctl.last_reason(), "spill");
}

TEST(Autoscale, SpillOverridesCooldownHold) {
  AutoscaleConfig cfg = config(1, 8, 1, 16);
  AutoscaleController ctl(cfg, 1);
  EXPECT_EQ(ctl.observe(loaded()), 2u);  // decision starts a 16-tick hold
  EXPECT_EQ(ctl.observe(loaded()), 2u);  // held
  EXPECT_EQ(ctl.observe(spilling()), 8u) << "spill must pierce the hold";
}

TEST(Autoscale, SpillAtCeilingChangesNothing) {
  AutoscaleController ctl(config(1, 4, 2, 0), 4);
  EXPECT_EQ(ctl.observe(spilling()), 4u);
  EXPECT_STREQ(ctl.last_reason(), "") << "no decision was made";
}

TEST(Autoscale, SpillJumpLeavesCooldownBehind) {
  // The emergency jump bypasses the cooldown on the way UP, but must leave
  // one behind: without it, the very next idle window would step straight
  // back down and a transient spill thrashes 1 -> max -> max-1 within a few
  // ticks.  window 1 makes every post-hold sample a decision point.
  AutoscaleController ctl(config(1, 4, 1, 3), 1);
  EXPECT_EQ(ctl.observe(spilling()), 4u);
  EXPECT_STREQ(ctl.last_reason(), "spill");
  EXPECT_EQ(ctl.observe(idle()), 4u);  // cooldown 3
  EXPECT_EQ(ctl.observe(idle()), 4u);  // cooldown 2
  EXPECT_EQ(ctl.observe(idle()), 4u);  // cooldown 1
  EXPECT_EQ(ctl.observe(idle()), 3u);  // hold expired: normal step-down
}

TEST(Autoscale, SustainedSpillAtCeilingRefreshesCooldown) {
  // Spilling ticks at the ceiling used to fall into the cooldown decrement:
  // a long spill burned the hold sample by sample, so the first quiet tick
  // after the backlog drained stepped down immediately — the thrash the
  // cooldown exists to prevent.  They must refresh the hold instead: after
  // ANY spill run, a full cooldown + window of quiet evidence is required
  // before stepping down.
  AutoscaleConfig cfg = config(1, 4, 4, 4);
  AutoscaleController ctl(cfg, 1);
  EXPECT_EQ(ctl.observe(spilling()), 4u);  // jump to ceiling
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ctl.observe(spilling()), 4u) << "spill tick " << i;
  }
  // Quiet ticks 1..4 burn the (refreshed) cooldown, 5..8 fill the window.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ctl.observe(idle()), 4u) << "cooldown tick " << i;
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ctl.observe(idle()), 4u) << "window tick " << i;
  }
  EXPECT_EQ(ctl.observe(idle()), 3u) << "full quiet window: step down once";
  EXPECT_STREQ(ctl.last_reason(), "quiet");
}

TEST(Autoscale, QuietStepsDownOneAtATimeToFloor) {
  AutoscaleController ctl(config(2, 8, 2, 0), 5);
  EXPECT_EQ(ctl.observe(idle()), 5u);
  EXPECT_EQ(ctl.observe(idle()), 4u);  // -1 per full idle window
  EXPECT_STREQ(ctl.last_reason(), "quiet");
  ctl.observe(idle());
  EXPECT_EQ(ctl.observe(idle()), 3u);
  ctl.observe(idle());
  EXPECT_EQ(ctl.observe(idle()), 2u);
  for (int i = 0; i < 6; ++i) ctl.observe(idle());
  EXPECT_EQ(ctl.target(), 2u) << "floor must hold";
}

TEST(Autoscale, ScaleDownNeedsBothDepthAndBusyLow) {
  {
    // Near-empty intake but busy workers: a trickle that saturates the
    // current pool is not "quiet".
    AutoscaleController ctl(config(1, 8, 2, 0), 4);
    ctl.observe({0.0, 0.9, false});
    EXPECT_EQ(ctl.observe({0.0, 0.9, false}), 4u);
  }
  {
    // Idle workers but a standing backlog above down_depth (= up_depth/4):
    // mid-band holds in both directions.
    AutoscaleController ctl(config(1, 8, 2, 0), 4);
    ctl.observe({0.3, 0.0, false});
    EXPECT_EQ(ctl.observe({0.3, 0.0, false}), 4u);
  }
}

TEST(Autoscale, DownDepthDerivesFromUpDepth) {
  AutoscaleConfig cfg = config(1, 8, 1, 0);
  cfg.up_depth = 0.8;
  AutoscaleController ctl(cfg, 4);
  EXPECT_DOUBLE_EQ(ctl.config().down_depth, 0.2);
  EXPECT_EQ(ctl.observe({0.19, 0.0, false}), 3u);  // below derived threshold
  EXPECT_EQ(ctl.observe({0.21, 0.0, false}), 3u);  // above: hold
}

TEST(Autoscale, NormalizesDegenerateConfig) {
  AutoscaleConfig cfg;
  cfg.min_workers = 0;  // -> 1
  cfg.max_workers = 0;  // -> max(min, ..) = 1
  cfg.window = 0;       // -> 1 (decision every sample)
  AutoscaleController ctl(cfg, 5);
  EXPECT_EQ(ctl.config().min_workers, 1u);
  EXPECT_EQ(ctl.config().max_workers, 1u);
  EXPECT_EQ(ctl.config().window, 1u);
  EXPECT_EQ(ctl.target(), 1u);
  EXPECT_EQ(ctl.observe(loaded()), 1u);  // degenerate range: never moves
  EXPECT_EQ(ctl.observe(idle()), 1u);
}

TEST(Autoscale, DeterministicAcrossRuns) {
  // Same sample sequence, same decision trace — the property every other
  // test in this file (and resumable CI debugging) rests on.
  const std::vector<AutoscaleSample> trace = {
      loaded(), loaded(), idle(),     loaded(), loaded(), spilling(),
      idle(),   idle(),   idle(),     idle(),   idle(),   idle(),
      loaded(), idle(),   spilling(), idle(),   idle(),   idle(),
  };
  const auto run = [&] {
    AutoscaleController ctl(config(1, 8, 2, 1), 2);
    std::vector<std::size_t> targets;
    for (const auto& s : trace) targets.push_back(ctl.observe(s));
    return targets;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
