/// TPC substrate: geometry, helix tracking, digitization, event generation,
/// dataset handling.  These tests pin down the data properties the paper's
/// method depends on (sparsity, log-ADC bimodality, wedge partitioning).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <numbers>

#include "tpc/dataset.hpp"
#include "tpc/digitizer.hpp"
#include "tpc/event_gen.hpp"
#include "tpc/geometry.hpp"
#include "tpc/track.hpp"

namespace {

using nc::tpc::TpcGeometry;
using nc::tpc::WedgeShape;

TEST(Geometry, PaperScaleWedgeShape) {
  const auto g = TpcGeometry::paper_scale();
  const WedgeShape w = g.wedge_shape();
  EXPECT_EQ(w.radial, 16);
  EXPECT_EQ(w.azim, 192);   // 2304 / 12 sectors
  EXPECT_EQ(w.horiz, 249);  // 498 / 2 halves
  EXPECT_EQ(w.padded_horiz(), 256);  // §2.3: pad 249 -> 256
  EXPECT_EQ(w.voxels(), 16 * 192 * 249);
}

TEST(Geometry, BenchScaleWedgeShape) {
  const auto g = TpcGeometry::bench_scale();
  const WedgeShape w = g.wedge_shape();
  EXPECT_EQ(w.radial, 16);
  EXPECT_EQ(w.azim, 48);
  EXPECT_EQ(w.horiz, 62);
  EXPECT_EQ(w.padded_horiz(), 64);
}

TEST(Geometry, CompressionRatioMatchesPaper) {
  // §3.1: CR = 31.125 for code size 24 576 at paper scale.
  const WedgeShape w = TpcGeometry::paper_scale().wedge_shape();
  EXPECT_NEAR(nc::tpc::compression_ratio(w, 32 * 24 * 32), 31.125, 1e-9);
  EXPECT_NEAR(nc::tpc::compression_ratio(w, 8 * 16 * 12 * 16), 31.125, 1e-9);
  // Original BCAE: code (8, 17, 13, 16) -> 27.041 (§3.1).
  EXPECT_NEAR(nc::tpc::compression_ratio(w, 8 * 17 * 13 * 16), 27.041, 1e-2);
}

TEST(Geometry, ScaledCompressionRatioStaysClose) {
  // The scaled geometry must preserve the compression-ratio arithmetic.
  const auto g = TpcGeometry::bench_scale();
  const WedgeShape w = g.wedge_shape();
  const std::int64_t code = 32 * (w.azim / 8) * (w.padded_horiz() / 8);
  EXPECT_NEAR(nc::tpc::compression_ratio(w, code), 31.0, 0.5);
}

TEST(Geometry, LayerRadiiMonotoneAndGrouped) {
  const TpcGeometry g;
  using nc::tpc::LayerGroup;
  double prev = 0.0;
  for (auto grp : {LayerGroup::kInner, LayerGroup::kMiddle, LayerGroup::kOuter}) {
    for (int l = 0; l < g.layers_per_group; ++l) {
      const double r = g.layer_radius(grp, l);
      EXPECT_GT(r, prev);
      prev = r;
    }
  }
  EXPECT_GT(g.layer_radius(LayerGroup::kOuter, 0), 62.0);
  EXPECT_LT(g.layer_radius(LayerGroup::kOuter, 15), 78.0);
}

TEST(Helix, HighPtTrackIsNearlyStraight) {
  // 8 GeV track: curvature radius ~19m, so phi barely changes across the TPC.
  nc::tpc::TrackParams t;
  t.pt = 8.0;
  t.phi0 = 1.0;
  t.eta = 0.0;
  const nc::tpc::Helix h(t, 1.4);
  const auto c = h.cross_layer(70.0, 105.0);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->phi, 1.0, 0.05);
  EXPECT_NEAR(c->z, 0.0, 1e-9);  // eta = 0: stays at z0
}

TEST(Helix, OppositeChargesBendOppositeWays) {
  nc::tpc::TrackParams plus, minus;
  plus.pt = minus.pt = 0.7;
  plus.phi0 = minus.phi0 = 2.0;
  plus.charge = 1;
  minus.charge = -1;
  const auto cp = nc::tpc::Helix(plus, 1.4).cross_layer(70.0, 105.0);
  const auto cm = nc::tpc::Helix(minus, 1.4).cross_layer(70.0, 105.0);
  ASSERT_TRUE(cp && cm);
  EXPECT_GT(cp->phi, 2.0);
  EXPECT_LT(cm->phi, 2.0);
  EXPECT_NEAR((cp->phi - 2.0), -(cm->phi - 2.0), 1e-9);  // symmetric
}

TEST(Helix, ZAdvancesWithEta) {
  nc::tpc::TrackParams t;
  t.pt = 1.0;
  t.eta = 1.0;
  t.z0 = 3.0;
  const auto c = nc::tpc::Helix(t, 1.4).cross_layer(70.0, 105.0);
  ASSERT_TRUE(c.has_value());
  EXPECT_GT(c->z, 3.0 + 70.0);  // sinh(1) ~ 1.175 > 1: z grows faster than r
}

TEST(Helix, LowPtCurlsUpBeforeOuterLayers) {
  // pT = 0.1 GeV: R ~ 23.8 cm, 2R < 62 cm: never reaches the outer group.
  nc::tpc::TrackParams t;
  t.pt = 0.1;
  const auto c = nc::tpc::Helix(t, 1.4).cross_layer(62.0, 105.0);
  EXPECT_FALSE(c.has_value());
}

TEST(Helix, LeavesDriftVolume) {
  nc::tpc::TrackParams t;
  t.pt = 2.0;
  t.eta = 1.05;
  t.z0 = 100.0;  // vertex close to the endcap
  const auto c = nc::tpc::Helix(t, 1.4).cross_layer(70.0, 105.0);
  EXPECT_FALSE(c.has_value());
}

TEST(Digitizer, ZeroSuppressionGap) {
  // After zero suppression no ADC value may land in (0, 64).
  nc::tpc::Digitizer dig;
  nc::util::Rng rng(61);
  int nonzero = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto adc = dig.digitize_voxel(static_cast<float>(i % 300), rng);
    if (adc != 0) {
      EXPECT_GE(adc, 64);
      EXPECT_LE(adc, 1023);
      ++nonzero;
    }
  }
  EXPECT_GT(nonzero, 0);
}

TEST(Digitizer, SaturatesAtTenBits) {
  nc::tpc::Digitizer dig;
  nc::util::Rng rng(62);
  EXPECT_EQ(dig.digitize_voxel(1e9f, rng), 1023);
}

TEST(Digitizer, LogAdcTransform) {
  EXPECT_FLOAT_EQ(nc::tpc::log_adc(0), 0.f);
  EXPECT_NEAR(nc::tpc::log_adc(64), 6.022, 1e-3);
  EXPECT_NEAR(nc::tpc::log_adc(1023), 10.0, 1e-3);
  // Inverse round-trips the integer grid exactly.
  for (std::uint16_t adc : {std::uint16_t{0}, std::uint16_t{64},
                            std::uint16_t{100}, std::uint16_t{777},
                            std::uint16_t{1023}}) {
    EXPECT_EQ(nc::tpc::inverse_log_adc(nc::tpc::log_adc(adc)), adc);
  }
}

class EventGenTest : public ::testing::Test {
 protected:
  static const nc::tpc::EventAdc& event() {
    static const nc::tpc::EventAdc e = [] {
      nc::tpc::EventGenerator gen(TpcGeometry::bench_scale(), {}, 71);
      return gen.generate_event();
    }();
    return e;
  }
};

TEST_F(EventGenTest, OccupancyNearPaperValue) {
  // §2.1: ~10.8% occupancy after zero suppression.  The simulator is tuned
  // to land in a band around that.
  const auto& e = event();
  std::int64_t nonzero = 0;
  for (const auto v : e.adc) nonzero += (v != 0);
  const double occ = static_cast<double>(nonzero) / static_cast<double>(e.adc.size());
  EXPECT_GT(occ, 0.06);
  EXPECT_LT(occ, 0.18);
}

TEST_F(EventGenTest, AdcValuesAreZeroSuppressedTenBit) {
  for (const auto v : event().adc) {
    EXPECT_TRUE(v == 0 || (v >= 64 && v <= 1023));
  }
}

TEST_F(EventGenTest, TrackStructureIsSpatiallyCorrelated) {
  // Occupied voxels must cluster (tracks), not be iid noise: the fraction of
  // occupied voxels with at least one occupied azimuthal neighbour must far
  // exceed the occupancy itself.
  const auto& e = event();
  std::int64_t occupied = 0, with_neighbour = 0;
  for (std::int64_t r = 0; r < e.radial; ++r) {
    for (std::int64_t a = 1; a + 1 < e.azim; ++a) {
      for (std::int64_t z = 0; z < e.z; ++z) {
        if (e.at(r, a, z) == 0) continue;
        ++occupied;
        if (e.at(r, a - 1, z) != 0 || e.at(r, a + 1, z) != 0) ++with_neighbour;
      }
    }
  }
  ASSERT_GT(occupied, 0);
  EXPECT_GT(static_cast<double>(with_neighbour) / occupied, 0.5);
}

TEST_F(EventGenTest, SlicingProduces24Wedges) {
  nc::tpc::EventGenerator gen(TpcGeometry::bench_scale(), {}, 72);
  const auto wedges = gen.slice_wedges(event());
  EXPECT_EQ(wedges.size(), 24u);
  const WedgeShape ws = TpcGeometry::bench_scale().wedge_shape();
  for (const auto& w : wedges) {
    EXPECT_EQ(w.shape(), (nc::core::Shape{ws.radial, ws.azim, ws.horiz}));
  }
}

TEST_F(EventGenTest, WedgesTileTheEventExactly) {
  // Every voxel of the event grid appears in exactly one wedge.
  nc::tpc::EventGenerator gen(TpcGeometry::bench_scale(), {}, 73);
  const auto& e = event();
  const auto wedges = gen.slice_wedges(e);
  double event_sum = 0, wedge_sum = 0;
  for (const auto v : e.adc) {
    event_sum += static_cast<double>(nc::tpc::log_adc(v));
  }
  for (const auto& w : wedges) {
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      wedge_sum += static_cast<double>(w[i]);
    }
  }
  EXPECT_NEAR(event_sum, wedge_sum, 1e-9 * event_sum + 1e-6);
}

TEST_F(EventGenTest, DeterministicForSeed) {
  nc::tpc::EventGenerator a(TpcGeometry::bench_scale(), {}, 99);
  nc::tpc::EventGenerator b(TpcGeometry::bench_scale(), {}, 99);
  const auto ea = a.generate_event();
  const auto eb = b.generate_event();
  EXPECT_EQ(ea.adc, eb.adc);
  nc::tpc::EventGenerator c(TpcGeometry::bench_scale(), {}, 100);
  EXPECT_NE(c.generate_event().adc, ea.adc);
}

TEST(LogAdcDistribution, BimodalWithEdgeAtSix) {
  // Fig. 3: a large zero population, an empty gap (0, 6), and a decaying
  // tail in (6, 10].
  nc::tpc::DatasetConfig cfg;
  cfg.n_events = 2;
  const auto ds = nc::tpc::WedgeDataset::generate(cfg);
  const auto hist = ds.log_adc_histogram(20);  // bins of 0.5
  const std::int64_t zeros = hist[0];
  std::int64_t gap = 0, tail = 0;
  for (int b = 1; b < 12; ++b) gap += hist[static_cast<std::size_t>(b)];
  for (int b = 12; b < 20; ++b) tail += hist[static_cast<std::size_t>(b)];
  EXPECT_GT(zeros, 5 * tail);  // sparse
  EXPECT_EQ(gap, 0);           // hard edge at 6 (zero suppression at ADC 64)
  EXPECT_GT(tail, 0);
  // Tail decays: first tail bin above later bins.
  EXPECT_GT(hist[12], hist[18]);
}

TEST(WedgeDataset, SplitPaddingAndBatching) {
  nc::tpc::DatasetConfig cfg;
  cfg.n_events = 3;
  cfg.train_fraction = 2.0 / 3.0;
  const auto ds = nc::tpc::WedgeDataset::generate(cfg);
  EXPECT_EQ(ds.train().size(), 48u);  // 2 events x 24 wedges
  EXPECT_EQ(ds.test().size(), 24u);
  EXPECT_EQ(ds.valid_horiz(), 62);
  EXPECT_EQ(ds.padded_horiz(), 64);

  // Padding region must be exactly zero.
  const auto& w = ds.train()[0];
  for (std::int64_t ra = 0; ra < 16 * 48; ++ra) {
    EXPECT_EQ(w[ra * 64 + 62], 0.f);
    EXPECT_EQ(w[ra * 64 + 63], 0.f);
  }

  const auto b2 = ds.batch_2d(ds.train(), {0, 1, 2});
  EXPECT_EQ(b2.shape(), (nc::core::Shape{3, 16, 48, 64}));
  const auto b3 = ds.batch_3d(ds.train(), {5});
  EXPECT_EQ(b3.shape(), (nc::core::Shape{1, 1, 16, 48, 64}));

  const double occ = ds.occupancy();
  EXPECT_GT(occ, 0.05);
  EXPECT_LT(occ, 0.2);
}

TEST(WedgeDataset, ClipHorizontalInvertsPadding) {
  nc::core::Tensor raw({2, 3, 5});
  for (std::int64_t i = 0; i < raw.numel(); ++i) raw[i] = static_cast<float>(i);
  const auto padded = nc::tpc::pad_wedge(raw, 8);
  EXPECT_EQ(padded.shape(), (nc::core::Shape{2, 3, 8}));
  const auto clipped = nc::tpc::clip_horizontal(padded, 5);
  EXPECT_EQ(clipped.shape(), raw.shape());
  for (std::int64_t i = 0; i < raw.numel(); ++i) EXPECT_EQ(clipped[i], raw[i]);
  EXPECT_THROW(nc::tpc::pad_wedge(raw, 4), std::invalid_argument);
  EXPECT_THROW(nc::tpc::clip_horizontal(raw, 9), std::invalid_argument);
}

TEST(WedgeDataset, SaveLoadRoundTrip) {
  nc::tpc::DatasetConfig cfg;
  cfg.n_events = 1;
  cfg.geometry.scale = 0.125;
  const auto ds = nc::tpc::WedgeDataset::generate(cfg);
  const auto path = std::filesystem::path(::testing::TempDir()) / "nc_test_ds.bin";
  ds.save(path.string());
  const auto loaded = nc::tpc::WedgeDataset::load(path.string());
  ASSERT_EQ(loaded.train().size(), ds.train().size());
  ASSERT_EQ(loaded.test().size(), ds.test().size());
  EXPECT_EQ(loaded.wedge_shape(), ds.wedge_shape());
  for (std::size_t i = 0; i < ds.train().size(); ++i) {
    const auto& a = ds.train()[i];
    const auto& b = loaded.train()[i];
    ASSERT_EQ(a.shape(), b.shape());
    for (std::int64_t j = 0; j < a.numel(); ++j) ASSERT_EQ(a[j], b[j]);
  }
  std::filesystem::remove(path);
}

}  // namespace
