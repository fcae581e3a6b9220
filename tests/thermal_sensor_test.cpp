// Tests for the on-die thermal sensor model.
#include "drm/thermal_sensor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ramp::drm {
namespace {

SensorConfig ideal() {
  return {.offset_k = 0.0, .noise_sigma_k = 0.0, .quantum_k = 0.0,
          .time_constant_s = 0.0};
}

TEST(ThermalSensorTest, IdealSensorIsTransparent) {
  ThermalSensor s(ideal(), 1);
  EXPECT_DOUBLE_EQ(s.read(350.0, 1e-6), 350.0);
  EXPECT_DOUBLE_EQ(s.read(362.5, 1e-6), 362.5);
  EXPECT_DOUBLE_EQ(s.last_reading(), 362.5);
}

TEST(ThermalSensorTest, OffsetShiftsReadings) {
  SensorConfig cfg = ideal();
  cfg.offset_k = -3.0;  // optimistic sensor reads cold
  ThermalSensor s(cfg, 2);
  EXPECT_DOUBLE_EQ(s.read(350.0, 1e-6), 347.0);
}

TEST(ThermalSensorTest, QuantizationSnapsToGrid) {
  SensorConfig cfg = ideal();
  cfg.quantum_k = 2.0;
  ThermalSensor s(cfg, 3);
  EXPECT_DOUBLE_EQ(s.read(350.7, 1e-6), 350.0);
  EXPECT_DOUBLE_EQ(s.read(351.2, 1e-6), 352.0);
}

TEST(ThermalSensorTest, NoiseHasConfiguredSpread) {
  SensorConfig cfg = ideal();
  cfg.noise_sigma_k = 0.8;
  ThermalSensor s(cfg, 4);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double r = s.read(355.0, 1e-6) - 355.0;
    sum += r;
    sum2 += r * r;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(std::sqrt(sum2 / n), 0.8, 0.03);
}

TEST(ThermalSensorTest, LowPassLagsSteps) {
  SensorConfig cfg = ideal();
  cfg.time_constant_s = 100e-6;
  ThermalSensor s(cfg, 5);
  s.read(340.0, 1e-6);  // primes at 340
  // Step to 360: after one tau the sensor covers ~63% of the step.
  double r = 0;
  for (int i = 0; i < 100; ++i) r = s.read(360.0, 1e-6);  // 100 µs = 1 tau
  EXPECT_NEAR(r, 340.0 + 20.0 * (1.0 - std::exp(-1.0)), 0.3);
  // After many taus it converges.
  for (int i = 0; i < 1000; ++i) r = s.read(360.0, 1e-6);
  EXPECT_NEAR(r, 360.0, 0.1);
}

TEST(ThermalSensorTest, FirstReadPrimesWithoutLag) {
  SensorConfig cfg = ideal();
  cfg.time_constant_s = 1.0;  // huge lag
  ThermalSensor s(cfg, 6);
  EXPECT_DOUBLE_EQ(s.read(351.0, 1e-6), 351.0);  // no cold-start transient
}

TEST(ThermalSensorTest, DeterministicPerSeed) {
  SensorConfig cfg = ideal();
  cfg.noise_sigma_k = 0.5;
  ThermalSensor a(cfg, 7), b(cfg, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.read(350.0, 1e-6), b.read(350.0, 1e-6));
  }
}

// Across a dt sequence that changes (back to an earlier dt, and a shorter
// final step, as a fleet's last phase can be), every reading must carry the
// exact bits of the first-order step response over its own dt: a low-pass
// coefficient carried over from an earlier step would show here.
TEST(ThermalSensorTest, StepResponseIsBitExactAcrossChangingDt) {
  SensorConfig cfg;
  cfg.offset_k = 0.3;
  cfg.noise_sigma_k = 0.5;
  cfg.quantum_k = 0.0;  // unquantized: any rounding difference shows
  cfg.time_constant_s = 100e-6;
  const double dts[] = {1e-6, 1e-6, 3e-5, 3e-5, 3e-5, 1e-6,
                        2e-4, 2e-4, 1e-6, 7e-7};
  ThermalSensor s(cfg, 11);
  Xoshiro256 rng(11);
  double state = 0.0;
  for (int i = 0; i < 10; ++i) {
    const double junction = 340.0 + 2.5 * i;
    const double dt = dts[i];
    state = i == 0 ? junction
                   : state + (1.0 - std::exp(-dt / cfg.time_constant_s)) *
                                 (junction - state);
    const double expected =
        state + cfg.offset_k + rng.normal(0.0, cfg.noise_sigma_k);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.read(junction, dt)),
              std::bit_cast<std::uint64_t>(expected))
        << "read " << i << " (dt " << dt << ")";
  }
}

TEST(ThermalSensorTest, RejectsBadInputs) {
  SensorConfig cfg = ideal();
  cfg.noise_sigma_k = -1.0;
  EXPECT_THROW(ThermalSensor(cfg, 1), InvalidArgument);
  ThermalSensor s(ideal(), 1);
  EXPECT_THROW(s.read(350.0, 0.0), InvalidArgument);
  EXPECT_THROW(s.read(-5.0, 1e-6), InvalidArgument);
}

}  // namespace
}  // namespace ramp::drm
