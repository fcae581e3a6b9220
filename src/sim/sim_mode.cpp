#include "sim/sim_mode.hpp"

#include <string>

#include "util/error.hpp"

namespace ramp::sim {

std::string_view sim_mode_name(SimMode mode) {
  switch (mode) {
    case SimMode::kDetailed:
      return "detailed";
    case SimMode::kSampled:
      return "sampled";
    case SimMode::kAuto:
      return "auto";
  }
  throw InternalError("unknown SimMode value");
}

SimMode parse_sim_mode(std::string_view text) {
  if (text == "detailed") return SimMode::kDetailed;
  if (text == "sampled") return SimMode::kSampled;
  if (text == "auto") return SimMode::kAuto;
  throw InvalidArgument("invalid sim mode '" + std::string(text) +
                        "' (expected detailed|sampled|auto)");
}

void SampledParams::validate() const {
  RAMP_REQUIRE(warmup > 0, "sampled warmup must be positive");
  RAMP_REQUIRE(measure > 0, "sampled measure must be positive");
  RAMP_REQUIRE(windows > 0, "sampled windows must be positive");
  RAMP_REQUIRE(warmup + windows * measure <= period,
               "sampled warmup + windows*measure must not exceed the "
               "sampling period");
}

}  // namespace ramp::sim
