// Cycle-exact differential golden for the detailed OooCore.
//
// The committed golden sweep runs only 4000 instructions per cell; at that
// length the ROB never fills, the MSHR cap and long divide chains barely
// occur, and the store-forwarding bypass is never taken. These runs go to
// 200k instructions on four apps chosen to stress exactly those paths
// (ammp/applu: FP divides and L2 misses, twolf: serial int chains with
// divides, gcc: branchy with a large footprint) at the 180 nm and 65 nm
// (1.0 V) design points, each with the base config, with store forwarding,
// with next-line prefetch, with a tight window (the ROB fills and the MSHR
// cap binds, which the base config at these lengths never does) and with a
// wide one (a multi-word issue-select mask). Each run reduces to one line in
// golden/ooo_core_digests.txt: a digest over every interval's cycles,
// instructions and activity bits, plus the whole-run RunStats. One more run
// drives the core through step() and digests live_counters().
//
// Any timing change to the core — intended or not — shows up here. To
// re-bless after an intended change, replace the mismatching line with the
// `actual` line the failure prints.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "scaling/technology.hpp"
#include "sim/core_config.hpp"
#include "sim/ooo_core.hpp"
#include "trace/synthetic_generator.hpp"
#include "util/hashing.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::sim {
namespace {

constexpr std::uint64_t kInstructions = 200'000;
constexpr std::uint64_t kSeed = 42;

enum class Variant { kBase, kStoreForwarding, kPrefetch, kTight, kWide };

struct GoldenRun {
  const char* app;
  scaling::TechPoint node;
  Variant variant;
};

std::string run_name(const GoldenRun& r) {
  std::string name = r.app;
  name += '_';
  name += scaling::tech_token(r.node);
  switch (r.variant) {
    case Variant::kBase: break;
    case Variant::kStoreForwarding: name += "_stfwd"; break;
    case Variant::kPrefetch: name += "_prefetch"; break;
    case Variant::kTight: name += "_tight"; break;
    case Variant::kWide: name += "_wide"; break;
  }
  for (char& c : name) {
    if (c == '-' || c == '.') c = '_';
  }
  return name;
}

// Names the parameter in test listings (gtest would otherwise print its
// bytes, including a pointer).
void PrintTo(const GoldenRun& r, std::ostream* os) { *os << run_name(r); }

CoreConfig config_for(const GoldenRun& r) {
  CoreConfig cfg = core_config_for(scaling::node(r.node));
  cfg.enable_store_forwarding = r.variant == Variant::kStoreForwarding;
  cfg.enable_nextline_prefetch = r.variant == Variant::kPrefetch;
  if (r.variant == Variant::kTight) {
    // A 48-entry ROB fills before the rename budget or the issue queues,
    // and two MSHRs make the miss cap bind.
    cfg.rob_size = 48;
    cfg.max_outstanding_misses = 2;
  } else if (r.variant == Variant::kWide) {
    // A 400-entry window with queues and register files to match.
    cfg.rob_size = 400;
    cfg.int_regs = 400;
    cfg.fp_regs = 400;
    cfg.mem_queue = 128;
    cfg.issue_queue_per_class = 96;
  }
  return cfg;
}

/// One golden line: the run's name, then a digest of its intervals and the
/// RunStats fields spelled out.
std::string digest_line(const std::string& name, const SimResult& r) {
  Fnv64 iv;
  for (const IntervalStats& s : r.intervals) {
    iv.mix(s.cycles).mix(s.instructions);
    for (const double a : s.activity) iv.mix(a);
  }
  Fnv64 act;
  for (const double a : r.totals.avg_activity) act.mix(a);
  const RunStats& t = r.totals;
  std::ostringstream os;
  os << name << " intervals=" << r.intervals.size() << " iv=" << iv.hex()
     << " cycles=" << t.cycles << " instructions=" << t.instructions
     << " l1d_accesses=" << t.l1d_accesses << " l1d_misses=" << t.l1d_misses
     << " l2_accesses=" << t.l2_accesses << " l2_misses=" << t.l2_misses
     << " l1i_misses=" << t.l1i_misses << " branches=" << t.branches
     << " mispredicts=" << t.branch_mispredicts << " act=" << act.hex();
  return os.str();
}

/// Golden lines keyed by run name.
const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> lines = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(std::string(RAMP_GOLDEN_DIR) + "/ooo_core_digests.txt");
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      out.emplace(line.substr(0, line.find(' ')), line);
    }
    return out;
  }();
  return lines;
}

void expect_golden(const std::string& name, const std::string& actual) {
  const auto it = golden().find(name);
  ASSERT_NE(it, golden().end()) << "no golden line for " << name
                                << "\nactual: " << actual;
  EXPECT_EQ(it->second, actual) << "\nactual: " << actual;
}

std::vector<GoldenRun> all_runs() {
  std::vector<GoldenRun> runs;
  for (const Variant v : {Variant::kBase, Variant::kStoreForwarding,
                          Variant::kPrefetch, Variant::kTight,
                          Variant::kWide}) {
    for (const char* app : {"ammp", "applu", "twolf", "gcc"}) {
      for (const auto node :
           {scaling::TechPoint::k180nm, scaling::TechPoint::k65nm_1V0}) {
        runs.push_back({app, node, v});
      }
    }
  }
  return runs;
}

class OooCoreGoldenTest : public ::testing::TestWithParam<GoldenRun> {};

TEST_P(OooCoreGoldenTest, RunMatchesDigest) {
  const GoldenRun& r = GetParam();
  const CoreConfig cfg = config_for(r);
  const auto interval_cycles =
      static_cast<std::uint64_t>(std::llround(cfg.frequency_hz * 1e-6));
  trace::SyntheticTrace t(workloads::workload(r.app).profile, kInstructions,
                          kSeed);
  OooCore core(cfg);
  expect_golden(run_name(r), digest_line(run_name(r), core.run(t, interval_cycles)));
}

INSTANTIATE_TEST_SUITE_P(
    Runs, OooCoreGoldenTest, ::testing::ValuesIn(all_runs()),
    [](const ::testing::TestParamInfo<GoldenRun>& run) {
      return run_name(run.param);
    });

TEST(OooCoreGoldenStepTest, LiveCountersMatchDigest) {
  // step()-driven: no interval chopping; live_counters() carries whole-run
  // totals. Sampled every 4096 cycles plus the drained final state.
  const CoreConfig cfg = core_config_for(scaling::node(scaling::TechPoint::k65nm_1V0));
  trace::SyntheticTrace t(workloads::workload("ammp").profile, kInstructions,
                          kSeed);
  OooCore core(cfg);
  Fnv64 h;
  auto mix = [&h](const OooCore::LiveCounters& lc) {
    h.mix(lc.cycles).mix(lc.retired).mix(lc.fetched).mix(lc.dispatched);
    h.mix(lc.int_issued).mix(lc.fp_issued).mix(lc.ls_issued).mix(lc.br_issued);
  };
  while (core.step(t)) {
    const auto lc = core.live_counters();
    if (lc.cycles % 4096 == 0) mix(lc);
  }
  const auto lc = core.live_counters();
  mix(lc);
  std::ostringstream os;
  os << "step_ammp_65_1_0 samples=" << h.hex() << " cycles=" << lc.cycles
     << " retired=" << lc.retired << " fetched=" << lc.fetched
     << " dispatched=" << lc.dispatched << " int=" << lc.int_issued
     << " fp=" << lc.fp_issued << " ls=" << lc.ls_issued
     << " br=" << lc.br_issued;
  expect_golden("step_ammp_65_1_0", os.str());
}

}  // namespace
}  // namespace ramp::sim
