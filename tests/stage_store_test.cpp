// Robustness and key-derivation tests for the content-addressed stage
// graph: BlobStore file-format hardening (corrupt / truncated /
// wrong-version / mis-keyed entries read as misses), stage-key invalidation
// properties, codec round trips, and byte-identity of the staged evaluator
// against the monolithic path.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "obs/metrics.hpp"
#include "pipeline/evaluator.hpp"
#include "pipeline/stage_graph.hpp"
#include "pipeline/sweep.hpp"
#include "scaling/technology.hpp"
#include "util/blob_store.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::pipeline {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test, removed on destruction.
struct TempDir {
  TempDir() {
    static std::atomic<int> counter{0};
    path = (fs::temp_directory_path() /
            ("ramp_stage_store_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++)))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

EvaluationConfig quick_config() {
  EvaluationConfig cfg;
  cfg.trace_instructions = 5'000;
  return cfg;
}

std::string row_of(const AppTechResult& r) {
  std::ostringstream os;
  os.precision(17);
  write_result_row(os, r);
  return os.str();
}

std::shared_ptr<StageStore> make_store(obs::MetricsRegistry* reg,
                                       std::string dir = "") {
  StageStore::Options opts;
  opts.registry = reg;
  opts.dir = std::move(dir);
  return std::make_shared<StageStore>(std::move(opts));
}

std::uint64_t count(obs::MetricsRegistry& reg, const std::string& name) {
  return reg.counter(name).value();
}

// The evaluator's exact key chain for (app, tech) with `cfg`, so tests can
// locate (and corrupt) specific stage files.
CellKeys keys_for(const EvaluationConfig& cfg, const std::string& app,
                  scaling::TechPoint point, double sink_target_k = 0.0) {
  return cell_keys(cfg, workloads::workload(app), point, sink_target_k);
}

// ---- BlobStore file-format hardening ---------------------------------------

TEST(BlobStoreTest, ComputesOnceThenHitsMemory) {
  BlobStore store;
  int computes = 0;
  const auto compute = [&] {
    ++computes;
    return std::string("payload");
  };
  const auto first = store.get_or_compute("k", compute);
  EXPECT_EQ(first.outcome, BlobStore::Outcome::kComputed);
  EXPECT_EQ(*first.blob, "payload");
  const auto second = store.get_or_compute("k", compute);
  EXPECT_EQ(second.outcome, BlobStore::Outcome::kMemoryHit);
  EXPECT_EQ(second.blob, first.blob);  // shared, not copied
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(store.memory_entries(), 1u);
  EXPECT_EQ(store.memory_bytes(), 7u);
}

TEST(BlobStoreTest, PersistsAndReloadsAcrossStores) {
  TempDir tmp;
  BlobStore::Options opts;
  opts.dir = tmp.path;
  {
    BlobStore store(opts);
    store.get_or_compute("k", [] { return std::string("payload"); });
    ASSERT_TRUE(fs::exists(store.path_for("k")));
  }
  BlobStore fresh(opts);
  bool validated = false;
  const auto res = fresh.get_or_compute(
      "k", [] { return std::string("WRONG"); },
      [&](const std::string& p) {
        validated = true;
        return p == "payload";
      });
  EXPECT_EQ(res.outcome, BlobStore::Outcome::kDiskHit);
  EXPECT_EQ(*res.blob, "payload");
  EXPECT_TRUE(validated);
}

TEST(BlobStoreTest, CorruptFilesReadAsMissesAndGetRewritten) {
  TempDir tmp;
  BlobStore::Options opts;
  opts.dir = tmp.path;
  const std::string good = [&] {
    BlobStore store(opts);
    store.get_or_compute("k", [] { return std::string("payload"); });
    return store.path_for("k");
  }();

  const auto original = [&] {
    std::ifstream in(good, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();

  const auto expect_recompute = [&](const std::string& contents) {
    {
      std::ofstream out(good, std::ios::binary | std::ios::trunc);
      out << contents;
    }
    BlobStore fresh(opts);
    int computes = 0;
    const auto res = fresh.get_or_compute("k", [&] {
      ++computes;
      return std::string("payload");
    });
    EXPECT_EQ(res.outcome, BlobStore::Outcome::kComputed);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(*res.blob, "payload");
    // The miss rewrites the entry, so a further fresh store disk-hits again.
    BlobStore reread(opts);
    EXPECT_EQ(reread.get_or_compute("k", [] { return std::string("x"); })
                  .outcome,
              BlobStore::Outcome::kDiskHit);
  };

  expect_recompute("");                                    // empty file
  expect_recompute(original.substr(0, original.size() / 2));  // truncated
  expect_recompute("garbage\n");                           // no header at all
  {  // wrong format version
    std::string v2 = original;
    v2.replace(v2.find("v1"), 2, "v2");
    expect_recompute(v2);
  }
  {  // byte count inconsistent with the payload
    std::string bad = original;
    bad.replace(bad.find("bytes=7"), 7, "bytes=8");
    expect_recompute(bad);
  }
  {  // a byte count no allocation can honour must not be trusted either
    std::string huge = original;
    huge.replace(huge.find("bytes=7"), 7, "bytes=18446744073709551615");
    expect_recompute(huge);
  }
}

TEST(BlobStoreTest, MisKeyedFileReadsAsMiss) {
  // A digest collision (or a stray rename) puts key A's bytes at key B's
  // path; the verbatim key header must turn that into a miss, not a wrong
  // answer.
  TempDir tmp;
  BlobStore::Options opts;
  opts.dir = tmp.path;
  {
    BlobStore store(opts);
    store.get_or_compute("a", [] { return std::string("payload-a"); });
    fs::copy_file(store.path_for("a"), store.path_for("b"));
  }
  BlobStore fresh(opts);
  const auto res =
      fresh.get_or_compute("b", [] { return std::string("payload-b"); });
  EXPECT_EQ(res.outcome, BlobStore::Outcome::kComputed);
  EXPECT_EQ(*res.blob, "payload-b");
}

TEST(BlobStoreTest, ValidateRejectionRecomputes) {
  TempDir tmp;
  BlobStore::Options opts;
  opts.dir = tmp.path;
  {
    BlobStore store(opts);
    store.get_or_compute("k", [] { return std::string("stale"); });
  }
  BlobStore fresh(opts);
  const auto res = fresh.get_or_compute(
      "k", [] { return std::string("fresh"); },
      [](const std::string&) { return false; });
  EXPECT_EQ(res.outcome, BlobStore::Outcome::kComputed);
  EXPECT_EQ(*res.blob, "fresh");
}

TEST(BlobStoreTest, ComputeExceptionLeavesNoEntry) {
  BlobStore store;
  EXPECT_THROW(store.get_or_compute(
                   "k", []() -> std::string { throw std::runtime_error("x"); }),
               std::runtime_error);
  EXPECT_EQ(store.memory_entries(), 0u);
  const auto res = store.get_or_compute("k", [] { return std::string("ok"); });
  EXPECT_EQ(res.outcome, BlobStore::Outcome::kComputed);
  EXPECT_EQ(*res.blob, "ok");
}

// ---- stage keys ------------------------------------------------------------

TEST(StageKeyTest, VoltageChangeInvalidatesPowerButNotSim) {
  // The paper's 65 nm V/f study: 0.9 V and 1.0 V run the same 2 GHz clock,
  // so trace and sim outputs are shared and only power→thermal→fit re-run.
  const EvaluationConfig cfg = quick_config();
  const CellKeys lo = keys_for(cfg, "gcc", scaling::TechPoint::k65nm_0V9);
  const CellKeys hi = keys_for(cfg, "gcc", scaling::TechPoint::k65nm_1V0);
  EXPECT_EQ(lo.trace.canonical, hi.trace.canonical);
  EXPECT_EQ(lo.sim.canonical, hi.sim.canonical);
  EXPECT_NE(lo.power.canonical, hi.power.canonical);
  EXPECT_NE(lo.thermal.canonical, hi.thermal.canonical);
  EXPECT_NE(lo.fit.canonical, hi.fit.canonical);
}

TEST(StageKeyTest, UpstreamChangesCascadeDownstream) {
  EvaluationConfig cfg = quick_config();
  const CellKeys base = keys_for(cfg, "gcc", scaling::TechPoint::k180nm);

  // A different app changes everything from the trace on down.
  const CellKeys other_app = keys_for(cfg, "mesa", scaling::TechPoint::k180nm);
  EXPECT_NE(base.trace.canonical, other_app.trace.canonical);
  EXPECT_NE(base.fit.canonical, other_app.fit.canonical);

  // Seed feeds the trace stage; every downstream key embeds it.
  cfg.seed += 1;
  const CellKeys reseeded = keys_for(cfg, "gcc", scaling::TechPoint::k180nm);
  EXPECT_NE(base.trace.canonical, reseeded.trace.canonical);
  EXPECT_NE(base.sim.canonical, reseeded.sim.canonical);
  EXPECT_NE(base.fit.canonical, reseeded.fit.canonical);
  cfg.seed -= 1;

  // The sink target feeds thermal calibration only: power and above reuse.
  const CellKeys pinned =
      keys_for(cfg, "gcc", scaling::TechPoint::k180nm, 360.0);
  EXPECT_EQ(base.power.canonical, pinned.power.canonical);
  EXPECT_NE(base.thermal.canonical, pinned.thermal.canonical);
  EXPECT_NE(base.fit.canonical, pinned.fit.canonical);

  // Keys embed their upstream key verbatim — no digest chaining.
  EXPECT_NE(base.sim.canonical.find(base.trace.canonical), std::string::npos);
  EXPECT_NE(base.fit.canonical.find(base.thermal.canonical),
            std::string::npos);
}

// Keys name persisted files, so their text is an on-disk format: a store
// written by an earlier build must keep answering. Captured from the
// snprintf("%.17g")-based formatting the key doubles started with.
TEST(StageKeyTest, KeyTextIsFrozen) {
  EXPECT_EQ(keys_for(quick_config(), "gcc", scaling::TechPoint::k90nm,
                     341.23456789012345)
                .fit.canonical,
            "fit.v1|up=(thermal.v1|up=(power.v1|up=(sim.v1|up=(trace.v1|"
            "app=gcc|n=5000|seed=42|profile=fc9b1f31f04bf3a3)|f=1650000000|"
            "dt=9.9999999999999995e-07)|bias=1.22|dyn=2db2b3257f0d4f39)|"
            "sink=341.23456789012346|cfg=aba50e70743ffb91)|"
            "cfg=eb2af9c9a5384edb");
}

// The fit-stage key is the only result key, so every input that can change
// a cell's result must reach it, and inputs that cannot must not. The table
// covers every field config_hash mixes, the resolved sim mode with its
// sampling parameters, and the workload profile and power bias config_hash
// never saw.
TEST(StageKeyTest, EveryResultInputReachesTheFitKey) {
  using Perturb = std::function<void(EvaluationConfig&, workloads::Workload&)>;
  struct Case {
    std::string name;
    Perturb perturb;
    Perturb setup;  ///< applied to both sides first (may be empty)
  };
  const auto cfg_field = [](const std::string& name, auto member) {
    return Case{name, [member](EvaluationConfig& c, workloads::Workload&) {
                  c.*member *= 1.01;
                }, nullptr};
  };
  const auto sampled = [](EvaluationConfig& c, workloads::Workload&) {
    c.sim_mode = sim::SimMode::kSampled;
  };
  std::vector<Case> affecting = {
      {"trace_instructions",
       [](EvaluationConfig& c, workloads::Workload&) {
         c.trace_instructions += 1;
       }, nullptr},
      {"seed", [](EvaluationConfig& c, workloads::Workload&) { c.seed += 1; },
       nullptr},
      cfg_field("interval_seconds", &EvaluationConfig::interval_seconds),
      {"sim_mode sampled", sampled, nullptr},
      {"sim_mode auto resolving to sampled",
       [](EvaluationConfig& c, workloads::Workload&) {
         c.sim_mode = sim::SimMode::kAuto;
         c.trace_instructions = 1'000'000;
       },
       [](EvaluationConfig& c, workloads::Workload&) {
         c.trace_instructions = 1'000'000;
       }},
      {"power_bias",
       [](EvaluationConfig&, workloads::Workload& w) { w.power_bias *= 1.01; },
       nullptr},
  };
  for (auto param : {&sim::SampledParams::period, &sim::SampledParams::warmup,
                     &sim::SampledParams::measure,
                     &sim::SampledParams::windows}) {
    affecting.push_back(
        {"sampled param",
         [param](EvaluationConfig& c, workloads::Workload&) {
           c.sampled.*param += 1;
         },
         sampled});
  }
  const std::size_t structures =
      EvaluationConfig{}.power.unconstrained_w_180nm.size();
  for (std::size_t i = 0; i < structures; ++i) {
    affecting.push_back({"unconstrained_w_180nm[" + std::to_string(i) + "]",
                         [i](EvaluationConfig& c, workloads::Workload&) {
                           c.power.unconstrained_w_180nm[i] *= 1.01;
                         },
                         nullptr});
  }
  const auto power_field = [](const std::string& name, auto member) {
    return Case{name, [member](EvaluationConfig& c, workloads::Workload&) {
                  c.power.*member *= 1.01;
                }, nullptr};
  };
  affecting.push_back(power_field(
      "clock_gating_floor", &power::PowerModelConfig::clock_gating_floor));
  affecting.push_back(
      power_field("leakage_beta", &power::PowerModelConfig::leakage_beta));
  affecting.push_back(power_field("leakage_ref_temp",
                                  &power::PowerModelConfig::leakage_ref_temp));
  affecting.push_back(power_field(
      "base_core_area_mm2", &power::PowerModelConfig::base_core_area_mm2));
  for (auto member :
       {&thermal::ThermalConfig::ambient_k,
        &thermal::ThermalConfig::r_convec_k_per_w,
        &thermal::ThermalConfig::r_vertical_specific,
        &thermal::ThermalConfig::r_spreader_sink,
        &thermal::ThermalConfig::k_silicon,
        &thermal::ThermalConfig::die_thickness,
        &thermal::ThermalConfig::c_silicon,
        &thermal::ThermalConfig::spreader_capacitance,
        &thermal::ThermalConfig::sink_capacitance}) {
    affecting.push_back({"thermal field",
                         [member](EvaluationConfig& c, workloads::Workload&) {
                           c.thermal.*member *= 1.01;
                         },
                         nullptr});
  }
  const auto profile = [](const std::string& name,
                          std::function<void(trace::GeneratorProfile&)> f) {
    return Case{"profile " + name,
                [f](EvaluationConfig&, workloads::Workload& w) {
                  f(w.profile);
                },
                nullptr};
  };
  affecting.push_back(profile("op_mix", [](auto& p) { p.op_mix[0] += 0.01; }));
  affecting.push_back(
      profile("dep_distance_p", [](auto& p) { p.dep_distance_p *= 1.01; }));
  affecting.push_back(profile("second_source_prob",
                              [](auto& p) { p.second_source_prob *= 1.01; }));
  affecting.push_back(
      profile("stream_fraction", [](auto& p) { p.stream_fraction *= 1.01; }));
  affecting.push_back(
      profile("num_streams", [](auto& p) { p.num_streams += 1; }));
  affecting.push_back(
      profile("stream_stride", [](auto& p) { p.stream_stride += 1; }));
  affecting.push_back(
      profile("cold_fraction", [](auto& p) { p.cold_fraction *= 1.01; }));
  affecting.push_back(profile("hot_footprint_bytes",
                              [](auto& p) { p.hot_footprint_bytes += 64; }));
  affecting.push_back(profile("cold_footprint_bytes",
                              [](auto& p) { p.cold_footprint_bytes += 64; }));
  affecting.push_back(
      profile("branch_noise", [](auto& p) { p.branch_noise *= 1.01; }));
  affecting.push_back(
      profile("taken_bias", [](auto& p) { p.taken_bias *= 1.01; }));
  affecting.push_back(
      profile("code_blocks", [](auto& p) { p.code_blocks += 1; }));
  affecting.push_back(profile("block_len", [](auto& p) { p.block_len += 1; }));

  const std::vector<Case> neutral = {
      {"timeline",
       [](EvaluationConfig& c, workloads::Workload&) {
         c.timeline_enabled = true;
         c.timeline_points = 16;
         c.timeline_dir = "tl";
         c.trace_out = "t.json";
         c.watchdog.max_temp_k = 1.0;
       }, nullptr},
      {"cache dir",
       [](EvaluationConfig& c, workloads::Workload&) {
         c.stage_cache_dir = "elsewhere";
       }, nullptr},
      {"sampled params while detailed",
       [](EvaluationConfig& c, workloads::Workload&) {
         c.sampled.period += 1;
       }, nullptr},
      {"sim_mode auto resolving to detailed",
       [](EvaluationConfig& c, workloads::Workload&) {
         c.sim_mode = sim::SimMode::kAuto;
       }, nullptr},
  };

  const auto fit_keys = [](const Case& c) {
    EvaluationConfig base_cfg = quick_config();
    workloads::Workload base_w = workloads::workload("gcc");
    if (c.setup) c.setup(base_cfg, base_w);
    EvaluationConfig cfg = base_cfg;
    workloads::Workload w = base_w;
    c.perturb(cfg, w);
    return std::make_pair(
        cell_keys(base_cfg, base_w, scaling::TechPoint::k90nm, 350.0)
            .fit.canonical,
        cell_keys(cfg, w, scaling::TechPoint::k90nm, 350.0).fit.canonical);
  };
  for (const Case& c : affecting) {
    const auto [before, after] = fit_keys(c);
    EXPECT_NE(before, after) << c.name << " does not reach the fit key";
  }
  for (const Case& c : neutral) {
    const auto [before, after] = fit_keys(c);
    EXPECT_EQ(before, after) << c.name << " must not change the fit key";
  }
}

// ---- codecs ----------------------------------------------------------------

TEST(StageCodecTest, PowerPayloadRoundTripsBitExactly) {
  PowerStageOut v;
  for (double& d : v.avg_dynamic) d = 0.1 + d;
  v.dynamic.resize(3);
  v.dynamic[1][2] = 1.0 / 3.0;
  v.dynamic_total = {0.25, -0.0, 6.02214076e23};
  const std::string payload = encode_payload(v);
  PowerStageOut back;
  ASSERT_TRUE(decode_payload(payload, back));
  EXPECT_EQ(back.dynamic.size(), 3u);
  for (std::size_t i = 0; i < v.avg_dynamic.size(); ++i) {
    EXPECT_EQ(back.avg_dynamic[i], v.avg_dynamic[i]);
  }
  EXPECT_EQ(back.dynamic[1][2], 1.0 / 3.0);
  ASSERT_EQ(back.dynamic_total.size(), 3u);
  EXPECT_EQ(back.dynamic_total[2], 6.02214076e23);
  EXPECT_TRUE(std::signbit(back.dynamic_total[1]));  // -0.0 preserved
}

TEST(StageCodecTest, DecodeRejectsCorruptPayloads) {
  ThermalStageOut v;
  v.sink_temp_k = 345.0;
  v.struct_temps.resize(2);
  v.block_total = {1.0, 2.0};
  const std::string payload = encode_payload(v);

  ThermalStageOut out;
  EXPECT_TRUE(decode_payload(payload, out));
  EXPECT_FALSE(decode_payload(payload.substr(0, payload.size() - 1), out));
  EXPECT_FALSE(decode_payload(payload + "x", out));
  EXPECT_FALSE(decode_payload(std::string(), out));
  std::string wrong_magic = payload;
  wrong_magic[0] ^= 0x5a;
  EXPECT_FALSE(decode_payload(wrong_magic, out));
  // A corrupt interval count must fail the size check, not attempt a
  // matching (potentially enormous) resize.
  std::string huge_count = payload;
  huge_count[8] = '\xff';  // low byte of the first u64 count
  EXPECT_FALSE(decode_payload(huge_count, out));
  // Payloads of one stage must not decode as another.
  SimStageOut sim;
  EXPECT_FALSE(decode_payload(payload, sim));
}

// ---- StageStore end to end -------------------------------------------------

TEST(StageStoreTest, StagedMatchesMonolithicByteForByte) {
  const EvaluationConfig cfg = quick_config();
  const Evaluator mono(cfg);
  obs::MetricsRegistry reg(true);
  const Evaluator staged(cfg, make_store(&reg));
  const workloads::Workload& w = workloads::workload("gcc");
  for (const auto point :
       {scaling::TechPoint::k180nm, scaling::TechPoint::k65nm_1V0}) {
    const std::string expect = row_of(mono.evaluate(w, point));
    EXPECT_EQ(row_of(staged.evaluate(w, point)), expect);  // cold
    EXPECT_EQ(row_of(staged.evaluate(w, point)), expect);  // warm
  }
}

TEST(StageStoreTest, SecondVfPointSkipsTraceAndSim) {
  // The headline reuse property: after gcc@65-0.9, evaluating gcc@65-1.0
  // answers the sim stage from the store and never touches the trace stage.
  const EvaluationConfig cfg = quick_config();
  obs::MetricsRegistry reg(true);
  const Evaluator ev(cfg, make_store(&reg));
  const workloads::Workload& w = workloads::workload("gcc");

  ev.evaluate(w, scaling::TechPoint::k65nm_0V9);
  EXPECT_EQ(count(reg, "ramp_stage_trace_misses_total"), 1u);
  EXPECT_EQ(count(reg, "ramp_stage_sim_misses_total"), 1u);
  EXPECT_EQ(count(reg, "ramp_stage_fit_misses_total"), 1u);

  ev.evaluate(w, scaling::TechPoint::k65nm_1V0);
  EXPECT_EQ(count(reg, "ramp_stage_sim_hits_total"), 1u);
  EXPECT_EQ(count(reg, "ramp_stage_sim_misses_total"), 1u);
  // A sim hit short-circuits its compute lambda, so the trace stage is
  // never even looked up — zero hits, still one miss.
  EXPECT_EQ(count(reg, "ramp_stage_trace_hits_total"), 0u);
  EXPECT_EQ(count(reg, "ramp_stage_trace_misses_total"), 1u);
  EXPECT_EQ(count(reg, "ramp_stage_power_misses_total"), 2u);
  EXPECT_EQ(count(reg, "ramp_stage_thermal_misses_total"), 2u);
  EXPECT_EQ(count(reg, "ramp_stage_fit_misses_total"), 2u);
}

TEST(StageStoreTest, WarmPersistentStoreAnswersFromFitAlone) {
  TempDir tmp;
  const EvaluationConfig cfg = quick_config();
  const workloads::Workload& w = workloads::workload("gcc");
  std::string cold_row;
  {
    obs::MetricsRegistry reg(true);
    const Evaluator ev(cfg, make_store(&reg, tmp.path));
    cold_row = row_of(ev.evaluate(w, scaling::TechPoint::k180nm));
    EXPECT_EQ(count(reg, "ramp_stage_fit_writes_total"), 1u);
    EXPECT_EQ(count(reg, "ramp_stage_sim_writes_total"), 1u);
  }
  // A fresh process (fresh store, fresh registry) disk-hits the fit row and
  // pulls nothing upstream — the lazy getters never fire.
  obs::MetricsRegistry reg(true);
  const Evaluator ev(cfg, make_store(&reg, tmp.path));
  EXPECT_EQ(row_of(ev.evaluate(w, scaling::TechPoint::k180nm)), cold_row);
  EXPECT_EQ(count(reg, "ramp_stage_fit_hits_total"), 1u);
  EXPECT_EQ(count(reg, "ramp_stage_fit_misses_total"), 0u);
  for (const char* stage : {"trace", "sim", "power", "thermal"}) {
    EXPECT_EQ(count(reg, "ramp_stage_" + std::string(stage) + "_hits_total"),
              0u)
        << stage;
    EXPECT_EQ(count(reg, "ramp_stage_" + std::string(stage) + "_misses_total"),
              0u)
        << stage;
  }
  EXPECT_EQ(count(reg, "ramp_stage_fit_writes_total"), 0u);
}

TEST(StageStoreTest, CorruptStageFileFallsBackToUpstreamHits) {
  TempDir tmp;
  const EvaluationConfig cfg = quick_config();
  const workloads::Workload& w = workloads::workload("gcc");
  const CellKeys keys = keys_for(cfg, "gcc", scaling::TechPoint::k180nm);
  std::string cold_row;
  std::string fit_path;
  {
    obs::MetricsRegistry reg(true);
    const auto store = make_store(&reg, tmp.path);
    const Evaluator ev(cfg, store);
    cold_row = row_of(ev.evaluate(w, scaling::TechPoint::k180nm));
    fit_path = store->blobs().path_for(keys.fit.canonical);
    ASSERT_TRUE(fs::exists(fit_path));
  }
  // Corrupt the fit payload's magic but keep the blob header intact: the
  // codec (not the file parser) must reject it, and the recompute should
  // disk-hit the intact thermal stage instead of redoing the pipeline.
  {
    std::ifstream in(fit_path, std::ios::binary);
    std::string contents(std::istreambuf_iterator<char>(in), {});
    in.close();
    std::size_t payload_at = 0;
    for (int nl = 0; nl < 3; ++nl) payload_at = contents.find('\n', payload_at) + 1;
    ASSERT_LT(payload_at + 8, contents.size());
    for (int i = 0; i < 8; ++i) contents[payload_at + i] ^= 0x5a;
    std::ofstream out(fit_path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  obs::MetricsRegistry reg(true);
  const Evaluator ev(cfg, make_store(&reg, tmp.path));
  EXPECT_EQ(row_of(ev.evaluate(w, scaling::TechPoint::k180nm)), cold_row);
  EXPECT_EQ(count(reg, "ramp_stage_fit_misses_total"), 1u);
  EXPECT_EQ(count(reg, "ramp_stage_thermal_hits_total"), 1u);
  EXPECT_EQ(count(reg, "ramp_stage_sim_hits_total"), 1u);
  EXPECT_EQ(count(reg, "ramp_stage_sim_misses_total"), 0u);
  EXPECT_EQ(count(reg, "ramp_stage_fit_writes_total"), 1u);  // re-persisted
}

TEST(StageStoreTest, RecorderRunsBypassFitCacheButReuseUpstream) {
  EvaluationConfig cfg = quick_config();
  cfg.timeline_enabled = true;
  obs::MetricsRegistry reg(true);
  const Evaluator ev(cfg, make_store(&reg));
  const workloads::Workload& w = workloads::workload("gcc");

  const auto first = ev.evaluate(w, scaling::TechPoint::k180nm);
  const auto second = ev.evaluate(w, scaling::TechPoint::k180nm);
  // Timelines are not representable in the fit payload, so recorder runs
  // never consult the fit cache — but both runs carry the timeline, and the
  // second reuses every upstream stage.
  EXPECT_FALSE(first.timeline.empty());
  EXPECT_EQ(second.timeline.points.size(), first.timeline.points.size());
  EXPECT_EQ(count(reg, "ramp_stage_fit_hits_total"), 0u);
  EXPECT_EQ(count(reg, "ramp_stage_fit_misses_total"), 0u);
  EXPECT_EQ(count(reg, "ramp_stage_thermal_hits_total"), 1u);
  EXPECT_EQ(count(reg, "ramp_stage_thermal_misses_total"), 1u);
  EXPECT_EQ(row_of(first), row_of(second));
}

}  // namespace
}  // namespace ramp::pipeline
