// Record-and-replay of synthetic streams (trace::PackedTrace): a replay must
// yield exactly the instructions the recorded stream yielded, field for
// field, for every workload profile; anything the packed record cannot hold
// must abandon the recording rather than replay something else.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pipeline/stage_graph.hpp"
#include "trace/packed_trace.hpp"
#include "trace/synthetic_generator.hpp"
#include "workloads/spec2k.hpp"

namespace ramp::trace {
namespace {

constexpr std::uint64_t kLength = 30'000;

void expect_same(const Instruction& want, const Instruction& got,
                 std::uint64_t i) {
  ASSERT_EQ(want.op, got.op) << "instruction " << i;
  ASSERT_EQ(want.dst, got.dst) << "instruction " << i;
  ASSERT_EQ(want.src1, got.src1) << "instruction " << i;
  ASSERT_EQ(want.src2, got.src2) << "instruction " << i;
  ASSERT_EQ(want.pc, got.pc) << "instruction " << i;
  ASSERT_EQ(want.mem_addr, got.mem_addr) << "instruction " << i;
  ASSERT_EQ(want.branch_taken, got.branch_taken) << "instruction " << i;
  ASSERT_EQ(want.branch_target, got.branch_target) << "instruction " << i;
}

/// Records `profile`'s stream through a Recorder (checking it passes every
/// instruction through unchanged), replays it twice against fresh
/// generators, and returns how many times the pc wrapped from the end of
/// the code back to its start.
std::uint64_t check_round_trip(const GeneratorProfile& profile,
                               std::uint64_t seed) {
  PackedTrace packed(profile, kLength);
  EXPECT_TRUE(packed.empty());
  {
    SyntheticTrace source(profile, kLength, seed);
    SyntheticTrace reference(profile, kLength, seed);
    PackedTrace::Recorder recorder(source, packed);
    Instruction got, want;
    std::uint64_t i = 0;
    while (reference.next(want)) {
      EXPECT_TRUE(recorder.next(got));
      expect_same(want, got, i++);
    }
    EXPECT_FALSE(recorder.next(got));
  }
  EXPECT_TRUE(packed.complete());
  EXPECT_EQ(packed.size(), kLength);
  // 4 bytes per instruction plus 4 per load or store.
  EXPECT_LE(packed.bytes(), 8 * kLength);

  std::uint64_t wraps = 0;
  for (int pass = 0; pass < 2; ++pass) {
    SyntheticTrace reference(profile, kLength, seed);
    PackedTrace::Replay replay(packed);
    Instruction got, want, prev;
    std::uint64_t i = 0;
    while (reference.next(want)) {
      EXPECT_TRUE(replay.next(got));
      expect_same(want, got, i);
      if (pass == 0 && i > 0 && prev.op == OpClass::kBranch &&
          !prev.branch_taken && want.pc == CodeWalk::kCodeBase) {
        ++wraps;
      }
      prev = want;
      ++i;
    }
    EXPECT_FALSE(replay.next(got));
  }
  return wraps;
}

TEST(PackedTraceTest, ReplayMatchesEveryWorkloadFieldForField) {
  for (const auto& w : workloads::spec2k_suite()) {
    SCOPED_TRACE(w.name);
    check_round_trip(w.profile, pipeline::app_trace_seed(42, w.name));
  }
}

TEST(PackedTraceTest, ReplayFollowsTheCodeSpanWrap) {
  // Three blocks whose branches always fall through: the pc wraps from the
  // end of the code back to its start every third block.
  GeneratorProfile p = workloads::workload("gcc").profile;
  p.code_blocks = 3;
  p.taken_bias = 0.0;
  p.branch_noise = 0.0;
  EXPECT_GT(check_round_trip(p, 7), 100u);
}

/// Yields a fixed list of instructions.
class ListReader final : public TraceReader {
 public:
  explicit ListReader(std::vector<Instruction> list) : list_(std::move(list)) {}
  bool next(Instruction& out) override {
    if (pos_ == list_.size()) return false;
    out = list_[pos_++];
    return true;
  }

 private:
  std::vector<Instruction> list_;
  std::size_t pos_ = 0;
};

/// The first `n` instructions of gcc's stream.
std::vector<Instruction> gcc_prefix(std::size_t n) {
  SyntheticTrace t(workloads::workload("gcc").profile, n, 1);
  std::vector<Instruction> out(n);
  for (auto& ins : out) EXPECT_TRUE(t.next(ins));
  return out;
}

/// Records `list` and reports whether the recording completed; the recorder
/// must pass every instruction through unchanged either way.
bool records_completely(const std::vector<Instruction>& list) {
  PackedTrace packed(workloads::workload("gcc").profile, list.size());
  ListReader source(list);
  PackedTrace::Recorder recorder(source, packed);
  Instruction got;
  for (std::size_t i = 0; i < list.size(); ++i) {
    EXPECT_TRUE(recorder.next(got));
    expect_same(list[i], got, i);
  }
  EXPECT_FALSE(recorder.next(got));
  return packed.complete();
}

TEST(PackedTraceTest, UnpackableInstructionsAbandonTheRecording) {
  const std::vector<Instruction> base = gcc_prefix(64);
  EXPECT_TRUE(records_completely(base));

  std::size_t mem = 0;
  while (!is_memory(base[mem].op)) ++mem;
  std::size_t alu = 0;
  while (is_memory(base[alu].op) || base[alu].op == OpClass::kBranch) ++alu;

  auto far_address = base;
  far_address[mem].mem_addr = 1ULL << 32;
  EXPECT_FALSE(records_completely(far_address));

  auto stray_address = base;
  stray_address[alu].mem_addr = 64;
  EXPECT_FALSE(records_completely(stray_address));

  auto wide_register = base;
  wide_register[alu].src1 = 127;
  EXPECT_FALSE(records_completely(wide_register));

  auto off_walk = base;
  off_walk[10].pc += 4;
  EXPECT_FALSE(records_completely(off_walk));
}

TEST(PackedTraceTest, FunctionalDrawsAbandonTheRecording) {
  const GeneratorProfile& p = workloads::workload("gcc").profile;
  PackedTrace packed(p, 100);
  SyntheticTrace source(p, 100, 1);
  PackedTrace::Recorder recorder(source, packed);
  Instruction ins;
  EXPECT_TRUE(recorder.next(ins));
  EXPECT_TRUE(recorder.next_functional(ins));
  while (recorder.next(ins)) {
  }
  EXPECT_FALSE(packed.complete());
  EXPECT_EQ(packed.bytes(), 0u);
}

}  // namespace
}  // namespace ramp::trace
