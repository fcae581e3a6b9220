#include "trace/packed_trace.hpp"

#include "util/error.hpp"

namespace ramp::trace {

namespace {

// Packed word: op class in bits 0-3, branch direction in bit 4, then dst,
// src1 and src2 as 7-bit fields from bit 5; kPackedNoReg stands for kNoReg.
constexpr std::uint32_t kRegBits = 7;
constexpr std::uint32_t kPackedNoReg = (1U << kRegBits) - 1;
constexpr std::uint32_t kDstShift = 5;
constexpr std::uint32_t kSrc1Shift = kDstShift + kRegBits;
constexpr std::uint32_t kSrc2Shift = kSrc1Shift + kRegBits;

bool packable(std::uint16_t reg) {
  return reg == Instruction::kNoReg || reg < kPackedNoReg;
}

std::uint32_t pack_reg(std::uint16_t reg) {
  return reg == Instruction::kNoReg ? kPackedNoReg : reg;
}

std::uint16_t unpack_reg(std::uint32_t field) {
  field &= kPackedNoReg;
  return field == kPackedNoReg ? Instruction::kNoReg
                               : static_cast<std::uint16_t>(field);
}

}  // namespace

PackedTrace::PackedTrace(const GeneratorProfile& profile,
                         std::uint64_t expected_length)
    : origin_(profile), walk_(profile) {
  ops_.reserve(expected_length);
  mem_addrs_.reserve(expected_length);
}

void PackedTrace::append(const Instruction& ins) {
  if (state_ == State::kAbandoned) return;
  state_ = State::kRecording;
  // The replay rebuilds pc and branch_target from the walk and zeroes what
  // the record omits; anything else cannot be held exactly.
  Instruction rebuilt;
  rebuilt.op = ins.op;
  rebuilt.branch_taken = ins.branch_taken;
  rebuilt.pc = walk_.pc();
  walk_.advance(rebuilt);
  const bool mem = is_memory(ins.op);
  const bool exact =
      static_cast<int>(ins.op) < kNumOpClasses && ins.pc == rebuilt.pc &&
      ins.branch_target == rebuilt.branch_target &&
      (ins.op == OpClass::kBranch || !ins.branch_taken) &&
      packable(ins.dst) && packable(ins.src1) && packable(ins.src2) &&
      (mem ? ins.mem_addr <= UINT32_MAX : ins.mem_addr == 0);
  if (!exact) {
    abandon();
    return;
  }
  ops_.push_back(static_cast<std::uint32_t>(ins.op) |
                 (ins.branch_taken ? 1U << 4 : 0U) |
                 pack_reg(ins.dst) << kDstShift |
                 pack_reg(ins.src1) << kSrc1Shift |
                 pack_reg(ins.src2) << kSrc2Shift);
  if (mem) mem_addrs_.push_back(static_cast<std::uint32_t>(ins.mem_addr));
}

void PackedTrace::abandon() {
  state_ = State::kAbandoned;
  std::vector<std::uint32_t>().swap(ops_);
  std::vector<std::uint32_t>().swap(mem_addrs_);
}

PackedTrace::Recorder::Recorder(TraceReader& source, PackedTrace& into)
    : source_(source), into_(into) {
  RAMP_REQUIRE(into_.empty(), "a recorder needs an empty PackedTrace");
}

bool PackedTrace::Recorder::next(Instruction& out) {
  if (!source_.next(out)) {
    if (into_.state_ != State::kAbandoned) into_.state_ = State::kComplete;
    return false;
  }
  into_.append(out);
  return true;
}

bool PackedTrace::Recorder::next_functional(Instruction& out) {
  into_.abandon();
  return source_.next_functional(out);
}

PackedTrace::Replay::Replay(const PackedTrace& from)
    : from_(from), walk_(from.origin_) {
  RAMP_REQUIRE(from_.complete(), "only a complete PackedTrace replays");
}

bool PackedTrace::Replay::next(Instruction& out) {
  if (pos_ == from_.ops_.size()) return false;
  const std::uint32_t word = from_.ops_[pos_++];
  out = Instruction{};
  out.op = static_cast<OpClass>(word & 0xf);
  out.branch_taken = (word >> 4) & 1;
  out.dst = unpack_reg(word >> kDstShift);
  out.src1 = unpack_reg(word >> kSrc1Shift);
  out.src2 = unpack_reg(word >> kSrc2Shift);
  out.pc = walk_.pc();
  if (is_memory(out.op)) out.mem_addr = from_.mem_addrs_[mem_pos_++];
  walk_.advance(out);
  return true;
}

}  // namespace ramp::trace
