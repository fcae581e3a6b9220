#include "trace/synthetic_generator.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ramp::trace {

namespace {
// Architectural register file layout: integer regs [0, 32), FP regs [32, 64).
constexpr std::uint16_t kNumIntRegs = 32;
constexpr std::uint16_t kNumFpRegs = 32;
constexpr std::uint16_t kFpRegBase = 32;
constexpr std::uint64_t kInstrBytes = 4;

// Deterministic per-PC hash (SplitMix64 finalizer) — fixes each static
// branch's preferred direction and target.
std::uint64_t pc_hash(std::uint64_t pc) {
  std::uint64_t z = pc + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void validate(const GeneratorProfile& p) {
  RAMP_REQUIRE(p.op_mix.size() == static_cast<std::size_t>(kNumOpClasses),
               "op_mix must have one weight per OpClass");
  double total = 0.0;
  for (double w : p.op_mix) {
    RAMP_REQUIRE(w >= 0.0, "op_mix weights must be non-negative");
    total += w;
  }
  RAMP_REQUIRE(total > 0.0, "op_mix must have positive total weight");
  RAMP_REQUIRE(p.dep_distance_p > 0.0 && p.dep_distance_p <= 1.0,
               "dep_distance_p must lie in (0, 1]");
  RAMP_REQUIRE(p.second_source_prob >= 0.0 && p.second_source_prob <= 1.0,
               "second_source_prob must lie in [0, 1]");
  RAMP_REQUIRE(p.stream_fraction >= 0.0 && p.stream_fraction <= 1.0,
               "stream_fraction must lie in [0, 1]");
  RAMP_REQUIRE(p.cold_fraction >= 0.0 && p.cold_fraction <= 1.0,
               "cold_fraction must lie in [0, 1]");
  RAMP_REQUIRE(p.num_streams > 0, "need at least one stream");
  RAMP_REQUIRE(p.hot_footprint_bytes > 0 && p.cold_footprint_bytes > 0,
               "footprints must be positive");
  RAMP_REQUIRE(p.branch_noise >= 0.0 && p.branch_noise <= 0.5,
               "branch_noise must lie in [0, 0.5]");
  RAMP_REQUIRE(p.taken_bias >= 0.0 && p.taken_bias <= 1.0,
               "taken_bias must lie in [0, 1]");
  RAMP_REQUIRE(p.code_blocks > 0 && p.block_len > 0,
               "code footprint must be positive");
}
}  // namespace

SyntheticTrace::SyntheticTrace(const GeneratorProfile& profile,
                               std::uint64_t length, std::uint64_t seed)
    : profile_(profile), length_(length), rng_(seed), mix_(profile.op_mix) {
  validate(profile_);
  dep_distance_ = Geometric(profile_.dep_distance_p);
  stream_span_ = std::max<std::uint64_t>(
      profile_.hot_footprint_bytes /
          static_cast<std::uint64_t>(profile_.num_streams),
      64);
  code_span_ = static_cast<std::uint64_t>(profile_.code_blocks) *
               static_cast<std::uint64_t>(profile_.block_len) * kInstrBytes;
  stream_pos_.resize(static_cast<std::size_t>(profile_.num_streams));
  // Lay streams out contiguously with a 3-line skew between them so their
  // footprints land in different cache sets (bases that are multiples of
  // the set-aliasing period would make all streams fight over one region).
  for (std::size_t s = 0; s < stream_pos_.size(); ++s) {
    stream_pos_[s] = stream_base(s);
  }
}

bool SyntheticTrace::next(Instruction& out) {
  if (emitted_ >= length_) return false;
  out = synthesize();
  ++emitted_;
  return true;
}

bool SyntheticTrace::next_functional(Instruction& out) {
  if (emitted_ >= length_) return false;
  out = synthesize_functional();
  ++emitted_;
  return true;
}

std::uint16_t SyntheticTrace::pick_source(bool fp) {
  const RecentRing& recent = fp ? recent_fp_ : recent_int_;
  if (recent.count == 0) {
    // Cold start: depend on an arbitrary architectural register.
    return fp ? kFpRegBase : std::uint16_t{0};
  }
  // Geometric distance from the most recent producer; clamp into the window.
  const std::uint64_t d = dep_distance_(rng_);
  const std::uint64_t back = std::min<std::uint64_t>(d, recent.count - 1);
  return recent.buf[(recent.head + kRecentWindow - back) % kRecentWindow];
}

void SyntheticTrace::record_producer(RecentRing& recent, std::uint16_t dst) {
  recent.head = (recent.head + 1) % kRecentWindow;
  recent.buf[recent.head] = dst;
  if (recent.count < kRecentWindow) ++recent.count;
}

std::uint64_t SyntheticTrace::stream_base(std::size_t s) const {
  // Contiguous spans with a 3-cache-line skew per stream.
  return 0x100000 + s * (stream_span_ + 192);
}

std::uint64_t SyntheticTrace::gen_mem_addr() {
  if (rng_.bernoulli(profile_.stream_fraction)) {
    const auto s = static_cast<std::size_t>(
        rng_.below(static_cast<std::uint64_t>(profile_.num_streams)));
    stream_pos_[s] += profile_.stream_stride;
    // Wrap within the span so streams stay cache-resident at the rate the
    // footprint implies.
    if (stream_pos_[s] >= stream_base(s) + stream_span_) {
      stream_pos_[s] = stream_base(s);
    }
    return stream_pos_[s];
  }
  if (rng_.bernoulli(profile_.cold_fraction)) {
    // 3-line skew vs the hot region below avoids systematic set aliasing.
    return 0x40000300 + (rng_.below(profile_.cold_footprint_bytes) & ~7ULL);
  }
  // Scattered accesses over the hot footprint, offset from the stream
  // region so the two halves of the working set use different sets where
  // the footprint allows.
  return 0x20000000 + profile_.hot_footprint_bytes +
         (rng_.below(profile_.hot_footprint_bytes) & ~7ULL);
}

Instruction SyntheticTrace::synthesize() {
  Instruction ins;
  ins.op = static_cast<OpClass>(mix_.sample(rng_));

  // Branches live on a fixed static grid: the last slot of every
  // block_len-instruction block. This keeps the set of *static* branch
  // sites exactly code_blocks-sized (stable, learnable by the predictor)
  // regardless of the dynamic path. Branch draws landing mid-block become
  // CR-logical ops (POWER cores have rich CR traffic), so branch density is
  // carried by block_len.
  const bool grid_slot =
      block_offset_ == static_cast<std::uint64_t>(profile_.block_len) - 1;
  if (grid_slot) {
    ins.op = OpClass::kBranch;
  } else if (ins.op == OpClass::kBranch) {
    ins.op = OpClass::kLogicalCr;
  }

  ins.pc = pc_;
  const bool fp = is_fp(ins.op);

  switch (ins.op) {
    case OpClass::kLoad: {
      ins.src1 = pick_source(false);  // address register
      ins.mem_addr = gen_mem_addr();
      break;
    }
    case OpClass::kStore: {
      ins.src1 = pick_source(false);           // address register
      ins.src2 = pick_source(rng_.bernoulli(0.3));  // data register
      ins.mem_addr = gen_mem_addr();
      break;
    }
    case OpClass::kBranch: {
      ins.src1 = pick_source(false);
      // Preferred direction is a fixed property of the static branch; the
      // dynamic outcome deviates with probability branch_noise.
      const std::uint64_t h = pc_hash(ins.pc);
      const bool preferred =
          (h & 0x3ff) < static_cast<std::uint64_t>(profile_.taken_bias * 1024.0);
      ins.branch_taken =
          rng_.bernoulli(profile_.branch_noise) ? !preferred : preferred;
      break;
    }
    default: {
      ins.src1 = pick_source(fp);
      if (rng_.bernoulli(profile_.second_source_prob)) ins.src2 = pick_source(fp);
      break;
    }
  }

  // Destination register for value-producing ops.
  if (ins.op != OpClass::kBranch && ins.op != OpClass::kStore) {
    if (fp) {
      ins.dst = static_cast<std::uint16_t>(kFpRegBase + next_fp_reg_);
      next_fp_reg_ = static_cast<std::uint16_t>((next_fp_reg_ + 1) % kNumFpRegs);
      record_producer(recent_fp_, ins.dst);
    } else {
      ins.dst = next_int_reg_;
      next_int_reg_ = static_cast<std::uint16_t>((next_int_reg_ + 1) % kNumIntRegs);
      record_producer(recent_int_, ins.dst);
    }
  }

  advance_pc(ins);
  return ins;
}

Instruction SyntheticTrace::synthesize_functional() {
  Instruction ins;
  ins.op = static_cast<OpClass>(mix_.sample(rng_));

  // Same static branch grid as synthesize() — pc_ evolves identically on
  // both paths, so the set of static branch sites is shared.
  const bool grid_slot =
      block_offset_ == static_cast<std::uint64_t>(profile_.block_len) - 1;
  if (grid_slot) {
    ins.op = OpClass::kBranch;
  } else if (ins.op == OpClass::kBranch) {
    ins.op = OpClass::kLogicalCr;
  }

  ins.pc = pc_;

  // Only the fields the warming pass consumes: no register draws, no
  // recent-producer bookkeeping. The RNG therefore advances differently
  // than on the next() path — deterministic, same distributions.
  switch (ins.op) {
    case OpClass::kLoad:
    case OpClass::kStore:
      ins.mem_addr = gen_mem_addr();
      break;
    case OpClass::kBranch: {
      const std::uint64_t h = pc_hash(ins.pc);
      const bool preferred =
          (h & 0x3ff) < static_cast<std::uint64_t>(profile_.taken_bias * 1024.0);
      ins.branch_taken =
          rng_.bernoulli(profile_.branch_noise) ? !preferred : preferred;
      break;
    }
    default:
      break;
  }

  advance_pc(ins);
  return ins;
}

void SyntheticTrace::advance_pc(Instruction& ins) {
  if (ins.op == OpClass::kBranch) {
    // Branches occupy only the last slot of a block, and both exits land on
    // a block base (taken targets are block-aligned; not-taken falls into
    // the next block or wraps), so the block offset resets to zero.
    block_offset_ = 0;
    if (ins.branch_taken) {
      // Jump to this static branch's fixed target block (BTB-learnable).
      const std::uint64_t block =
          (pc_hash(ins.pc) >> 10) % static_cast<std::uint64_t>(profile_.code_blocks);
      ins.branch_target =
          0x10000 + block * static_cast<std::uint64_t>(profile_.block_len) * kInstrBytes;
      pc_ = ins.branch_target;
    } else {
      ins.branch_target = pc_ + kInstrBytes;
      pc_ += kInstrBytes;
      if (pc_ >= 0x10000 + code_span_) pc_ = 0x10000;
    }
  } else {
    pc_ += kInstrBytes;
    ++block_offset_;
  }
}

}  // namespace ramp::trace
