// Synthetic trace generation.
//
// Produces a deterministic dynamic-instruction stream whose statistical
// properties are controlled by a GeneratorProfile: instruction mix, register
// dependency distances (which bound extractable ILP), memory footprints and
// stream behaviour (which determine cache miss rates), and branch outcome
// predictability (which determines the gshare mispredict rate). The
// per-benchmark profiles in src/workloads instantiate this generator with
// parameters calibrated so the 180 nm simulation approximates the IPC and
// power reported in Table 3 of the paper.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "trace/instruction.hpp"
#include "util/rng.hpp"

namespace ramp::trace {

/// Statistical description of a workload, sufficient to synthesize a trace.
struct GeneratorProfile {
  /// Relative frequency of each OpClass, indexed by static_cast<int>(OpClass).
  /// Need not be normalized. Loads/stores/branches here define the memory and
  /// control-flow densities.
  std::vector<double> op_mix = std::vector<double>(kNumOpClasses, 0.0);

  /// Register dependences: each source register reads the destination of a
  /// recent producer at distance d (in dynamic instructions), with d drawn
  /// geometrically. Small mean distance => long dependency chains => low ILP.
  double dep_distance_p = 0.25;  ///< geometric success prob; mean = (1-p)/p
  double second_source_prob = 0.5;  ///< probability an op has two sources

  /// Memory behaviour. A fraction of accesses walk sequential streams (high
  /// spatial locality, near-perfect L1 hits); the rest are scattered
  /// uniformly over one of two footprints. Scattered accesses within
  /// `hot_footprint_bytes` typically hit L1/L2; accesses within
  /// `cold_footprint_bytes` model the L2-missing working set.
  double stream_fraction = 0.7;    ///< fraction of accesses on stride streams
  int num_streams = 4;             ///< concurrent sequential streams
  std::uint32_t stream_stride = 8; ///< bytes advanced per stream access
  double cold_fraction = 0.05;     ///< scattered accesses that go cold
  std::uint64_t hot_footprint_bytes = 24 * 1024;
  std::uint64_t cold_footprint_bytes = 64 * 1024 * 1024;

  /// Branch behaviour: each *static* branch has a fixed preferred direction
  /// and a fixed target (both derived deterministically from its PC), so a
  /// direction predictor and BTB can learn them; each dynamic instance flips
  /// the direction with probability `branch_noise` (the irreducible
  /// mispredict rate). `taken_bias` sets the fraction of static branches
  /// whose preferred direction is taken.
  double branch_noise = 0.04;
  double taken_bias = 0.6;

  /// Static code footprint in basic blocks; controls L1I pressure (small for
  /// SPEC-like loops).
  int code_blocks = 256;
  int block_len = 12;  ///< instructions per basic block between branches
};

/// Deterministic per-PC hash (SplitMix64 finalizer): fixes each static
/// branch's preferred direction (low 10 bits) and target block (the rest).
inline std::uint64_t static_branch_hash(std::uint64_t pc) {
  std::uint64_t z = pc + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The synthetic stream's control flow over a profile's static code: the
/// pc of the next instruction, and where each instruction leaves it. A
/// taken branch jumps to its static target block, a not-taken one falls
/// into the next block (wrapping at the end of the code), anything else
/// steps one instruction. The pc sequence is therefore a function of the
/// op classes and branch directions alone, which is what lets a recorded
/// stream (trace::PackedTrace) drop pcs and targets.
class CodeWalk {
 public:
  static constexpr std::uint64_t kCodeBase = 0x10000;
  static constexpr std::uint64_t kInstrBytes = 4;

  explicit CodeWalk(const GeneratorProfile& profile)
      : code_blocks_(static_cast<std::uint64_t>(profile.code_blocks)),
        block_bytes_(static_cast<std::uint64_t>(profile.block_len) *
                     kInstrBytes),
        code_end_(kCodeBase + code_blocks_ * block_bytes_) {}

  std::uint64_t pc() const { return pc_; }

  /// Moves past `ins`, the instruction at pc(): fills a branch's
  /// branch_target and advances pc().
  void advance(Instruction& ins) {
    if (ins.op != OpClass::kBranch) {
      pc_ += kInstrBytes;
    } else if (ins.branch_taken) {
      // Jump to this static branch's fixed target block (BTB-learnable).
      const std::uint64_t block =
          (static_branch_hash(ins.pc) >> 10) % code_blocks_;
      ins.branch_target = kCodeBase + block * block_bytes_;
      pc_ = ins.branch_target;
    } else {
      ins.branch_target = pc_ + kInstrBytes;
      pc_ += kInstrBytes;
      if (pc_ >= code_end_) pc_ = kCodeBase;
    }
  }

 private:
  std::uint64_t code_blocks_;
  std::uint64_t block_bytes_;
  std::uint64_t code_end_;
  std::uint64_t pc_ = kCodeBase;
};

/// Deterministic synthetic trace stream; exhausted after `length`
/// instructions.
class SyntheticTrace final : public TraceReader {
 public:
  /// Validates the profile (throws InvalidArgument on nonsense) and prepares
  /// a stream of `length` instructions seeded by `seed`.
  SyntheticTrace(const GeneratorProfile& profile, std::uint64_t length,
                 std::uint64_t seed);

  bool next(Instruction& out) override;

  /// Cheap functional path (~5× less RNG work than next()): keeps the op
  /// mix, the static branch grid, memory addresses, branch outcomes, and
  /// control flow bit-identical in distribution, but skips source/dest
  /// register draws and bookkeeping. Used by the sampled fast-forward,
  /// which only warms caches and the branch predictor.
  bool next_functional(Instruction& out) override;

  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t length() const { return length_; }

 private:
  static constexpr std::size_t kRecentWindow = 64;  // power of two (ring mask)

  // Recent destination registers as a fixed ring, newest at `head`, so
  // recording a producer is O(1) (a growing vector with front-erase costs a
  // 64-entry memmove per value-producing instruction).
  struct RecentRing {
    std::array<std::uint16_t, kRecentWindow> buf{};
    std::uint32_t head = 0;  ///< index of the newest entry (when count > 0)
    std::uint32_t count = 0;
  };

  Instruction synthesize();
  Instruction synthesize_functional();
  void advance_pc(Instruction& ins);
  std::uint16_t pick_source(bool fp);
  void record_producer(RecentRing& recent, std::uint16_t dst);
  std::uint64_t gen_mem_addr();
  std::uint64_t stream_base(std::size_t s) const;

  GeneratorProfile profile_;
  std::uint64_t length_;
  std::uint64_t emitted_ = 0;
  Xoshiro256 rng_;
  AliasTable mix_;
  Geometric dep_distance_{1.0};  ///< set from the validated profile

  // Split by register class so FP ops depend on FP producers.
  RecentRing recent_int_;
  RecentRing recent_fp_;
  std::uint16_t next_int_reg_ = 0;
  std::uint16_t next_fp_reg_ = 0;

  std::vector<std::uint64_t> stream_pos_;
  // Derived constant hoisted out of the per-access path (it would otherwise
  // cost a 64-bit division per memory access).
  std::uint64_t stream_span_ = 0;
  CodeWalk code_;
  // The pc's offset within its basic block, tracked incrementally: branches
  // sit only on the last slot of each block, and both branch exits (taken
  // jumps to a block base; not-taken falls into the next block) reset it to
  // zero.
  std::uint64_t block_offset_ = 0;
};

}  // namespace ramp::trace
