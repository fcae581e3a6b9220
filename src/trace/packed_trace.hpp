// A synthetic instruction stream recorded once in packed form and replayed.
//
// The paper's sweep simulates every application at five nodes, and each of
// those detailed runs pulls the same instruction stream: the trace depends
// on the app, the seed and the length, never on the node. Generating it
// costs about as much per instruction as a third of the detailed core, so
// the sweep records the stream its 180 nm run pulls and the app's scaled
// runs replay it (pipeline::evaluate_cells).
//
// The packed record is 4 bytes per instruction (op class, branch
// direction, three 7-bit register numbers) plus 4 bytes per load or store
// (its address). The pc and the branch target are not stored: CodeWalk
// rebuilds them from the op class and the direction, as the generator
// does. An instruction the record cannot hold exactly abandons the
// recording (the stream itself flows on unchanged), so a replay is always
// field-for-field identical to the stream that was recorded.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/instruction.hpp"
#include "trace/synthetic_generator.hpp"

namespace ramp::trace {

class PackedTrace {
 public:
  /// An empty recording of a stream drawn from `profile`, whose code layout
  /// rebuilds pcs and branch targets on replay. Room for `expected_length`
  /// instructions is reserved up front (untouched pages cost no memory).
  PackedTrace(const GeneratorProfile& profile, std::uint64_t expected_length);

  PackedTrace(const PackedTrace&) = delete;
  PackedTrace& operator=(const PackedTrace&) = delete;

  /// True once a whole stream has been recorded; only then can it replay.
  bool complete() const { return state_ == State::kComplete; }
  /// True until a recorder has started writing (or given up).
  bool empty() const { return state_ == State::kEmpty; }
  std::uint64_t size() const { return ops_.size(); }
  /// Bytes held by the packed record.
  std::size_t bytes() const {
    return (ops_.size() + mem_addrs_.size()) * sizeof(std::uint32_t);
  }

  /// Forwards `source` instruction by instruction while appending each one
  /// to `into`, which must be empty; `into` completes when `source` ends.
  /// next_functional() abandons the recording, since it draws a different
  /// sequence. `source` and `into` must outlive the recorder.
  class Recorder final : public TraceReader {
   public:
    Recorder(TraceReader& source, PackedTrace& into);
    bool next(Instruction& out) override;
    bool next_functional(Instruction& out) override;

   private:
    TraceReader& source_;
    PackedTrace& into_;
  };

  /// Replays a complete recording from its start. Reads only, so any number
  /// of replays may share one recording across threads. next_functional()
  /// is the default (next()): replay serves detailed simulation only.
  class Replay final : public TraceReader {
   public:
    explicit Replay(const PackedTrace& from);
    bool next(Instruction& out) override;

   private:
    const PackedTrace& from_;
    CodeWalk walk_;
    std::size_t pos_ = 0;
    std::size_t mem_pos_ = 0;
  };

 private:
  enum class State : std::uint8_t { kEmpty, kRecording, kComplete, kAbandoned };

  void append(const Instruction& ins);
  void abandon();

  CodeWalk origin_;  ///< the walk at the stream's first instruction
  CodeWalk walk_;    ///< the recording's pc, checked against each instruction
  std::vector<std::uint32_t> ops_;        ///< one packed word per instruction
  std::vector<std::uint32_t> mem_addrs_;  ///< one per load or store
  State state_ = State::kEmpty;
};

}  // namespace ramp::trace
