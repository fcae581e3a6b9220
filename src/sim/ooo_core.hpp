// Trace-driven out-of-order superscalar core timing model (Turandot-like).
//
// Models the POWER4-like pipeline of Table 2: 8-wide fetch ending at taken
// branches, dispatch-group formation (up to 5 instructions, one group per
// cycle), register renaming against finite physical register files,
// per-class issue queues feeding 2 Int / 2 FP / 2 Load-Store / 1 Branch /
// 1 CR-logical units, a 150-entry reorder buffer with group retirement, a
// 32-entry memory queue, and the L1/L2/memory hierarchy. Being trace-driven,
// mispredicted branches stall fetch for a redirect penalty rather than
// executing wrong-path instructions — the same approach Turandot takes.
//
// The simulator's deliverable is SimResult: per-interval per-structure
// activity factors that the power model converts to Watts.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "sim/branch_predictor.hpp"
#include "sim/core_config.hpp"
#include "sim/interval_stats.hpp"
#include "sim/memory_hierarchy.hpp"
#include "trace/instruction.hpp"

namespace ramp::sim {

class OooCore {
 public:
  explicit OooCore(const CoreConfig& cfg);

  /// Borrowed-state constructor: the core uses (and mutates) the caller's
  /// memory hierarchy and/or branch predictor instead of owning fresh ones.
  /// Pass nullptr to own that component. SampledCore uses this so its
  /// short-lived measurement-unit cores share one persistently warm cache
  /// hierarchy and predictor instead of re-constructing MB-scale tag arrays
  /// per unit. Borrowed components must outlive the core.
  OooCore(const CoreConfig& cfg, MemoryHierarchy* mem,
          BranchPredictor* predictor);

  /// Runs `reader` to exhaustion, chopping statistics every
  /// `interval_cycles` cycles. Throws InvalidArgument on a zero interval.
  SimResult run(trace::TraceReader& reader, std::uint64_t interval_cycles);

  /// Single-cycle stepping for callers that drive the core externally
  /// (SampledCore measures instruction windows this way). Simulates one
  /// cycle against `reader` and returns false once the trace is exhausted
  /// and the machine has drained. Interval chopping is disabled in this
  /// mode; read progress through live_counters(). Do not mix with run().
  bool step(trace::TraceReader& reader);

  /// Running whole-run totals, valid while driving the core via step().
  struct LiveCounters {
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    std::uint64_t fetched = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t int_issued = 0;
    std::uint64_t fp_issued = 0;
    std::uint64_t ls_issued = 0;
    std::uint64_t br_issued = 0;
  };
  LiveCounters live_counters() const {
    return {cycle_,         iv_retired_,   iv_fetched_,   iv_dispatched_,
            iv_int_issued_, iv_fp_issued_, iv_ls_issued_, iv_br_issued_};
  }

  const CoreConfig& config() const { return cfg_; }

 private:
  static constexpr std::uint64_t kNoDep = ~0ULL;
  static constexpr std::uint64_t kNoLink = ~0ULL;

  enum class IqClass : std::uint8_t { kInt, kFp, kLs, kBr, kCr };
  static constexpr int kNumIqClasses = 5;
  static IqClass iq_class_of(trace::OpClass op);

  // One in-flight instruction; it lives in the ROB ring at slot
  // seq & rob_mask_.
  //
  // Wakeup lists: each Flight heads an intrusive list of the consumers that
  // dispatched before it issued. A link names a consumer (seq << 1 |
  // operand) and continues through that consumer's next_waiter[operand], so
  // a consumer sits on at most two lists, one per source operand. At
  // dispatch a consumer folds the complete_cycle of each already-issued
  // producer into ready_at_[slot] and counts the rest in `pending`; each of
  // those pushes its complete_cycle and decrements `pending` when it
  // issues. At pending == 0, ready_at_[slot] is final and the flight is
  // armed in its issue queue.
  struct Flight {
    std::uint64_t mem_addr = 0;
    std::uint64_t complete_cycle = 0;  ///< valid once issued
    std::uint64_t waiters = kNoLink;   ///< head of the consumer list
    std::array<std::uint64_t, 2> next_waiter{kNoLink, kNoLink};
    trace::OpClass op{};
    IqClass iq{};
    std::uint8_t pending = 0;  ///< producers not issued yet
    bool issued = false;
    bool produces_int = false;
    bool produces_fp = false;
    bool in_mem_queue = false;
  };

  // One issue queue per class. Armed flights (every producer issued) are
  // bits in a mask over ROB slots; the oldest-first select walks the set
  // bits in ring order from the ROB head — seq order — and reads only
  // ready_at_ until it finds a flight to issue. Flights still waiting on a
  // producer count against the capacity but sit only on their producers'
  // wakeup lists.
  struct IssueQueue {
    std::vector<std::uint64_t> armed;  ///< one bit per ROB slot
    int size = 0;                      ///< armed + waiting flights
  };

  // Functional-unit pool for one op family.
  struct UnitPool {
    std::vector<std::uint64_t> free_at;  ///< cycle each unit next accepts
    explicit UnitPool(int n = 0) : free_at(static_cast<std::size_t>(n), 0) {}
    int available(std::uint64_t now) const;
    // Claims a unit: occupied through `occupy` cycles (1 for pipelined ops).
    void claim(std::uint64_t now, std::uint64_t occupy);
  };

  // --- pipeline stages, called once per cycle in reverse order ---
  void do_retire();
  void do_complete();
  void do_issue();
  void do_dispatch();
  void do_fetch(trace::TraceReader& reader);

  /// One full pipeline cycle plus interval bookkeeping (shared by run and
  /// step).
  void cycle_once(trace::TraceReader& reader);
  std::uint64_t rob_count() const { return next_seq_ - rob_base_seq_; }
  bool drained() const {
    return trace_exhausted_ && !pending_valid_ && fetch_count_ == 0 &&
           rob_count() == 0;
  }

  /// Marks the flight at `slot` issued with its complete_cycle already set,
  /// and pushes that cycle to every consumer on its wakeup list.
  void issue_flight(std::size_t slot);
  /// Marks the flight at `slot`, whose producers have all issued, as a
  /// select candidate in its issue queue.
  void arm(std::size_t slot, IqClass iq) {
    issue_queues_[static_cast<std::size_t>(iq)].armed[slot >> 6] |=
        1ULL << (slot & 63);
  }

  int exec_latency(trace::OpClass op) const;
  void finish_interval();

  CoreConfig cfg_;
  // Owned by default; borrowed (null owners) via the injection constructor.
  std::unique_ptr<BranchPredictor> owned_predictor_;
  std::unique_ptr<MemoryHierarchy> owned_mem_;
  BranchPredictor* predictor_ = nullptr;
  MemoryHierarchy* mem_ = nullptr;

  // ROB as a power-of-two ring indexed by seq & rob_mask_; in flight are
  // seqs [rob_base_seq_, next_seq_).
  //
  // ready_at_ is the hot issue-scan state beside the ring: per slot, the
  // max complete_cycle over the flight's issued producers. It is exact:
  // producers retired before a consumer dispatches are skipped, and a
  // producer that retires later stays folded in. Neither changes a
  // decision: a retired producer has complete_cycle <= cycle_, and
  // ready_at_ is only ever compared as ready_at_ > cycle_. Every latency is
  // >= 1, so a producer that issues this cycle never readies a consumer in
  // the same cycle.
  std::vector<Flight> rob_;
  std::vector<std::uint64_t> ready_at_;
  std::uint64_t rob_mask_ = 0;
  std::uint64_t rob_base_seq_ = 0;  ///< seq of ROB head (oldest in flight)
  std::uint64_t next_seq_ = 0;      ///< seq for the next dispatched instr

  // Rename: architectural register -> seq of last in-flight producer.
  std::vector<std::uint64_t> rename_table_;
  int int_regs_in_use_ = 0;
  int fp_regs_in_use_ = 0;
  int mem_queue_used_ = 0;

  std::array<IssueQueue, kNumIqClasses> issue_queues_;
  UnitPool int_pool_, fp_pool_, ls_pool_, br_pool_, cr_pool_;

  // Fetch state. The fetch buffer is a power-of-two ring: fetch_count_
  // instructions from fetch_head_, oldest first.
  std::vector<trace::Instruction> fetch_ring_;
  std::size_t fetch_head_ = 0;
  std::size_t fetch_count_ = 0;
  std::uint64_t fetch_resume_cycle_ = 0;  ///< stall until this cycle
  std::uint64_t stalled_on_branch_seq_ = kNoDep;  ///< unresolved mispredict
  bool trace_exhausted_ = false;
  trace::Instruction pending_;  ///< lookahead instruction when valid
  bool pending_valid_ = false;

  std::uint64_t cycle_ = 0;

  /// Completion times of in-flight L1D misses; each fill releases its MSHR
  /// slot when the cycle clock passes it.
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      miss_fill_events_;

  /// In-flight store (seq, 8-byte-aligned address) pairs, dispatch order;
  /// consulted by loads when store forwarding is enabled.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> inflight_stores_;

  // --- per-interval counters ---
  std::uint64_t iv_start_cycle_ = 0;
  std::uint64_t iv_fetched_ = 0;
  std::uint64_t iv_dispatched_ = 0;
  std::uint64_t iv_retired_ = 0;
  std::uint64_t iv_int_issued_ = 0;
  std::uint64_t iv_fp_issued_ = 0;
  std::uint64_t iv_ls_issued_ = 0;
  std::uint64_t iv_br_issued_ = 0;

  SimResult result_;
  std::uint64_t interval_cycles_ = 0;
};

}  // namespace ramp::sim
