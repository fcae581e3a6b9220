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
  ///
  /// After a cycle in which no stage acted, run() jumps the clock straight
  /// to the next cycle at which one can: the ROB head completing, a wheel
  /// bucket coming due, an MSHR fill, fetch resuming, the stalled branch
  /// resolving, or a busy unit freeing up for an armed flight. The jump
  /// stops at the next interval boundary, so the result is bit-identical
  /// to stepping every cycle.
  SimResult run(trace::TraceReader& reader, std::uint64_t interval_cycles);

  /// Single-cycle stepping for callers that drive the core externally
  /// (SampledCore measures instruction windows this way). Simulates exactly
  /// one cycle against `reader` (never an idle-cycle jump, so callers that
  /// sample live_counters() see every cycle) and returns false once the
  /// trace is exhausted and the machine has drained. Interval chopping is
  /// disabled in this mode; read progress through live_counters(). Do not
  /// mix with run().
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
    return {cycle_,
            iv_retired_,
            iv_fetched_,
            iv_dispatched_,
            issued(IqClass::kInt),
            issued(IqClass::kFp),
            issued(IqClass::kLs),
            issued(IqClass::kBr) + issued(IqClass::kCr)};
  }

  const CoreConfig& config() const { return cfg_; }

 private:
  static constexpr std::uint64_t kNoDep = ~0ULL;
  static constexpr std::uint64_t kNoLink = ~0ULL;
  static constexpr std::uint64_t kNever = ~0ULL;
  static constexpr std::uint32_t kNoSlot = ~0U;

  enum class IqClass : std::uint8_t { kInt, kFp, kLs, kBr, kCr };
  static constexpr int kNumIqClasses = 5;
  static IqClass iq_class_of(trace::OpClass op);

  // Per-op-class constants, looked up once per dispatch and issue.
  struct OpInfo {
    IqClass iq{};
    bool memory = false;
    bool unpipelined = false;  ///< divides hold their unit for the latency
    std::uint64_t latency = 0; ///< execution latency (memory: refined at issue)
  };

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
  // scheduled: armed in its issue queue, or parked in the ready-time wheel
  // until cycle ready_at_[slot].
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

  // One issue queue per class. Armed flights (every producer issued and
  // ready_at_ reached) are bits in a mask over ROB slots; the oldest-first
  // select walks the set bits in ring order from the ROB head — seq order —
  // and every flight it finds is ready. `nonempty` has bit w set while
  // armed[w] != 0, so select visits only words that hold a flight and skips
  // an empty class outright. Flights still waiting on a producer sit only on
  // their producers' wakeup lists, and flights whose producers have issued
  // but whose ready_at_ lies ahead wait in the ready-time wheel; both count
  // against the capacity.
  struct IssueQueue {
    std::vector<std::uint64_t> armed;  ///< one bit per ROB slot
    std::uint64_t nonempty = 0;        ///< one bit per word of `armed`
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

  // --- pipeline stages, called once per cycle in reverse order; each
  // returns whether it changed any state other than the clock ---
  bool do_retire();
  bool do_complete();
  bool do_issue();
  bool do_dispatch();
  bool do_fetch(trace::TraceReader& reader);

  /// One full pipeline cycle plus interval bookkeeping (shared by run and
  /// step). Returns false when no stage acted: the machine then stays
  /// frozen until next_event_cycle().
  bool cycle_once(trace::TraceReader& reader);
  /// After a cycle in which no stage acted: the earliest cycle >= cycle_ at
  /// which one can, or kNever when nothing is scheduled.
  std::uint64_t next_event_cycle() const;
  /// Advances the clock over idle cycles to `target` (> cycle_), closing an
  /// interval if it lands on the boundary, as stepping would have.
  void skip_to(std::uint64_t target);
  std::uint64_t rob_count() const { return next_seq_ - rob_base_seq_; }
  bool drained() const {
    return trace_exhausted_ && !pending_valid_ && fetch_count_ == 0 &&
           rob_count() == 0;
  }

  /// Marks the flight at `slot` issued with its complete_cycle already set,
  /// and pushes that cycle to every consumer on its wakeup list.
  void issue_flight(std::size_t slot);
  /// Marks the ready flight at `slot` as a select candidate in its issue
  /// queue.
  void arm(std::size_t slot, IqClass iq) {
    IssueQueue& q = issue_queues_[static_cast<std::size_t>(iq)];
    q.armed[slot >> 6] |= 1ULL << (slot & 63);
    q.nonempty |= 1ULL << (slot >> 6);
    armed_classes_ |= 1U << static_cast<unsigned>(iq);
  }
  /// The flight at `slot` has had its last producer issue: arms it now when
  /// ready_at_ has passed, else files it in the wheel bucket of ready_at_.
  void schedule(std::size_t slot);
  /// Arms every flight whose ready_at_ is the current cycle.
  void drain_wheel();

  int exec_latency(trace::OpClass op) const;
  const OpInfo& info(trace::OpClass op) const {
    return op_info_[static_cast<std::size_t>(op)];
  }
  std::uint64_t issued(IqClass iq) const {
    return iv_issued_[static_cast<std::size_t>(iq)];
  }
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
  // ready_at_ beside the ring: per slot, the max complete_cycle over the
  // flight's issued producers. It is exact: producers retired before a
  // consumer dispatches are skipped, and a producer that retires later
  // stays folded in. Neither changes a decision: a retired producer has
  // complete_cycle <= cycle_, and ready_at_ only decides whether a
  // scheduled flight is armed now or at cycle ready_at_. Every latency is
  // >= 1, so a producer that issues this cycle never readies a consumer in
  // the same cycle.
  std::vector<Flight> rob_;
  std::vector<std::uint64_t> ready_at_;

  // Ready-time wheel: bucket b chains (through wheel_next_, per ROB slot)
  // the scheduled flights whose ready_at_ is the one cycle in
  // [cycle_, cycle_ + wheel size) congruent to b. The wheel is a power of
  // two above the longest latency + 1, so no two pending cycles share a
  // bucket; wheel_busy_ has one bit per non-empty bucket.
  std::vector<std::uint32_t> wheel_head_;
  std::vector<std::uint32_t> wheel_next_;
  std::vector<std::uint64_t> wheel_busy_;
  std::uint64_t wheel_mask_ = 0;
  std::uint64_t rob_mask_ = 0;
  std::uint64_t rob_base_seq_ = 0;  ///< seq of ROB head (oldest in flight)
  std::uint64_t next_seq_ = 0;      ///< seq for the next dispatched instr

  // Rename: architectural register -> seq of last in-flight producer.
  std::vector<std::uint64_t> rename_table_;
  int int_regs_in_use_ = 0;
  int fp_regs_in_use_ = 0;
  int mem_queue_used_ = 0;

  std::array<IssueQueue, kNumIqClasses> issue_queues_;
  std::uint32_t armed_classes_ = 0;  ///< bit c: issue queue c has armed flights
  /// Functional units per issue-queue class (IqClass order); the branch
  /// and CR-logical units together make up the BXU.
  std::array<UnitPool, kNumIqClasses> pools_;
  std::array<OpInfo, trace::kNumOpClasses> op_info_{};

  // Fetch state. The fetch buffer is a power-of-two ring: fetch_count_
  // instructions from fetch_head_, oldest first. The lookahead instruction
  // (when pending_valid_) sits in the slot just past them: fetch reads one
  // only while the buffer has room, dispatch never moves that slot (head
  // and count shift together), and fetch claims it by bumping the count.
  std::vector<trace::Instruction> fetch_ring_;
  std::size_t fetch_mask_ = 0;
  std::size_t fetch_head_ = 0;
  std::size_t fetch_count_ = 0;
  std::uint64_t fetch_resume_cycle_ = 0;  ///< stall until this cycle
  std::uint64_t stalled_on_branch_seq_ = kNoDep;  ///< unresolved mispredict
  bool trace_exhausted_ = false;
  bool pending_valid_ = false;  ///< a lookahead instruction is waiting

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
  std::array<std::uint64_t, kNumIqClasses> iv_issued_{};  ///< per IqClass

  SimResult result_;
  std::uint64_t interval_cycles_ = 0;
};

}  // namespace ramp::sim
