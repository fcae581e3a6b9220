#include "sim/ooo_core.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace ramp::sim {

using trace::Instruction;
using trace::OpClass;

namespace {
constexpr std::uint64_t kFetchLineBytes = 64;
}

int OooCore::UnitPool::available(std::uint64_t now) const {
  int n = 0;
  for (std::uint64_t t : free_at) {
    if (t <= now) ++n;
  }
  return n;
}

void OooCore::UnitPool::claim(std::uint64_t now, std::uint64_t occupy) {
  for (auto& t : free_at) {
    if (t <= now) {
      t = now + occupy;
      return;
    }
  }
  throw InternalError("claimed a unit with none available");
}

OooCore::IqClass OooCore::iq_class_of(OpClass op) {
  switch (op) {
    case OpClass::kIntAlu:
    case OpClass::kIntMul:
    case OpClass::kIntDiv: return IqClass::kInt;
    case OpClass::kFpAlu:
    case OpClass::kFpDiv: return IqClass::kFp;
    case OpClass::kLoad:
    case OpClass::kStore: return IqClass::kLs;
    case OpClass::kBranch: return IqClass::kBr;
    case OpClass::kLogicalCr: return IqClass::kCr;
  }
  throw InvalidArgument("unknown op class");
}

OooCore::OooCore(const CoreConfig& cfg) : OooCore(cfg, nullptr, nullptr) {}

OooCore::OooCore(const CoreConfig& cfg, MemoryHierarchy* mem,
                 BranchPredictor* predictor)
    : cfg_(cfg),
      owned_predictor_(predictor
                           ? nullptr
                           : std::make_unique<BranchPredictor>(cfg.predictor)),
      owned_mem_(mem ? nullptr : std::make_unique<MemoryHierarchy>(cfg)),
      predictor_(predictor ? predictor : owned_predictor_.get()),
      mem_(mem ? mem : owned_mem_.get()),
      rename_table_(static_cast<std::size_t>(cfg.arch_int_regs + cfg.arch_fp_regs),
                    kNoDep),
      int_pool_(cfg.int_units),
      fp_pool_(cfg.fp_units),
      ls_pool_(cfg.ls_units),
      br_pool_(cfg.br_units),
      cr_pool_(cfg.cr_units) {
  RAMP_REQUIRE(cfg.rob_size > 0 && cfg.dispatch_group > 0 &&
                   cfg.fetch_width > 0 && cfg.fetch_buffer > 0,
               "pipeline widths must be positive");
  RAMP_REQUIRE(cfg.int_rename_budget() > 0 && cfg.fp_rename_budget() > 0,
               "physical register files must exceed architectural state");
  // At least one 64-bit word of armed bits per issue queue.
  std::size_t ring = 64;
  while (ring < static_cast<std::size_t>(cfg.rob_size)) ring <<= 1;
  rob_.resize(ring);
  ready_at_.resize(ring);
  rob_mask_ = ring - 1;
  for (auto& q : issue_queues_) q.armed.assign(ring / 64, 0);
  fetch_ring_.resize(std::bit_ceil(static_cast<std::size_t>(cfg.fetch_buffer)));
}

void OooCore::issue_flight(std::size_t slot) {
  Flight& p = rob_[slot];
  p.issued = true;
  for (std::uint64_t link = p.waiters; link != kNoLink;) {
    const std::size_t c = (link >> 1) & rob_mask_;
    Flight& consumer = rob_[c];
    ready_at_[c] = std::max(ready_at_[c], p.complete_cycle);
    if (--consumer.pending == 0) arm(c, consumer.iq);
    link = consumer.next_waiter[link & 1];
  }
  p.waiters = kNoLink;
}

int OooCore::exec_latency(OpClass op) const {
  switch (op) {
    case OpClass::kIntAlu: return cfg_.lat_int_add;
    case OpClass::kIntMul: return cfg_.lat_int_mul;
    case OpClass::kIntDiv: return cfg_.lat_int_div;
    case OpClass::kFpAlu: return cfg_.lat_fp;
    case OpClass::kFpDiv: return cfg_.lat_fp_div;
    case OpClass::kLogicalCr: return 1;
    case OpClass::kBranch: return 1;
    case OpClass::kLoad:
    case OpClass::kStore: return cfg_.lat_l1d;  // refined at issue
  }
  throw InvalidArgument("unknown op class");
}

void OooCore::do_retire() {
  int retired = 0;
  const int budget = cfg_.retire_groups * cfg_.dispatch_group;
  while (retired < budget && rob_count() > 0) {
    const Flight& head = rob_[rob_base_seq_ & rob_mask_];
    if (!head.issued || head.complete_cycle > cycle_) break;
    if (head.produces_int) --int_regs_in_use_;
    if (head.produces_fp) --fp_regs_in_use_;
    if (head.in_mem_queue) --mem_queue_used_;
    if (!inflight_stores_.empty() &&
        inflight_stores_.front().first == rob_base_seq_) {
      inflight_stores_.pop_front();
    }
    ++rob_base_seq_;
    ++retired;
    ++iv_retired_;
  }
  RAMP_ASSERT(int_regs_in_use_ >= 0 && fp_regs_in_use_ >= 0 &&
              mem_queue_used_ >= 0);
}

void OooCore::do_complete() {
  // Release MSHR slots whose fills have arrived.
  while (!miss_fill_events_.empty() && miss_fill_events_.top() <= cycle_) {
    miss_fill_events_.pop();
    mem_->retire_miss();
  }
  // Completion is otherwise implicit: issued instructions carry
  // complete_cycle. The remaining work is resuming fetch when a
  // mispredicted branch resolves.
  if (stalled_on_branch_seq_ != kNoDep) {
    // The stalling branch may still sit in the fetch buffer (not dispatched,
    // so not yet in the ROB); it cannot have resolved in that case.
    if (stalled_on_branch_seq_ >= next_seq_) return;
    const Flight* br = stalled_on_branch_seq_ < rob_base_seq_
                           ? nullptr  // already retired
                           : &rob_[stalled_on_branch_seq_ & rob_mask_];
    const bool resolved =
        br == nullptr || (br->issued && br->complete_cycle <= cycle_);
    if (resolved) {
      const std::uint64_t resolve_cycle =
          br == nullptr ? cycle_ : br->complete_cycle;
      fetch_resume_cycle_ =
          resolve_cycle + static_cast<std::uint64_t>(cfg_.mispredict_penalty);
      stalled_on_branch_seq_ = kNoDep;
    }
  }
}

void OooCore::do_issue() {
  struct PoolRef {
    UnitPool* pool;
    std::uint64_t* counter;
  };
  const std::array<PoolRef, kNumIqClasses> pools = {{
      {&int_pool_, &iv_int_issued_},
      {&fp_pool_, &iv_fp_issued_},
      {&ls_pool_, &iv_ls_issued_},
      {&br_pool_, &iv_br_issued_},
      {&cr_pool_, &iv_br_issued_},  // BXU covers branch + CR-logical traffic
  }};

  for (int c = 0; c < kNumIqClasses; ++c) {
    IssueQueue& queue = issue_queues_[static_cast<std::size_t>(c)];
    UnitPool& pool = *pools[static_cast<std::size_t>(c)].pool;
    int slots = pool.available(cycle_);
    if (slots == 0 || queue.size == 0) continue;

    // Oldest-first select: walk the armed bits in ring order from the ROB
    // head, word by word, ending with the head word's bits below the head.
    // Issuing can arm younger consumers; they are not ready this cycle.
    const std::size_t words = queue.armed.size();
    const std::size_t head = rob_base_seq_ & rob_mask_;
    const std::uint64_t from_head = ~0ULL << (head & 63);
    for (std::size_t pass = 0; pass <= words && slots > 0; ++pass) {
      const std::size_t w = ((head >> 6) + pass) & (words - 1);
      std::uint64_t bits = queue.armed[w];
      if (pass == 0) bits &= from_head;
      if (pass == words) bits &= ~from_head;
      while (bits != 0 && slots > 0) {
        const std::size_t slot = (w << 6) | static_cast<std::size_t>(
                                                std::countr_zero(bits));
        bits &= bits - 1;
        if (ready_at_[slot] > cycle_) continue;
        const std::uint64_t seq =
            rob_base_seq_ + ((slot - head) & rob_mask_);
        Flight& f = rob_[slot];
        RAMP_ASSERT(!f.issued);

        if (f.op == OpClass::kLoad || f.op == OpClass::kStore) {
          // Store-to-load forwarding: a load whose 8-byte word is produced by
          // an older in-flight store bypasses the cache entirely.
          if (cfg_.enable_store_forwarding && f.op == OpClass::kLoad) {
            const std::uint64_t word = f.mem_addr & ~7ULL;
            bool forwarded = false;
            for (auto it = inflight_stores_.rbegin();
                 it != inflight_stores_.rend(); ++it) {
              if (it->first >= seq) continue;  // younger store: no forward
              if (it->second == word) {
                forwarded = true;
                break;
              }
            }
            if (forwarded) {
              f.complete_cycle = cycle_ + 2;  // bypass latency
              pool.claim(cycle_, 1);
              queue.armed[w] &= ~(1ULL << (slot & 63));
              --queue.size;
              issue_flight(slot);
              ++iv_ls_issued_;
              --slots;
              continue;
            }
          }
          // Loads that will miss need an MSHR slot; since hit/miss is known
          // only at access time, conservatively require a free slot for loads
          // whenever the cap is reached.
          if (f.op == OpClass::kLoad && mem_->miss_ports_full()) continue;
          const int lat =
              mem_->data_access(f.mem_addr, f.op == OpClass::kStore);
          if (f.op == OpClass::kLoad) {
            f.complete_cycle = cycle_ + static_cast<std::uint64_t>(lat);
            if (lat > cfg_.lat_l1d) {
              mem_->add_outstanding_miss();
              miss_fill_events_.push(f.complete_cycle);
            }
          } else {
            // Stores complete through the store queue one cycle after issue;
            // the write drains post-retirement and is not modeled for timing.
            f.complete_cycle = cycle_ + 1;
          }
          pool.claim(cycle_, 1);
        } else {
          const int lat = exec_latency(f.op);
          f.complete_cycle = cycle_ + static_cast<std::uint64_t>(lat);
          // Divides are unpipelined and occupy their unit for the full
          // latency; everything else accepts a new op next cycle.
          const bool unpipelined =
              f.op == OpClass::kIntDiv || f.op == OpClass::kFpDiv;
          pool.claim(cycle_, unpipelined ? static_cast<std::uint64_t>(lat) : 1);
        }

        queue.armed[w] &= ~(1ULL << (slot & 63));
        --queue.size;
        issue_flight(slot);
        ++*pools[static_cast<std::size_t>(c)].counter;
        --slots;
      }
    }
  }
}

void OooCore::do_dispatch() {
  int dispatched = 0;
  const std::size_t fetch_mask = fetch_ring_.size() - 1;
  while (dispatched < cfg_.dispatch_group && fetch_count_ > 0) {
    const Instruction& ins = fetch_ring_[fetch_head_];
    const IqClass iqc = iq_class_of(ins.op);
    auto& queue = issue_queues_[static_cast<std::size_t>(iqc)];

    // Structural stalls: ROB, issue queue, rename budget, memory queue.
    if (rob_count() >= static_cast<std::uint64_t>(cfg_.rob_size)) break;
    if (queue.size >= cfg_.issue_queue_per_class) break;
    const bool produces = ins.dst != Instruction::kNoReg;
    const bool fp_dest = produces && ins.dst >= cfg_.arch_int_regs;
    if (produces && !fp_dest && int_regs_in_use_ >= cfg_.int_rename_budget()) break;
    if (produces && fp_dest && fp_regs_in_use_ >= cfg_.fp_rename_budget()) break;
    const bool is_mem = trace::is_memory(ins.op);
    if (is_mem && mem_queue_used_ >= cfg_.mem_queue) break;

    const std::uint64_t seq = next_seq_++;
    const std::size_t slot = seq & rob_mask_;
    Flight& f = rob_[slot];
    f = Flight{};
    f.op = ins.op;
    f.iq = iqc;
    f.mem_addr = ins.mem_addr;
    ready_at_[slot] = 0;
    // Source operands, read before this instruction renames its own dest:
    // an issued producer contributes its complete_cycle now, an unissued one
    // gets this flight on its wakeup list, a retired one is skipped.
    auto link = [&](std::uint16_t reg, std::uint64_t operand) {
      if (reg == Instruction::kNoReg) return;
      RAMP_ASSERT(reg < rename_table_.size());
      const std::uint64_t dep = rename_table_[reg];
      if (dep == kNoDep || dep < rob_base_seq_) return;
      Flight& p = rob_[dep & rob_mask_];
      if (p.issued) {
        ready_at_[slot] = std::max(ready_at_[slot], p.complete_cycle);
        return;
      }
      f.next_waiter[operand] = p.waiters;
      p.waiters = (seq << 1) | operand;
      ++f.pending;
    };
    link(ins.src1, 0);
    link(ins.src2, 1);
    if (produces) {
      rename_table_[ins.dst] = seq;
      f.produces_int = !fp_dest;
      f.produces_fp = fp_dest;
      if (fp_dest) {
        ++fp_regs_in_use_;
      } else {
        ++int_regs_in_use_;
      }
    }
    if (is_mem) {
      f.in_mem_queue = true;
      ++mem_queue_used_;
      if (cfg_.enable_store_forwarding && ins.op == OpClass::kStore) {
        inflight_stores_.emplace_back(seq, ins.mem_addr & ~7ULL);
      }
    }

    ++queue.size;
    if (f.pending == 0) arm(slot, iqc);
    fetch_head_ = (fetch_head_ + 1) & fetch_mask;
    --fetch_count_;
    ++dispatched;
    ++iv_dispatched_;
  }
}

void OooCore::do_fetch(trace::TraceReader& reader) {
  if (cycle_ < fetch_resume_cycle_ || stalled_on_branch_seq_ != kNoDep) return;

  int fetched = 0;
  std::uint64_t last_line = ~0ULL;
  while (fetched < cfg_.fetch_width &&
         fetch_count_ < static_cast<std::size_t>(cfg_.fetch_buffer)) {
    if (!pending_valid_) {
      if (trace_exhausted_ || !reader.next(pending_)) {
        trace_exhausted_ = true;
        return;
      }
      pending_valid_ = true;
    }

    // I-cache lookup once per new line touched by this fetch group.
    const std::uint64_t line = pending_.pc / kFetchLineBytes;
    if (line != last_line) {
      const int stall = mem_->fetch_access(pending_.pc);
      last_line = line;
      if (stall > 0) {
        // Miss: the group ends and fetch sleeps for the fill latency.
        fetch_resume_cycle_ = cycle_ + static_cast<std::uint64_t>(stall);
        return;
      }
    }

    const Instruction ins = pending_;
    pending_valid_ = false;
    fetch_ring_[(fetch_head_ + fetch_count_) & (fetch_ring_.size() - 1)] = ins;
    ++fetch_count_;
    ++fetched;
    ++iv_fetched_;

    if (ins.op == OpClass::kBranch) {
      const bool mispredict =
          predictor_->record_outcome(ins.pc, ins.branch_taken, ins.branch_target);
      if (mispredict) {
        // The redirect happens when this branch resolves; remember its
        // (future) sequence number. It is the next instruction to dispatch
        // after everything already in the buffer.
        stalled_on_branch_seq_ = next_seq_ + fetch_count_ - 1;
        return;
      }
      if (ins.branch_taken) break;  // taken branches end the fetch group
    }
  }
}

void OooCore::finish_interval() {
  const std::uint64_t cycles = cycle_ - iv_start_cycle_;
  if (cycles == 0) return;
  IntervalStats iv;
  iv.cycles = cycles;
  iv.instructions = iv_retired_;
  const auto dc = static_cast<double>(cycles);

  auto rate = [dc](std::uint64_t events, int width) {
    const double r = static_cast<double>(events) / (dc * width);
    return std::clamp(r, 0.0, 1.0);
  };
  iv.activity[idx(StructureId::kIfu)] = rate(iv_fetched_, cfg_.fetch_width);
  iv.activity[idx(StructureId::kIdu)] = rate(iv_dispatched_, cfg_.dispatch_group);
  // ISU activity: wakeup/select and completion events scale with issue
  // throughput across the whole unit pool.
  const int total_units = cfg_.int_units + cfg_.fp_units + cfg_.ls_units +
                          cfg_.br_units + cfg_.cr_units;
  iv.activity[idx(StructureId::kIsu)] = rate(
      iv_int_issued_ + iv_fp_issued_ + iv_ls_issued_ + iv_br_issued_, total_units);
  iv.activity[idx(StructureId::kFxu)] = rate(iv_int_issued_, cfg_.int_units);
  iv.activity[idx(StructureId::kFpu)] = rate(iv_fp_issued_, cfg_.fp_units);
  iv.activity[idx(StructureId::kLsu)] = rate(iv_ls_issued_, cfg_.ls_units);
  iv.activity[idx(StructureId::kBxu)] =
      rate(iv_br_issued_, cfg_.br_units + cfg_.cr_units);

  result_.intervals.push_back(iv);

  iv_start_cycle_ = cycle_;
  iv_fetched_ = iv_dispatched_ = iv_retired_ = 0;
  iv_int_issued_ = iv_fp_issued_ = iv_ls_issued_ = iv_br_issued_ = 0;
}

void OooCore::cycle_once(trace::TraceReader& reader) {
  do_retire();
  do_complete();
  do_issue();
  do_dispatch();
  do_fetch(reader);

  ++cycle_;

  // interval_cycles_ is 0 in step-driven mode: no chopping, the iv_*
  // counters keep whole-run totals for live_counters().
  if (interval_cycles_ > 0 && cycle_ - iv_start_cycle_ >= interval_cycles_) {
    result_.totals.instructions += iv_retired_;
    finish_interval();
  }
}

bool OooCore::step(trace::TraceReader& reader) {
  cycle_once(reader);
  return !drained();
}

SimResult OooCore::run(trace::TraceReader& reader,
                       std::uint64_t interval_cycles) {
  RAMP_REQUIRE(interval_cycles > 0, "interval length must be positive");
  interval_cycles_ = interval_cycles;
  result_ = SimResult{};

  std::uint64_t last_progress_cycle = 0;
  std::uint64_t last_rob_base = rob_base_seq_;
  while (true) {
    cycle_once(reader);
    if (drained()) break;

    // Forward-progress guard: with finite latencies the ROB head must retire
    // within a bounded number of cycles; a longer stall is a model deadlock.
    if (rob_base_seq_ != last_rob_base || rob_count() == 0) {
      last_rob_base = rob_base_seq_;
      last_progress_cycle = cycle_;
    }
    RAMP_ASSERT(cycle_ - last_progress_cycle < 100'000);
  }
  result_.totals.instructions += iv_retired_;
  finish_interval();

  // Whole-run aggregates.
  result_.totals.cycles = cycle_;
  result_.totals.l1d_accesses = mem_->l1d().accesses();
  result_.totals.l1d_misses = mem_->l1d().misses();
  result_.totals.l2_accesses = mem_->l2().accesses();
  result_.totals.l2_misses = mem_->l2().misses();
  result_.totals.l1i_misses = mem_->l1i().misses();
  result_.totals.branches = predictor_->lookups();
  result_.totals.branch_mispredicts = predictor_->mispredicts();

  // Cycle-weighted average activity.
  std::array<double, kNumStructures> weighted{};
  std::uint64_t total_cycles = 0;
  for (const auto& iv : result_.intervals) {
    for (int s = 0; s < kNumStructures; ++s)
      weighted[static_cast<std::size_t>(s)] +=
          iv.activity[static_cast<std::size_t>(s)] * static_cast<double>(iv.cycles);
    total_cycles += iv.cycles;
  }
  if (total_cycles > 0) {
    for (int s = 0; s < kNumStructures; ++s)
      result_.totals.avg_activity[static_cast<std::size_t>(s)] =
          weighted[static_cast<std::size_t>(s)] / static_cast<double>(total_cycles);
  }
  return std::move(result_);
}

}  // namespace ramp::sim
