#include "sim/ooo_core.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace ramp::sim {

using trace::Instruction;
using trace::OpClass;

namespace {
constexpr std::uint64_t kFetchLineBytes = 64;
// One `nonempty` summary word covers every word of an issue queue's armed
// mask, so the ROB ring is at most 64 × 64 slots.
constexpr std::size_t kMaxRobRing = 64 * 64;
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
      pools_{UnitPool(cfg.int_units), UnitPool(cfg.fp_units),
             UnitPool(cfg.ls_units), UnitPool(cfg.br_units),
             UnitPool(cfg.cr_units)} {
  RAMP_REQUIRE(cfg.rob_size > 0 && cfg.dispatch_group > 0 &&
                   cfg.fetch_width > 0 && cfg.fetch_buffer > 0,
               "pipeline widths must be positive");
  RAMP_REQUIRE(cfg.int_rename_budget() > 0 && cfg.fp_rename_budget() > 0,
               "physical register files must exceed architectural state");
  RAMP_REQUIRE(static_cast<std::size_t>(cfg.rob_size) <= kMaxRobRing,
               "ROB larger than 4096 entries");
  // At least one 64-bit word of armed bits per issue queue.
  std::size_t ring = 64;
  while (ring < static_cast<std::size_t>(cfg.rob_size)) ring <<= 1;
  rob_.resize(ring);
  ready_at_.resize(ring);
  rob_mask_ = ring - 1;
  for (auto& q : issue_queues_) q.armed.assign(ring / 64, 0);
  fetch_ring_.resize(std::bit_ceil(static_cast<std::size_t>(cfg.fetch_buffer)));
  fetch_mask_ = fetch_ring_.size() - 1;
  for (int op = 0; op < trace::kNumOpClasses; ++op) {
    const auto oc = static_cast<OpClass>(op);
    op_info_[static_cast<std::size_t>(op)] = {
        iq_class_of(oc), trace::is_memory(oc),
        oc == OpClass::kIntDiv || oc == OpClass::kFpDiv,
        static_cast<std::uint64_t>(exec_latency(oc))};
  }

  // A flight is scheduled at most one latency after the current cycle; the
  // store-forwarding bypass takes 2 cycles.
  const int max_latency = std::max(
      {cfg.lat_int_add, cfg.lat_int_mul, cfg.lat_int_div, cfg.lat_fp,
       cfg.lat_fp_div, cfg.lat_l1d, cfg.lat_l2, cfg.lat_memory, 2});
  RAMP_REQUIRE(std::min({cfg.lat_int_add, cfg.lat_int_mul, cfg.lat_int_div,
                         cfg.lat_fp, cfg.lat_fp_div, cfg.lat_l1d, cfg.lat_l2,
                         cfg.lat_memory}) >= 1,
               "latencies must be at least one cycle");
  const std::size_t wheel = std::max<std::size_t>(
      64, std::bit_ceil(static_cast<std::size_t>(max_latency) + 2));
  wheel_head_.assign(wheel, kNoSlot);
  wheel_next_.assign(ring, kNoSlot);
  wheel_busy_.assign(wheel / 64, 0);
  wheel_mask_ = wheel - 1;
}

void OooCore::schedule(std::size_t slot) {
  const std::uint64_t ready = ready_at_[slot];
  if (ready <= cycle_) {
    arm(slot, rob_[slot].iq);
    return;
  }
  RAMP_ASSERT(ready - cycle_ <= wheel_mask_);
  const std::size_t b = ready & wheel_mask_;
  wheel_next_[slot] = wheel_head_[b];
  wheel_head_[b] = static_cast<std::uint32_t>(slot);
  wheel_busy_[b >> 6] |= 1ULL << (b & 63);
}

void OooCore::drain_wheel() {
  const std::size_t b = cycle_ & wheel_mask_;
  std::uint32_t slot = wheel_head_[b];
  if (slot == kNoSlot) return;
  while (slot != kNoSlot) {
    arm(slot, rob_[slot].iq);
    slot = wheel_next_[slot];
  }
  wheel_head_[b] = kNoSlot;
  wheel_busy_[b >> 6] &= ~(1ULL << (b & 63));
}

void OooCore::issue_flight(std::size_t slot) {
  Flight& p = rob_[slot];
  p.issued = true;
  for (std::uint64_t link = p.waiters; link != kNoLink;) {
    const std::size_t c = (link >> 1) & rob_mask_;
    Flight& consumer = rob_[c];
    ready_at_[c] = std::max(ready_at_[c], p.complete_cycle);
    if (--consumer.pending == 0) schedule(c);
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

bool OooCore::do_retire() {
  const std::uint64_t budget =
      static_cast<std::uint64_t>(cfg_.retire_groups * cfg_.dispatch_group);
  const std::uint64_t first = rob_base_seq_;
  const std::uint64_t end = first + std::min(budget, rob_count());
  std::uint64_t seq = first;
  for (; seq < end; ++seq) {
    const Flight& head = rob_[seq & rob_mask_];
    if (!head.issued || head.complete_cycle > cycle_) break;
    int_regs_in_use_ -= head.produces_int;
    fp_regs_in_use_ -= head.produces_fp;
    mem_queue_used_ -= head.in_mem_queue;
    if (!inflight_stores_.empty() && inflight_stores_.front().first == seq) {
      inflight_stores_.pop_front();
    }
  }
  if (seq == first) return false;
  rob_base_seq_ = seq;
  iv_retired_ += seq - first;
  RAMP_ASSERT(int_regs_in_use_ >= 0 && fp_regs_in_use_ >= 0 &&
              mem_queue_used_ >= 0);
  return true;
}

bool OooCore::do_complete() {
  bool acted = false;
  // Release MSHR slots whose fills have arrived.
  while (!miss_fill_events_.empty() && miss_fill_events_.top() <= cycle_) {
    miss_fill_events_.pop();
    mem_->retire_miss();
    acted = true;
  }
  // Completion is otherwise implicit: issued instructions carry
  // complete_cycle. The remaining work is resuming fetch when a
  // mispredicted branch resolves.
  if (stalled_on_branch_seq_ != kNoDep) {
    // The stalling branch may still sit in the fetch buffer (not dispatched,
    // so not yet in the ROB); it cannot have resolved in that case.
    if (stalled_on_branch_seq_ >= next_seq_) return acted;
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
      acted = true;
    }
  }
  return acted;
}

bool OooCore::do_issue() {
  drain_wheel();
  // From here on the armed sets only shrink: every latency is >= 1, so a
  // flight this cycle's issues wake goes to the wheel, not to `armed`.
  bool issued_any = false;
  const std::size_t head = rob_base_seq_ & rob_mask_;
  const std::size_t head_word = head >> 6;
  const std::uint64_t from_head = ~0ULL << (head & 63);
  for (std::uint32_t classes = armed_classes_; classes != 0;
       classes &= classes - 1) {
    const auto c = static_cast<std::size_t>(std::countr_zero(classes));
    IssueQueue& queue = issue_queues_[c];
    UnitPool& pool = pools_[c];
    int slots = pool.available(cycle_);
    if (slots == 0) continue;

    // Issues the flight at `slot` (armed bit in word `w`) for this cycle.
    const auto issue = [&](std::size_t w, std::size_t slot) {
      queue.armed[w] &= ~(1ULL << (slot & 63));
      if (queue.armed[w] == 0) {
        queue.nonempty &= ~(1ULL << w);
        if (queue.nonempty == 0) armed_classes_ &= ~(1U << c);
      }
      --queue.size;
      issue_flight(slot);
      ++iv_issued_[c];
      --slots;
      issued_any = true;
    };
    // Oldest-first select over the armed bits `bits` of word `w`.
    const auto select = [&](std::size_t w, std::uint64_t bits) {
      while (bits != 0 && slots > 0) {
        const std::size_t slot = (w << 6) | static_cast<std::size_t>(
                                                std::countr_zero(bits));
        bits &= bits - 1;
        Flight& f = rob_[slot];
        RAMP_ASSERT(!f.issued && ready_at_[slot] <= cycle_);

        if (f.op == OpClass::kLoad || f.op == OpClass::kStore) {
          // Store-to-load forwarding: a load whose 8-byte word is produced by
          // an older in-flight store bypasses the cache entirely.
          if (cfg_.enable_store_forwarding && f.op == OpClass::kLoad) {
            const std::uint64_t seq =
                rob_base_seq_ + ((slot - head) & rob_mask_);
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
              issue(w, slot);
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
          const OpInfo& op = info(f.op);
          f.complete_cycle = cycle_ + op.latency;
          // Divides are unpipelined and occupy their unit for the full
          // latency; everything else accepts a new op next cycle.
          pool.claim(cycle_, op.unpipelined ? op.latency : 1);
        }
        issue(w, slot);
      }
    };

    // Walk the non-empty words in ring order from the ROB head: the head
    // word's bits at and above the head, the words after it, the words
    // before it, and last the head word's bits below the head. The summary
    // is read once; issuing only clears bits.
    const std::uint64_t nonempty = queue.nonempty;
    if ((nonempty >> head_word) & 1) {
      select(head_word, queue.armed[head_word] & from_head);
    }
    const std::uint64_t after =
        head_word == 63 ? 0 : nonempty & (~0ULL << (head_word + 1));
    const std::uint64_t before = nonempty & ((1ULL << head_word) - 1);
    for (std::uint64_t words = after; words != 0 && slots > 0;
         words &= words - 1) {
      const auto w = static_cast<std::size_t>(std::countr_zero(words));
      select(w, queue.armed[w]);
    }
    for (std::uint64_t words = before; words != 0 && slots > 0;
         words &= words - 1) {
      const auto w = static_cast<std::size_t>(std::countr_zero(words));
      select(w, queue.armed[w]);
    }
    if (slots > 0 && ((nonempty >> head_word) & 1)) {
      select(head_word, queue.armed[head_word] & ~from_head);
    }
  }
  return issued_any;
}

bool OooCore::do_dispatch() {
  const auto rob_size = static_cast<std::uint64_t>(cfg_.rob_size);
  const int int_budget = cfg_.int_rename_budget();
  const int fp_budget = cfg_.fp_rename_budget();
  int dispatched = 0;
  while (dispatched < cfg_.dispatch_group && fetch_count_ > 0) {
    const Instruction& ins = fetch_ring_[fetch_head_];
    const OpInfo& op = info(ins.op);
    auto& queue = issue_queues_[static_cast<std::size_t>(op.iq)];

    // Structural stalls: ROB, issue queue, rename budget, memory queue.
    if (rob_count() >= rob_size) break;
    if (queue.size >= cfg_.issue_queue_per_class) break;
    const bool produces = ins.dst != Instruction::kNoReg;
    const bool fp_dest = produces && ins.dst >= cfg_.arch_int_regs;
    if (produces && (fp_dest ? fp_regs_in_use_ >= fp_budget
                             : int_regs_in_use_ >= int_budget)) {
      break;
    }
    if (op.memory && mem_queue_used_ >= cfg_.mem_queue) break;

    const std::uint64_t seq = next_seq_++;
    const std::size_t slot = seq & rob_mask_;
    Flight& f = rob_[slot];
    f = Flight{};
    f.op = ins.op;
    f.iq = op.iq;
    f.mem_addr = ins.mem_addr;
    // Source operands, read before this instruction renames its own dest:
    // an issued producer contributes its complete_cycle now, an unissued one
    // gets this flight on its wakeup list, a retired one is skipped.
    std::uint64_t ready = 0;
    const auto link = [&](std::uint16_t reg, std::uint64_t operand) {
      if (reg == Instruction::kNoReg) return;
      RAMP_ASSERT(reg < rename_table_.size());
      const std::uint64_t dep = rename_table_[reg];
      if (dep == kNoDep || dep < rob_base_seq_) return;
      Flight& p = rob_[dep & rob_mask_];
      if (p.issued) {
        ready = std::max(ready, p.complete_cycle);
        return;
      }
      f.next_waiter[operand] = p.waiters;
      p.waiters = (seq << 1) | operand;
      ++f.pending;
    };
    link(ins.src1, 0);
    link(ins.src2, 1);
    ready_at_[slot] = ready;
    if (produces) {
      rename_table_[ins.dst] = seq;
      f.produces_int = !fp_dest;
      f.produces_fp = fp_dest;
      fp_regs_in_use_ += fp_dest;
      int_regs_in_use_ += !fp_dest;
    }
    if (op.memory) {
      f.in_mem_queue = true;
      ++mem_queue_used_;
      if (cfg_.enable_store_forwarding && ins.op == OpClass::kStore) {
        inflight_stores_.emplace_back(seq, ins.mem_addr & ~7ULL);
      }
    }

    ++queue.size;
    if (f.pending == 0) schedule(slot);
    fetch_head_ = (fetch_head_ + 1) & fetch_mask_;
    --fetch_count_;
    ++dispatched;
  }
  iv_dispatched_ += static_cast<std::uint64_t>(dispatched);
  return dispatched > 0;
}

bool OooCore::do_fetch(trace::TraceReader& reader) {
  if (cycle_ < fetch_resume_cycle_ || stalled_on_branch_seq_ != kNoDep) {
    return false;
  }
  if (fetch_count_ >= static_cast<std::size_t>(cfg_.fetch_buffer) ||
      (trace_exhausted_ && !pending_valid_)) {
    return false;
  }
  // From here on fetch pulls from the trace or touches the I-cache.

  int fetched = 0;
  std::uint64_t last_line = ~0ULL;
  while (fetched < cfg_.fetch_width &&
         fetch_count_ < static_cast<std::size_t>(cfg_.fetch_buffer)) {
    // The lookahead slot: just past the buffered instructions.
    const Instruction& ins = fetch_ring_[(fetch_head_ + fetch_count_) & fetch_mask_];
    if (!pending_valid_) {
      if (trace_exhausted_ ||
          !reader.next(fetch_ring_[(fetch_head_ + fetch_count_) & fetch_mask_])) {
        trace_exhausted_ = true;
        return true;
      }
      pending_valid_ = true;
    }

    // I-cache lookup once per new line touched by this fetch group.
    const std::uint64_t line = ins.pc / kFetchLineBytes;
    if (line != last_line) {
      const int stall = mem_->fetch_access(ins.pc);
      last_line = line;
      if (stall > 0) {
        // Miss: the group ends and fetch sleeps for the fill latency.
        fetch_resume_cycle_ = cycle_ + static_cast<std::uint64_t>(stall);
        return true;
      }
    }

    pending_valid_ = false;
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
        return true;
      }
      if (ins.branch_taken) break;  // taken branches end the fetch group
    }
  }
  return true;
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
  // BXU covers branch + CR-logical traffic.
  const std::uint64_t bxu_issued = issued(IqClass::kBr) + issued(IqClass::kCr);
  iv.activity[idx(StructureId::kIsu)] =
      rate(issued(IqClass::kInt) + issued(IqClass::kFp) +
               issued(IqClass::kLs) + bxu_issued,
           total_units);
  iv.activity[idx(StructureId::kFxu)] = rate(issued(IqClass::kInt), cfg_.int_units);
  iv.activity[idx(StructureId::kFpu)] = rate(issued(IqClass::kFp), cfg_.fp_units);
  iv.activity[idx(StructureId::kLsu)] = rate(issued(IqClass::kLs), cfg_.ls_units);
  iv.activity[idx(StructureId::kBxu)] =
      rate(bxu_issued, cfg_.br_units + cfg_.cr_units);

  result_.intervals.push_back(iv);

  iv_start_cycle_ = cycle_;
  iv_fetched_ = iv_dispatched_ = iv_retired_ = 0;
  iv_issued_.fill(0);
}

bool OooCore::cycle_once(trace::TraceReader& reader) {
  bool acted = do_retire();
  acted |= do_complete();
  acted |= do_issue();
  acted |= do_dispatch();
  acted |= do_fetch(reader);

  ++cycle_;

  // interval_cycles_ is 0 in step-driven mode: no chopping, the iv_*
  // counters keep whole-run totals for live_counters().
  if (interval_cycles_ > 0 && cycle_ - iv_start_cycle_ >= interval_cycles_) {
    result_.totals.instructions += iv_retired_;
    finish_interval();
  }
  return acted;
}

std::uint64_t OooCore::next_event_cycle() const {
  // Nothing acted last cycle, so every stage is blocked on one of these
  // clocks (or on another stage acting first). Extra candidates only shorten
  // a jump; a missing one would skip a cycle that acts.
  std::uint64_t next = kNever;
  const auto consider = [&](std::uint64_t t) {
    if (t >= cycle_ && t < next) next = t;
  };
  if (rob_count() > 0) {
    const Flight& head = rob_[rob_base_seq_ & rob_mask_];
    if (head.issued) consider(head.complete_cycle);  // retire
  }
  if (!miss_fill_events_.empty()) consider(miss_fill_events_.top());
  consider(fetch_resume_cycle_);
  if (stalled_on_branch_seq_ != kNoDep &&
      stalled_on_branch_seq_ >= rob_base_seq_ &&
      stalled_on_branch_seq_ < next_seq_) {
    const Flight& br = rob_[stalled_on_branch_seq_ & rob_mask_];
    if (br.issued) consider(br.complete_cycle);
  }
  // A class with armed flights waits for a unit (or, for loads, an MSHR).
  for (std::uint32_t classes = armed_classes_; classes != 0;
       classes &= classes - 1) {
    const auto c = static_cast<std::size_t>(std::countr_zero(classes));
    for (const std::uint64_t t : pools_[c].free_at) {
      consider(t);
    }
  }
  // The first non-empty wheel bucket at or after cycle_, in ring order.
  const std::size_t b0 = cycle_ & wheel_mask_;
  const std::size_t nwords = wheel_busy_.size();
  for (std::size_t i = 0; i <= nwords; ++i) {
    const std::size_t w = ((b0 >> 6) + i) % nwords;
    std::uint64_t bits = wheel_busy_[w];
    if (i == 0) bits &= ~0ULL << (b0 & 63);
    if (bits == 0) continue;
    const std::size_t b = (w << 6) | static_cast<std::size_t>(
                                         std::countr_zero(bits));
    consider(cycle_ + ((b - b0) & wheel_mask_));
    break;
  }
  return next;
}

void OooCore::skip_to(std::uint64_t target) {
  // Idle cycles only advance the clock; an interval boundary in between is
  // where stepping would close the interval, so stop there.
  cycle_ = std::min(target, iv_start_cycle_ + interval_cycles_);
  if (cycle_ - iv_start_cycle_ >= interval_cycles_) {
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
    const bool acted = cycle_once(reader);
    if (drained()) break;
    if (!acted) {
      const std::uint64_t next = next_event_cycle();
      if (next != kNever && next > cycle_) skip_to(next);
    }

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
