#include "core/processor.hh"

#include <algorithm>
#include <cstdlib>

#include "common/debug.hh"
#include "common/intmath.hh"
#include "common/logging.hh"
#include "core/sim_state.hh"

namespace srl
{
namespace core
{

namespace
{

/** How far fetch may run ahead of allocate, in uops. */
constexpr std::size_t kFetchAhead = 32;

} // namespace

Processor::Processor(const ProcessorConfig &config, isa::UopStream &stream)
    : config_(config), stream_(stream), ckpts_(config.checkpoints),
      sdb_(config.sdb),
      store_ids_(config.model == StqModel::kSrl
                     ? config.srl.srl.capacity
                     : 1u << 20)
{
    snoop_rng_ = Random(config.snoop_seed);
    owned_mem_ = std::make_unique<memsys::MainMemory>();
    mem_ = owned_mem_.get();
    owned_hier_ =
        std::make_unique<memsys::Hierarchy>(config_.memory, *mem_);
    hier_ = owned_hier_.get();
    owned_bpred_ = std::make_unique<predictor::HybridPredictor>();
    bpred_ = owned_bpred_.get();
    owned_store_sets_ =
        std::make_unique<predictor::StoreSets>(config.store_sets);
    store_sets_ = owned_store_sets_.get();
    initPipeline();
}

Processor::Processor(const ProcessorConfig &config, isa::UopStream &stream,
                     SimState &state, SeqNum start_seq)
    : config_(config), stream_(stream), ckpts_(config.checkpoints),
      sdb_(config.sdb),
      store_ids_(config.model == StqModel::kSrl
                     ? config.srl.srl.capacity
                     : 1u << 20)
{
    mem_ = &state.mem;
    hier_ = &state.hier;
    bpred_ = &state.bpred;
    store_sets_ = &state.store_sets;
    // MSHRs are cycle-keyed against the previous segment's clock (all
    // logically expired at a drained boundary) and a previous
    // segment's probe bus must not leak in.
    hier_->resetTiming();
    snoop_rng_.setRawState(state.snoop_rng_state);
    snoop_payload_ = state.snoop_payload;
    window_base_ = start_seq;
    initPipeline();
}

void
Processor::initPipeline()
{
    spec_mem_ = std::make_unique<SpeculativeMemory>(*mem_);
    stq_ = std::make_unique<lsq::StoreQueue>(config_.stq);

    switch (config_.model) {
      case StqModel::kMonolithic:
        lq_ = std::make_unique<lsq::LoadQueue>(config_.load_queue);
        break;
      case StqModel::kHierarchical:
        lq_ = std::make_unique<lsq::LoadQueue>(config_.load_queue);
        l2_stq_ = std::make_unique<lsq::StoreQueue>(config_.l2_stq);
        mtb_ = std::make_unique<lsq::CountingBloom>(
            config_.mtb_entries, 8, lsq::HashScheme::kLowerAddressBits);
        break;
      case StqModel::kSrl:
        srl_ = std::make_unique<lsq::StoreRedoLog>(config_.srl.srl);
        if (config_.srl.use_lcf)
            lcf_ = std::make_unique<lsq::LooseCheckFilter>(
                config_.srl.lcf);
        if (config_.srl.use_fwd_cache) {
            fc_ = std::make_unique<lsq::ForwardingCache>(
                config_.srl.fwd_cache);
        } else {
            // Temporary updates go "in the data cache": model its
            // capacity/associativity with an FC sized like the L1.
            lsq::FwdCacheParams dparams;
            dparams.entries = static_cast<unsigned>(
                config_.memory.l1.size_bytes / 8);
            dparams.assoc = config_.memory.l1.assoc;
            fc_ = std::make_unique<lsq::ForwardingCache>(dparams);
        }
        load_buffer_ = std::make_unique<lsq::SecondaryLoadBuffer>(
            config_.load_buffer);
        break;
    }
}

Processor::~Processor() = default;

void
Processor::exportState(SimState &state) const
{
    state.snoop_rng_state = snoop_rng_.rawState();
    state.snoop_payload = snoop_payload_;
}

// --------------------------------------------------------------------
// Window access
// --------------------------------------------------------------------

DynUop *
Processor::find(SeqNum seq)
{
    if (seq < window_base_ || seq >= window_base_ + window_.size())
        return nullptr;
    return &window_[seq - window_base_];
}

const DynUop *
Processor::find(SeqNum seq) const
{
    return const_cast<Processor *>(this)->find(seq);
}

bool
Processor::inWindow(SeqNum seq) const
{
    return find(seq) != nullptr;
}

bool
Processor::producerReady(SeqNum prod) const
{
    if (prod == kInvalidSeqNum)
        return true;
    const DynUop *p = find(prod);
    if (!p)
        return true; // committed long ago
    // A producer that has not been allocated yet (replay) is not ready.
    return p->completed() && p->complete_cycle <= now_;
}

bool
Processor::producerPoisoned(SeqNum prod) const
{
    if (prod == kInvalidSeqNum)
        return false;
    const DynUop *p = find(prod);
    return p && p->poisoned;
}

bool
Processor::sourcesReady(const DynUop &d) const
{
    return producerReady(d.src1_prod) && producerReady(d.src2_prod) &&
           producerReady(d.memdep_prod);
}

bool
Processor::sourcesPoisoned(const DynUop &d) const
{
    return producerPoisoned(d.src1_prod) ||
           producerPoisoned(d.src2_prod) ||
           producerPoisoned(d.memdep_prod);
}

/**
 * One-pass fusion of sourcesPoisoned/sourcesReady for the issue loop:
 * each producer is looked up once instead of once per predicate.
 * Poison dominates (the legacy scan checked it first), and any poisoned
 * producer sends the consumer to the slice regardless of the others, so
 * the early return preserves the two-predicate outcome exactly.
 */
Processor::SourceStatus
Processor::sourceStatus(const DynUop &d) const
{
    bool wait = false;
    const SeqNum prods[3] = {d.src1_prod, d.src2_prod, d.memdep_prod};
    for (const SeqNum prod : prods) {
        if (prod == kInvalidSeqNum)
            continue;
        const DynUop *p = find(prod);
        if (!p)
            continue; // committed long ago
        if (p->poisoned)
            return SourceStatus::kPoisoned;
        if (!(p->completed() && p->complete_cycle <= now_))
            wait = true;
    }
    return wait ? SourceStatus::kWait : SourceStatus::kReady;
}

SchedClass
Processor::schedClassOf(const isa::Uop &u)
{
    if (isa::isMemory(u.cls))
        return SchedClass::kMem;
    if (isa::isFloat(u.cls))
        return SchedClass::kFp;
    return SchedClass::kInt;
}

void
Processor::schedulerPush(DynUop &d)
{
    const auto cls = static_cast<unsigned>(schedClassOf(d.uop));
    d.sched_ticket = next_ticket_++;
    d.sched_sleep = false;
    d.src_resolved = false;
    ready_[cls].insert(d.sched_ticket, d.uop.seq);
    ++sched_count_[cls];
#ifdef SRLSIM_ISSUE_SCAN_CHECK
    scan_list_[cls].push_back(d.uop.seq);
#endif
}

void
Processor::schedulerRemove(DynUop &d)
{
    const auto cls = static_cast<unsigned>(schedClassOf(d.uop));
    ready_[cls].erase(d.sched_ticket); // no-op when asleep
    panic_if(sched_count_[cls] == 0, "scheduler occupancy underflow");
    --sched_count_[cls];
#ifdef SRLSIM_ISSUE_SCAN_CHECK
    auto &list = scan_list_[cls];
    const auto it = std::find(list.begin(), list.end(), d.uop.seq);
    if (it != list.end())
        list.erase(it);
#endif
}

void
Processor::releaseSchedulerSlot(DynUop &d)
{
    schedulerRemove(d);
}

/**
 * Rebuild the ready queues and occupancy counts from the window (after
 * a rollback rewrote scheduler membership wholesale). Every surviving
 * scheduler entry is awake at this point — resetWakeState() ran — and
 * tickets are stable across squash, so inserting survivors by ticket
 * reproduces exactly the relative order the legacy lists kept through
 * their remove_if.
 */
void
Processor::rebuildSchedulerQueues()
{
    for (unsigned c = 0; c < 3; ++c) {
        ready_[c].clear();
        sched_count_[c] = 0;
    }
    for (std::size_t i = 0; i < window_.size(); ++i) {
        DynUop &d = window_[i];
        if (d.state != UopState::kInScheduler)
            continue;
        const auto cls = static_cast<unsigned>(schedClassOf(d.uop));
        ready_[cls].insert(d.sched_ticket, d.uop.seq);
        ++sched_count_[cls];
    }
}

void
Processor::releaseRegister(DynUop &d)
{
    if (!d.uop.hasDst())
        return;
    if (isa::isFloat(d.uop.cls) ||
        (d.uop.isLoad() && d.uop.dst >= isa::kNumArchRegs / 2)) {
        if (rf_used_fp_ > 0)
            --rf_used_fp_;
    } else {
        if (rf_used_int_ > 0)
            --rf_used_int_;
    }
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

void
Processor::fetch()
{
    if (now_ < fetch_resume_ || fetch_block_branch_ != kInvalidSeqNum)
        return;

    for (unsigned i = 0; i < config_.alloc_width; ++i) {
        // Bound how far fetch runs ahead of allocate.
        const std::size_t pending = window_.size() - alloc_index_;
        if (pending >= kFetchAhead || stream_done_)
            break;

        isa::Uop u;
        if (!stream_.next(u)) {
            stream_done_ = true;
            tick_progress_ = true;
            break;
        }
        panic_if(u.seq != window_base_ + window_.size(),
                 "stream seq %llu out of order",
                 static_cast<unsigned long long>(u.seq));

        DynUop &d = window_.emplace_back();
        d.uop = u;
        if (u.isBranch()) {
            const bool pred = bpred_->predict(u.pc);
            bpred_->update(u.pc, u.taken);
            d.mispredicted = pred != u.taken;
            d.branch_counted = true;
        }
        tick_progress_ = true;

        if (d.mispredicted) {
            // Fetch stalls at a mispredicted branch until it resolves
            // (trace-driven: the wrong path contributes no useful work).
            fetch_block_branch_ = u.seq;
            break;
        }
    }
}

// --------------------------------------------------------------------
// Allocate (slice re-insertion has priority, then new uops)
// --------------------------------------------------------------------

void
Processor::resolveSources(DynUop &d)
{
    d.src1_prod = kInvalidSeqNum;
    d.src2_prod = kInvalidSeqNum;
    d.memdep_prod = kInvalidSeqNum;

    auto resolve = [&](ArchReg reg) -> SeqNum {
        if (reg == isa::kInvalidArchReg)
            return kInvalidSeqNum;
        const SeqNum prod = rename_[reg].producer;
        if (prod == kInvalidSeqNum || !inWindow(prod))
            return kInvalidSeqNum;
        return prod;
    };
    d.src1_prod = resolve(d.uop.src1);
    d.src2_prod = resolve(d.uop.src2);

    if (d.uop.isLoad()) {
        const SeqNum pred = store_sets_->predict(d.uop.pc);
        if (pred != kInvalidSeqNum && inWindow(pred) && pred < d.uop.seq) {
            const DynUop *s = find(pred);
            if (s && s->uop.isStore() && !s->completed())
                d.memdep_prod = pred;
        }
    }
}

bool
Processor::resourcesFor(const DynUop &d, bool reinsertion) const
{
    // Scheduler slot. A few entries per window are reserved for slice
    // re-insertion: without the reservation, new loads stalled behind
    // the SRL can fill the window and deadlock against the slice store
    // they are waiting for (the slice processing unit of a real CFP
    // design owns its re-insertion bandwidth).
    const auto cls = static_cast<unsigned>(schedClassOf(d.uop));
    const unsigned cap = cls == 0 ? config_.sched_int
                         : cls == 1 ? config_.sched_fp
                                    : config_.sched_mem;
    const unsigned reserve =
        reinsertion ? 0 : std::min(4u, cap / 8);
    if (sched_count_[cls] + reserve >= cap)
        return false;

    // Destination register.
    if (d.uop.hasDst()) {
        const bool fp = isa::isFloat(d.uop.cls) ||
                        (d.uop.isLoad() &&
                         d.uop.dst >= isa::kNumArchRegs / 2);
        if (fp ? rf_used_fp_ >= config_.regs_fp
               : rf_used_int_ >= config_.regs_int)
            return false;
    }

    // Store queue entry (unless the store still owns one: conventional
    // models keep the poisoned entry resident across the slice).
    if (d.uop.isStore() && !d.in_stq && stq_->full())
        return false;

    // Conventional load queue entry (first allocation only).
    if (!reinsertion && d.uop.isLoad() && lq_ && !d.lq_tracked &&
        lq_->full())
        return false;

    return true;
}

void
Processor::enterSlice(DynUop &d, bool from_scheduler)
{
    if (from_scheduler) {
        releaseSchedulerSlot(d);
        releaseRegister(d);
    }
    d.state = UopState::kInSlice;
    d.poisoned = true;
    unlinkWaiter(d);
    wakeWaiters(d, true);
    DTRACE(kSlice, "cycle %llu: drain to SDB: %s",
           (unsigned long long)now_, d.uop.toString().c_str());

    if (!d.counted_slice) {
        d.counted_slice = true;
        ++stats_.slice_uops;
        if (d.uop.isStore() && !d.was_poisoned_store) {
            d.was_poisoned_store = true;
            ++stats_.poisoned_stores;
        }
    }
    if (d.uop.isStore() && d.in_stq) {
        if (stq_->find(d.uop.seq))
            stq_->markPoisoned(d.uop.seq);
    }
    if (d.uop.hasDst())
        rename_[d.uop.dst].poisoned = true;

    cfp::SliceEntry entry;
    entry.uop = d.uop;
    entry.ckpt = d.ckpt;
    entry.srl_id = d.store_id;
    entry.has_srl_slot = d.srl_slot_reserved;
    entry.src1_producer = d.src1_prod;
    entry.src2_producer = d.src2_prod;
    entry.passes = ++d.passes;
    sdb_.push(std::move(entry));
    if (probe_)
        probe_->emit(obs::makeEvent(
            now_, obs::EventKind::kSliceEnter, obs::Structure::kSdb,
            d.uop.seq, 0, d.passes));
}

bool
Processor::tryReinsertSliceHead()
{
    if (sdb_.empty())
        return false;
    const cfp::SliceEntry &head = sdb_.front();
    DynUop *d = find(head.uop.seq);
    panic_if(!d, "SDB head %llu not in window",
             static_cast<unsigned long long>(head.uop.seq));
    panic_if(d->state != UopState::kInSlice,
             "SDB head %llu not in slice state",
             static_cast<unsigned long long>(head.uop.seq));

    // Wait until no producer is still pending a memory miss or parked
    // behind this entry in the slice.
    auto blocked = [&](SeqNum prod) {
        if (prod == kInvalidSeqNum)
            return false;
        const DynUop *p = find(prod);
        if (!p || p->completed())
            return false;
        // Producer must itself be back in the pipeline (it is older,
        // so it re-inserted earlier) and not poisoned-pending.
        return p->state == UopState::kInSlice || p->poisoned;
    };
    if (blocked(d->src1_prod) || blocked(d->src2_prod) ||
        blocked(d->memdep_prod))
        return false;

    if (!resourcesFor(*d, true))
        return false;

    // Entering redo: the first re-insertion of a slice burst discards
    // all temporary forwarding updates (Section 4.3). The miss-
    // dependent instructions must not observe temporary state.
    if (config_.model == StqModel::kSrl && !slice_active_) {
        slice_active_ = true;
        beginRedoPhase();
    }

    sdb_.pop();
    if (probe_)
        probe_->emit(obs::makeEvent(
            now_, obs::EventKind::kSliceReinsert, obs::Structure::kSdb,
            d->uop.seq, 0, d->passes));
    d->state = UopState::kInScheduler;
    d->poisoned = false;
    schedulerPush(*d);
    if (d->uop.hasDst()) {
        const bool fp = isa::isFloat(d->uop.cls) ||
                        (d->uop.isLoad() &&
                         d->uop.dst >= isa::kNumArchRegs / 2);
        (fp ? rf_used_fp_ : rf_used_int_)++;
    }
    // A slice store re-allocates an L1 STQ entry (Section 4.3).
    if (d->uop.isStore() && !d->in_stq) {
        stq_->allocate(d->uop.seq, d->store_id, d->ckpt);
        d->in_stq = true;
    }
    return true;
}

bool
Processor::allocateOne(DynUop &d, bool reinsertion)
{
    (void)reinsertion;
    // Checkpoint management: open a new one if policy demands. CPR
    // checkpoints selectively at *low-confidence* branches; the trace
    // knows the outcome, so "will mispredict" stands in for a
    // confidence estimator.
    if (ckpts_.wantNew(d.uop.isBranch() && d.mispredicted)) {
        if (!ckpts_.canCreate()) {
            ++ckpts_.createStalls;
            ++stats_.stall_ckpt;
            return false;
        }
        const CheckpointId nid =
            ckpts_.create(d.uop.seq, rename_.snapshot());
        // The checkpoint exists even if a later resource check fails
        // this cycle: the tick changed state and cannot be skipped.
        tick_progress_ = true;
        DTRACE(kCheckpoint, "cycle %llu: open checkpoint %u at seq %llu",
               (unsigned long long)now_, nid,
               (unsigned long long)d.uop.seq);
        if (probe_)
            probe_->emit(obs::makeEvent(
                now_, obs::EventKind::kCkptAlloc,
                obs::Structure::kCheckpoint, d.uop.seq, 0, nid));
    }

    resolveSources(d);

    const bool to_slice =
        sourcesPoisoned(d) ||
        (d.uop.isLoad() && d.memdep_prod != kInvalidSeqNum &&
         producerPoisoned(d.memdep_prod));

    // Stores always hold a store-queue entry; loads a load-queue entry
    // (conventional models) and an order-fence slot; both need these
    // even when steered straight into the slice.
    if (d.uop.isStore() && stq_->full()) {
        ++stq_->allocFails;
        ++stats_.stall_stq;
        return false;
    }
    // SRL model: the wrap-around StoreId ring can only order ids less
    // than one SRL-capacity apart, and ids are referenced by every
    // in-flight uop (a load's nearest-store id lives until it
    // commits). Store allocation therefore stalls when the ring would
    // advance a full capacity past the oldest in-flight reference.
    if (d.uop.isStore() && srl_ && !window_.empty() &&
        alloc_index_ > 0) {
        const std::uint64_t oldest = window_.front().alloc_store_abs;
        if (store_ids_.peek().abs - oldest >=
            config_.srl.srl.capacity) {
            ++stats_.stall_stq;
            return false;
        }
    }
    if (d.uop.isLoad() && lq_ && lq_->full()) {
        ++stats_.stall_lq;
        return false;
    }
    if (to_slice && sdb_.full()) {
        ++stats_.stall_sdb;
        return false;
    }
    if (!to_slice && !resourcesFor(d, false)) {
        const auto cls = static_cast<unsigned>(schedClassOf(d.uop));
        const unsigned cap = cls == 0   ? config_.sched_int
                             : cls == 1 ? config_.sched_fp
                                        : config_.sched_mem;
        if (sched_count_[cls] >= cap)
            ++stats_.stall_sched;
        else
            ++stats_.stall_rf;
        return false;
    }

    d.ckpt = ckpts_.youngest().id;
    d.alloc_store_abs = store_ids_.peek().abs;
    ckpts_.allocated(d.uop.seq);

    if (d.uop.isStore()) {
        d.store_id = store_ids_.allocate();
        stq_->allocate(d.uop.seq, d.store_id, d.ckpt);
        d.in_stq = true;
        d.drained = false;
        store_sets_->storeFetched(d.uop.pc, d.uop.seq);
        ++undrained_[d.ckpt];
        ++inflight_stores_;
        d.undrained_counted = true;
    }
    if (d.uop.isLoad()) {
        d.nearest_id = store_ids_.lastAllocated();
        fence_.loadAllocated(d.uop.seq);
        if (lq_) {
            lq_->allocate(d.uop.seq, d.ckpt);
            d.lq_tracked = true;
        }
    }
    if (d.uop.hasDst()) {
        rename_[d.uop.dst].producer = d.uop.seq;
        rename_[d.uop.dst].poisoned = false;
    }

    if (to_slice) {
        d.passes = 0; // enterSlice will bump it
        enterSlice(d, false);
    } else {
        d.state = UopState::kInScheduler;
        schedulerPush(d);
        if (d.uop.hasDst()) {
            const bool fp = isa::isFloat(d.uop.cls) ||
                            (d.uop.isLoad() &&
                             d.uop.dst >= isa::kNumArchRegs / 2);
            (fp ? rf_used_fp_ : rf_used_int_)++;
        }
    }
    if (probe_)
        probe_->emit(obs::makeEvent(
            now_, obs::EventKind::kDispatch, obs::Structure::kCore,
            d.uop.seq, d.uop.pc,
            static_cast<std::uint32_t>(d.uop.cls)));
    return true;
}

void
Processor::allocate()
{
    unsigned budget = config_.alloc_width;

    // Slice re-insertion first: SDB entries are the oldest work.
    while (budget > 0 && tryReinsertSliceHead()) {
        --budget;
        tick_progress_ = true;
    }

    // Then new uops, in order.
    while (budget > 0 && alloc_index_ < window_.size()) {
        DynUop &d = window_[alloc_index_];
        panic_if(d.state != UopState::kWaitAlloc,
                 "alloc pointer at uop %llu in state %u",
                 static_cast<unsigned long long>(d.uop.seq),
                 static_cast<unsigned>(d.state));
        if (!allocateOne(d, false))
            break;
        ++alloc_index_;
        --budget;
        tick_progress_ = true;
    }
}

// --------------------------------------------------------------------
// Issue
// --------------------------------------------------------------------

void
Processor::scheduleCompletion(DynUop &d, Cycle when)
{
    d.state = UopState::kIssued;
    events_.push(Event(when, d.uop.seq, d.generation));
}

Processor::LoadRoute
Processor::routeLoad(DynUop &d, std::uint64_t &value, Cycle &ready)
{
    const Addr addr = d.uop.effAddr;
    const std::uint8_t size = d.uop.memSize;

    // 1. Primary store queue CAM (all models).
    const lsq::ForwardResult fr = stq_->forward(d.uop.seq, addr, size);
    if (fr.outcome == lsq::ForwardOutcome::kForward) {
        value = fr.data;
        ready = now_ + stq_->forwardLatency();
        d.fwd_store_seq = fr.store_seq;
        d.fwd_store_id = fr.store_id;
        return LoadRoute::kStqForward;
    }
    if (fr.outcome == lsq::ForwardOutcome::kBlocked)
        return LoadRoute::kRetry;

    // 2. Hierarchical: Membership Test Buffer filters L2 STQ lookups.
    if (config_.model == StqModel::kHierarchical &&
        mtb_->mayContain(addr)) {
        const lsq::ForwardResult f2 =
            l2_stq_->forward(d.uop.seq, addr, size);
        if (f2.outcome == lsq::ForwardOutcome::kForward) {
            value = f2.data;
            ready = now_ + l2_stq_->forwardLatency();
            d.fwd_store_seq = f2.store_seq;
            d.fwd_store_id = f2.store_id;
            return LoadRoute::kL2StqForward;
        }
        if (f2.outcome == lsq::ForwardOutcome::kBlocked)
            return LoadRoute::kRetry;
    }

    // 3. SRL model: forwarding cache, then the Loose Check Filter.
    if (config_.model == StqModel::kSrl) {
        const auto hit = fc_->load(addr, size);
        if (hit &&
            !lsq::allocatedBefore(d.nearest_id, hit->store_id)) {
            // Temporary-update hit from a program-order-older store;
            // forwarding happens at L1 hit latency (Section 6.1).
            value = hit->data;
            ready = now_ + hier_->l1().hitLatency();
            d.fwd_store_seq = kInvalidSeqNum;
            d.fwd_store_id = hit->store_id;
            return LoadRoute::kFcForward;
        }

        // Section 4.3: the SRL-matching problem only arises during
        // *store redo mode*, when discarded temporary state means a
        // load's data may sit in the SRL without having updated the
        // cache yet. Outside redo mode, loads that miss the STQ and FC
        // read the cache; a mistake (e.g. an FC eviction, or an
        // unknown-address dependent store) is caught by the secondary
        // load buffer when the store completes or drains (Figure 4
        // cases v and vi).
        if (redo_mode_) {
            if (lcf_) {
                // One hash, one lane read: counter and indexed-
                // forwarding slot come back together.
                const lsq::LooseCheckFilter::Check chk =
                    lcf_->lookup(addr);
                if (chk.mayMatch()) {
                    // Indexed forwarding: RAM-read the last aliasing
                    // SRL slot; one external comparator checks address
                    // and age (no CAM, no search).
                    if (config_.srl.indexed_forwarding) {
                        const std::uint32_t slot = chk.srl_index;
                        const lsq::SrlEntry *e = srl_->peekSlot(slot);
                        if (e && e->data_valid &&
                            lsq::bytesCover(e->addr, e->size, addr,
                                            size) &&
                            !lsq::allocatedBefore(d.nearest_id,
                                                  e->id)) {
                            const unsigned shift =
                                static_cast<unsigned>(addr - e->addr) *
                                8;
                            const std::uint64_t full = e->data >> shift;
                            value = size >= 8
                                        ? full
                                        : (full &
                                           ((1ull << (8 * size)) - 1));
                            ready = now_ + hier_->l1().hitLatency();
                            d.fwd_store_seq = e->seq;
                            d.fwd_store_id = e->id;
                            ++stats_.indexed_forwards;
                            if (probe_)
                                probe_->emit(obs::makeEvent(
                                    now_,
                                    obs::EventKind::kIndexedForward,
                                    obs::Structure::kSrl, d.uop.seq,
                                    addr, slot));
                            return LoadRoute::kIndexedForward;
                        }
                    }
                    // Stall until the aliasing stores drain past the
                    // load (single comparator on the SRL head id).
                    if (!srl_->empty() &&
                        !lsq::allocatedBefore(d.nearest_id,
                                              srl_->head().id)) {
                        if (!d.counted_srl_stall) {
                            d.counted_srl_stall = true;
                            ++stats_.srl_stalled_loads;
                            if (probe_)
                                probe_->emit(obs::makeEvent(
                                    now_, obs::EventKind::kSrlStall,
                                    obs::Structure::kSrl, d.uop.seq,
                                    addr, 0));
                        }
                        return LoadRoute::kRetry;
                    }
                }
            } else {
                // No LCF: the hardware cannot tell whether *any* SRL
                // store matches, so every load without forwarded data
                // stalls until the SRL drains past it ("these loads
                // would have to stall until the SRL drains
                // completely").
                if (!srl_->empty() &&
                    !lsq::allocatedBefore(d.nearest_id,
                                          srl_->head().id)) {
                    if (!d.counted_srl_stall) {
                        d.counted_srl_stall = true;
                        ++stats_.srl_stalled_loads;
                        if (probe_)
                            probe_->emit(obs::makeEvent(
                                now_, obs::EventKind::kSrlStall,
                                obs::Structure::kSrl, d.uop.seq, addr,
                                0));
                    }
                    return LoadRoute::kRetry;
                }
            }
        }
    }

    // 4. The cache hierarchy (value from the speculative overlay view).
    const memsys::LoadResult lr = hier_->load(addr, now_);
    if (lr.mshr_full)
        return LoadRoute::kRetry;
    value = spec_mem_->read(addr, size);
    ready = lr.ready;
    if (lr.level == memsys::ServiceLevel::kMemory) {
        d.pending_mem_miss = true;
        d.poisoned = true;
        wakeWaiters(d, true);
        if (d.uop.hasDst())
            rename_[d.uop.dst].poisoned = true;
        ++outstanding_mem_misses_;
        ++stats_.mem_misses;
        if (probe_)
            probe_->emit(obs::makeEvent(
                now_, obs::EventKind::kMissEnter, obs::Structure::kCore,
                d.uop.seq, addr, 0));
        switch (addr >> 28) {
          case 0x1: ++stats_.miss_hot; break;
          case 0x2: ++stats_.miss_warm; break;
          case 0x4: case 0x5: case 0x6: case 0x7:
            ++stats_.miss_cold; break;
          default: ++stats_.miss_stream; break;
        }
    } else if (redo_mode_ && config_.model == StqModel::kSrl &&
               !config_.srl.use_fwd_cache) {
        ++stats_.redo_phase_misses;
    }
    d.fwd_store_seq = kInvalidSeqNum;
    d.fwd_store_id = lsq::kNullStoreId;
    return LoadRoute::kCache;
}

bool
Processor::issueLoad(DynUop &d)
{
    std::uint64_t value = 0;
    Cycle ready = now_;
    const LoadRoute route = routeLoad(d, value, ready);
    if (route == LoadRoute::kRetry)
        return false;

    d.load_value = value;

    // The load's value is bound now: it becomes visible to store
    // completion/drain checks, and clears its order-fence bit.
    fence_.loadCompleted(d.uop.seq);
    if (lq_) {
        lq_->executed(d.uop.seq, d.uop.effAddr, d.uop.memSize,
                      d.fwd_store_seq);
    }
    if (load_buffer_) {
        const auto ins = load_buffer_->insert(
            d.uop.seq, d.ckpt, d.uop.effAddr, d.uop.memSize,
            d.nearest_id, d.fwd_store_id);
        if (ins.overflowed) {
            // Section 3: take a memory-ordering violation on overflow.
            ++stats_.overflow_violations;
            scheduleCompletion(d, ready);
            handleViolation(lsq::LoadViolation{d.uop.seq, d.ckpt},
                            kInvalidSeqNum, true);
            return true;
        }
    }

    scheduleCompletion(d, ready);
    return true;
}

bool
Processor::issueStore(DynUop &d)
{
    // Address and data generation: one cycle through the store port.
    scheduleCompletion(d, now_ + 1);
    return true;
}

bool
Processor::tryIssue(DynUop &d)
{
    if (d.uop.isLoad())
        return issueLoad(d);
    if (d.uop.isStore())
        return issueStore(d);
    scheduleCompletion(d, now_ + isa::executeLatency(d.uop.cls));
    return true;
}

// --------------------------------------------------------------------
// Scheduler sleep/wakeup
//
// A scheduler entry whose sources are not ready goes to sleep: it
// leaves its class's ready queue and is linked into an intrusive LIFO
// chain on each incomplete producer. When a producer completes or
// becomes poisoned — the only transitions that can change the entry's
// issue outcome — the chain walk re-inserts it into the ready queue at
// its original ticket position, so issue() never examines blocked
// work and its selection order (and therefore timing) is exactly that
// of the legacy full per-cycle scan.
// --------------------------------------------------------------------

void
Processor::sleepSchedEntry(DynUop &d)
{
    const SeqNum prods[3] = {d.src1_prod, d.src2_prod, d.memdep_prod};
    bool linked = false;
    for (unsigned slot = 0; slot < 3; ++slot) {
        if (d.wait_linked[slot]) {
            // Still chained to this producer from an earlier sleep.
            linked = true;
            continue;
        }
        const SeqNum prod = prods[slot];
        if (prod == kInvalidSeqNum)
            continue;
        DynUop *p = find(prod);
        if (!p || p->completed())
            continue;
        d.wait_linked[slot] = true;
        d.wait_next[slot] = p->first_waiter;
        d.wait_next_slot[slot] = p->first_waiter_slot;
        p->first_waiter = d.uop.seq;
        p->first_waiter_slot = static_cast<std::uint8_t>(slot);
        linked = true;
    }
    // No link could mean every producer completed between the
    // readiness check and here; stay ready and retry next cycle.
    d.sched_sleep = linked;
    if (linked)
        ready_[static_cast<unsigned>(schedClassOf(d.uop))].erase(
            d.sched_ticket);
}

void
Processor::wakeWaiters(DynUop &p, bool poison)
{
    SeqNum cur = p.first_waiter;
    std::uint8_t slot = p.first_waiter_slot;
    p.first_waiter = kInvalidSeqNum;
    p.first_waiter_slot = 0;
    while (cur != kInvalidSeqNum) {
        DynUop *w = find(cur);
        panic_if(!w, "waiter %llu left the window before its producer",
                 static_cast<unsigned long long>(cur));
        const SeqNum next = w->wait_next[slot];
        const std::uint8_t next_slot = w->wait_next_slot[slot];
        w->wait_linked[slot] = false;
        w->wait_next[slot] = kInvalidSeqNum;
        // A completion wake is deferred until the waiter's last linked
        // producer finishes: a visit before that would only re-sleep it
        // (no stats, probes or progress on that path), so skipping the
        // early wake is unobservable. A poison wake reinserts
        // immediately — the waiter must drain into the slice even
        // though other producers are still pending (the issue pass
        // checks sourcesPoisoned before sourcesReady).
        if (w->sched_sleep &&
            (poison || !(w->wait_linked[0] || w->wait_linked[1] ||
                         w->wait_linked[2]))) {
            w->sched_sleep = false;
            // A gated completion wake proves readiness outright: the
            // linked producers all completed (this was the last), the
            // unlinked ones had already completed when the waiter went
            // to sleep, and completed producers are never poisoned.
            // The issue pass can skip its source re-check.
            if (!poison)
                w->src_resolved = true;
            ready_[static_cast<unsigned>(schedClassOf(w->uop))].insert(
                w->sched_ticket, cur);
        }
        cur = next;
        slot = next_slot;
    }
}

void
Processor::unlinkWaiter(DynUop &w)
{
    // Excise w from every producer chain it is still linked into (it
    // is leaving the scheduler through a path other than issue, e.g.
    // a slice drain, and its link storage is about to be reused).
    const SeqNum prods[3] = {w.src1_prod, w.src2_prod, w.memdep_prod};
    for (unsigned slot = 0; slot < 3; ++slot) {
        if (!w.wait_linked[slot])
            continue;
        w.wait_linked[slot] = false;
        DynUop *p = find(prods[slot]);
        if (!p) {
            w.wait_next[slot] = kInvalidSeqNum;
            continue;
        }
        SeqNum *link_seq = &p->first_waiter;
        std::uint8_t *link_slot = &p->first_waiter_slot;
        while (*link_seq != kInvalidSeqNum &&
               !(*link_seq == w.uop.seq && *link_slot == slot)) {
            DynUop *n = find(*link_seq);
            const std::uint8_t s = *link_slot;
            link_seq = &n->wait_next[s];
            link_slot = &n->wait_next_slot[s];
        }
        if (*link_seq != kInvalidSeqNum) {
            *link_seq = w.wait_next[slot];
            *link_slot = w.wait_next_slot[slot];
        }
        w.wait_next[slot] = kInvalidSeqNum;
    }
    // The entry is leaving the scheduler; the caller already removed it
    // from its ready queue, so only the flag needs clearing.
    w.sched_sleep = false;
}

void
Processor::resetWakeState()
{
    for (std::size_t i = 0; i < window_.size(); ++i) {
        DynUop &d = window_[i];
        d.sched_sleep = false;
        d.first_waiter = kInvalidSeqNum;
        d.first_waiter_slot = 0;
        for (unsigned s = 0; s < 3; ++s) {
            d.wait_linked[s] = false;
            d.wait_next[s] = kInvalidSeqNum;
        }
    }
}

void
Processor::issue()
{
#ifdef SRLSIM_ISSUE_SCAN_CHECK
    if (config_.issue_scan) {
        issueScan();
        return;
    }
#endif
    unsigned budget = config_.issue_width;
    unsigned fu_int = config_.fu_int_alu;
    unsigned fu_mul = config_.fu_int_mul;
    unsigned fu_fp = config_.fu_fp;
    unsigned loads = config_.load_ports;
    unsigned stores = config_.store_ports;

    for (unsigned cls = 0; cls < 3 && budget > 0; ++cls) {
        ReadyQueue &rq = ready_[cls];
        // Ticket-cursor walk: visits exactly the entries the legacy
        // scan would have examined, in the same order, while skipping
        // sleepers entirely. The cursor makes the walk robust against
        // mutation from inside the loop body — an issued load that
        // misses wakes its consumers (they join at their tickets,
        // visited iff the scan would still have reached them), a
        // poisoned entry drains out, a failed readiness check puts the
        // current entry to sleep.
        std::uint64_t cursor = 0;
        std::size_t pos_hint = 0;
        while (budget > 0) {
            const ReadyQueue::Entry *e = rq.firstAfter(cursor, pos_hint);
            if (!e)
                break;
            cursor = e->ticket;
            DynUop *d = find(e->seq);
            panic_if(!d || d->state != UopState::kInScheduler,
                     "scheduler holds stale uop");
            if (!d->src_resolved) {
                const SourceStatus st = sourceStatus(*d);
                if (st == SourceStatus::kPoisoned) {
                    // Miss-dependent: drain into the slice, freeing
                    // the slot (this is the CFP resource-release
                    // mechanism). With the SDB full it stays ready
                    // and retries.
                    if (!sdb_.full()) {
                        enterSlice(*d, true);
                        tick_progress_ = true;
                    }
                    continue;
                }
                if (st == SourceStatus::kWait) {
                    sleepSchedEntry(*d);
                    continue;
                }
                d->src_resolved = true;
            }

            // Functional-unit availability.
            bool fu_ok = true;
            switch (d->uop.cls) {
              case isa::UopClass::kIntAlu:
              case isa::UopClass::kBranch:
              case isa::UopClass::kNop:
                fu_ok = fu_int > 0;
                break;
              case isa::UopClass::kIntMul:
                fu_ok = fu_mul > 0;
                break;
              case isa::UopClass::kFpAlu:
              case isa::UopClass::kFpMul:
                fu_ok = fu_fp > 0;
                break;
              case isa::UopClass::kLoad:
                fu_ok = loads > 0;
                break;
              case isa::UopClass::kStore:
                fu_ok = stores > 0;
                break;
            }
            if (!fu_ok)
                continue; // port-starved; stays ready for next cycle

            // Even a failed issue attempt is progress: routeLoad
            // touches the cache hierarchy, prefetcher, CAM counters,
            // and per-cycle probe events (e.g. kLcfHit) on its retry
            // paths, so these cycles must be executed for real.
            tick_progress_ = true;
            const std::uint64_t epoch = rollback_epoch_;
            if (!tryIssue(*d))
                continue; // structural stall; retry next cycle
            if (epoch != rollback_epoch_) {
                // The issue triggered a violation rollback; the
                // scheduler queues were rebuilt under us. Abort the
                // pass.
                return;
            }

            switch (d->uop.cls) {
              case isa::UopClass::kIntAlu:
              case isa::UopClass::kBranch:
              case isa::UopClass::kNop:
                --fu_int;
                break;
              case isa::UopClass::kIntMul:
                --fu_mul;
                break;
              case isa::UopClass::kFpAlu:
              case isa::UopClass::kFpMul:
                --fu_fp;
                break;
              case isa::UopClass::kLoad:
                --loads;
                break;
              case isa::UopClass::kStore:
                --stores;
                break;
            }
            --budget;
            schedulerRemove(*d);
        }
    }
}

#ifdef SRLSIM_ISSUE_SCAN_CHECK
/**
 * The pre-ready-queue issue stage, verbatim: a full scan of every
 * scheduler entry each cycle, skipping sleepers by flag. Selected at
 * runtime with config.issue_scan so equivalence tests can run both
 * stages in one binary; the shared helpers keep scan_list_ and the
 * ready queues coherent whichever stage drives selection.
 */
void
Processor::issueScan()
{
    unsigned budget = config_.issue_width;
    unsigned fu_int = config_.fu_int_alu;
    unsigned fu_mul = config_.fu_int_mul;
    unsigned fu_fp = config_.fu_fp;
    unsigned loads = config_.load_ports;
    unsigned stores = config_.store_ports;

    for (unsigned cls = 0; cls < 3 && budget > 0; ++cls) {
        auto &list = scan_list_[cls];
        for (std::size_t i = 0; i < list.size() && budget > 0;) {
            DynUop *d = find(list[i]);
            panic_if(!d || d->state != UopState::kInScheduler,
                     "scheduler holds stale uop");
            if (d->sched_sleep) {
                ++i;
                continue;
            }
            if (sourcesPoisoned(*d)) {
                if (!sdb_.full()) {
                    enterSlice(*d, true);
                    tick_progress_ = true;
                    continue; // entry removed; same index is next
                }
                ++i;
                continue;
            }
            if (!sourcesReady(*d)) {
                sleepSchedEntry(*d);
                ++i;
                continue;
            }

            bool fu_ok = true;
            switch (d->uop.cls) {
              case isa::UopClass::kIntAlu:
              case isa::UopClass::kBranch:
              case isa::UopClass::kNop:
                fu_ok = fu_int > 0;
                break;
              case isa::UopClass::kIntMul:
                fu_ok = fu_mul > 0;
                break;
              case isa::UopClass::kFpAlu:
              case isa::UopClass::kFpMul:
                fu_ok = fu_fp > 0;
                break;
              case isa::UopClass::kLoad:
                fu_ok = loads > 0;
                break;
              case isa::UopClass::kStore:
                fu_ok = stores > 0;
                break;
            }
            if (!fu_ok) {
                ++i;
                continue;
            }

            tick_progress_ = true;
            const std::uint64_t epoch = rollback_epoch_;
            if (!tryIssue(*d)) {
                ++i;
                continue;
            }
            if (epoch != rollback_epoch_)
                return;

            switch (d->uop.cls) {
              case isa::UopClass::kIntAlu:
              case isa::UopClass::kBranch:
              case isa::UopClass::kNop:
                --fu_int;
                break;
              case isa::UopClass::kIntMul:
                --fu_mul;
                break;
              case isa::UopClass::kFpAlu:
              case isa::UopClass::kFpMul:
                --fu_fp;
                break;
              case isa::UopClass::kLoad:
                --loads;
                break;
              case isa::UopClass::kStore:
                --stores;
                break;
            }
            --budget;
            schedulerRemove(*d); // erases this list slot too
        }
    }
}

/**
 * Cross-check-build invariant: the ready queues must hold exactly the
 * awake entries of the legacy lists, in list order, and the occupancy
 * counts must match the list sizes. Checked every tick in both modes.
 */
void
Processor::verifySchedulerCoherence() const
{
    for (unsigned cls = 0; cls < 3; ++cls) {
        const auto &list = scan_list_[cls];
        panic_if(sched_count_[cls] != list.size(),
                 "sched_count[%u]=%u but scan list holds %zu", cls,
                 sched_count_[cls], list.size());
        std::size_t r = 0;
        std::uint64_t last_ticket = 0;
        for (const SeqNum seq : list) {
            const DynUop *d = find(seq);
            panic_if(!d, "scan list holds evicted seq");
            panic_if(d->sched_ticket <= last_ticket,
                     "scan list out of ticket order");
            last_ticket = d->sched_ticket;
            if (d->sched_sleep)
                continue;
            panic_if(r >= ready_[cls].size(),
                     "ready queue missing awake entry %llu",
                     static_cast<unsigned long long>(seq));
            panic_if(ready_[cls][r].ticket != d->sched_ticket ||
                         ready_[cls][r].seq != seq,
                     "ready queue diverges at class %u pos %zu", cls,
                     r);
            ++r;
        }
        panic_if(r != ready_[cls].size(),
                 "ready queue holds %zu entries, expected %zu",
                 ready_[cls].size(), r);
    }
}
#endif // SRLSIM_ISSUE_SCAN_CHECK

// --------------------------------------------------------------------
// Completions
// --------------------------------------------------------------------

void
Processor::processEvents()
{
    while (!events_.empty() && events_.top().cycle <= now_) {
        const Event ev = events_.top();
        events_.pop();
        tick_progress_ = true;
        DynUop *d = find(ev.seq());
        if (!d || (d->generation & Event::kGenMask) != ev.generation() ||
            d->state != UopState::kIssued)
            continue; // squashed/stale
        completeUop(*d);
    }
}

void
Processor::completeUop(DynUop &d)
{
    d.state = UopState::kCompleted;
    d.complete_cycle = now_;
    releaseRegister(d);
    ckpts_.completed(d.ckpt);
    wakeWaiters(d, false);

    if (d.uop.isLoad()) {
        completeLoad(d);
    } else if (d.uop.isStore()) {
        completeStore(d);
    } else if (d.uop.isBranch() && d.mispredicted) {
        ++stats_.branch_mispredicts;
        fetch_resume_ = now_ + config_.branch_mispredict_penalty;
        if (fetch_block_branch_ == d.uop.seq)
            fetch_block_branch_ = kInvalidSeqNum;
        d.mispredicted = false;
    }

    // The result exists now; consumers stop seeing poison.
    if (d.poisoned) {
        d.poisoned = false;
        if (d.uop.hasDst() && rename_[d.uop.dst].producer == d.uop.seq)
            rename_[d.uop.dst].poisoned = false;
    }
}

void
Processor::completeLoad(DynUop &d)
{
    if (d.pending_mem_miss) {
        d.pending_mem_miss = false;
        panic_if(outstanding_mem_misses_ == 0,
                 "mem miss count underflow");
        --outstanding_mem_misses_;
        if (probe_)
            probe_->emit(obs::makeEvent(
                now_, obs::EventKind::kMissExit, obs::Structure::kCore,
                d.uop.seq, d.uop.effAddr, 0));
        // The miss data returned; the slice will start re-inserting
        // (the forwarding-cache discard happens at the first actual
        // re-insertion of this redo burst, see tryReinsertSliceHead).
    }
}

void
Processor::completeStore(DynUop &d)
{
    // Record address and data in whichever store queue holds the
    // entry; a store that already left the L1 STQ with a reserved SRL
    // slot fills that slot by index instead (no search involved).
    const lsq::StoreQueueEntry *e = stq_->find(d.uop.seq);
    bool in_l2 = false;
    if (!e && l2_stq_) {
        e = l2_stq_->find(d.uop.seq);
        in_l2 = e != nullptr;
    }
    if (e) {
        if (in_l2 && !e->addr_valid)
            mtb_->increment(d.uop.effAddr);
        (in_l2 ? *l2_stq_ : *stq_)
            .writeAddrData(d.uop.seq, d.uop.effAddr, d.uop.memSize,
                           d.uop.storeData);
    } else {
        panic_if(!d.srl_slot_reserved,
                 "completing store %llu has no store queue entry and "
                 "no SRL slot",
                 static_cast<unsigned long long>(d.uop.seq));
        pending_srl_fills_.push_back(d.uop.seq);
    }

    // Memory-dependence check against already-executed younger loads
    // (paper Section 3 / Figure 4 case v).
    std::optional<lsq::LoadViolation> v;
    if (load_buffer_) {
        v = load_buffer_->storeCheck(d.store_id, d.uop.effAddr,
                                     d.uop.memSize);
    } else if (lq_) {
        v = lq_->storeCheck(d.uop.seq, d.uop.effAddr, d.uop.memSize);
    }
    if (v)
        handleViolation(*v, d.uop.seq, false);
}

// --------------------------------------------------------------------
// Store drain
// --------------------------------------------------------------------

bool
Processor::drainStoreToCache(const SeqNum seq, CheckpointId ckpt,
                             Addr addr, std::uint8_t size,
                             std::uint64_t data)
{
    // Even a refused drain (single-version conflict below) has already
    // touched cache state: never treat this path as quiescent.
    tick_progress_ = true;

    const Addr line = hier_->l1().lineAddr(addr);

    // D$-temporary-update mode: a redo drain to a line holding a
    // temporary version discards that version (the drain supersedes
    // it); later loads may re-miss, which is part of the option's cost
    // (Section 6.5).
    if (hier_->l1().isSpeculativeFor(line, kTempCkpt)) {
        hier_->l1().invalidate(line);
        hier_->l1().fill(line);
    }

    // Committed-but-dirty data must survive a later squash of this
    // speculative update: write it back first (Section 4.3).
    if (hier_->l1().probe(line) && hier_->l1().isDirty(line) &&
        !hier_->l1().isSpeculative(line)) {
        hier_->writebackLine(line);
    }

    hier_->storeDrain(addr, now_);

    // Single-version constraint: one checkpoint owns a speculative
    // line; a conflicting store stalls the drain.
    if (!hier_->l1().markSpeculative(line, ckpt)) {
        ++stats_.temp_update_stalls;
        return false;
    }

    spec_mem_->write(seq, ckpt, addr, size, data);
    return true;
}

bool
Processor::drainConventionalHead()
{
    if (stq_->empty())
        return false;
    const lsq::StoreQueueEntry &h = stq_->head();
    if (!h.data_valid) {
        ++stats_.drain_block_head;
        return false;
    }
    if (!fence_.storeMayDrain(h.seq)) {
        ++stats_.drain_block_fence;
        return false;
    }
    if (!drainStoreToCache(h.seq, h.ckpt, h.addr, h.size, h.data)) {
        ++stats_.drain_block_line;
        return false;
    }
    const lsq::StoreQueueEntry e = stq_->popHead();
    DynUop *d = find(e.seq);
    panic_if(!d, "drained store not in window");
    d->in_stq = false;
    d->drained = true;
    panic_if(undrained_[e.ckpt] == 0, "undrained counter underflow");
    --undrained_[e.ckpt];
    --inflight_stores_;
    return true;
}

void
Processor::displaceToL2()
{
    // Keep the L1 STQ holding the most recent stores: displace from
    // its head into the L2 STQ when full.
    unsigned moves = config_.alloc_width;
    while (moves-- > 0 && stq_->full() && !l2_stq_->full()) {
        const lsq::StoreQueueEntry &h = stq_->head();
        if (!h.addr_valid && !h.poisoned)
            break; // un-executed store: nothing to displace yet
        tick_progress_ = true;
        lsq::StoreQueueEntry e = stq_->popHead();
        if (e.addr_valid)
            mtb_->increment(e.addr);
        l2_stq_->pushEntry(e);
    }
}

bool
Processor::drainHierarchical()
{
    displaceToL2();

    lsq::StoreQueue *q =
        !l2_stq_->empty() ? l2_stq_.get() : stq_.get();
    if (q->empty())
        return false;
    const lsq::StoreQueueEntry &h = q->head();
    if (!h.data_valid || !fence_.storeMayDrain(h.seq))
        return false;
    if (!drainStoreToCache(h.seq, h.ckpt, h.addr, h.size, h.data))
        return false;
    const lsq::StoreQueueEntry e = q->popHead();
    if (q == l2_stq_.get() && e.addr_valid)
        mtb_->decrement(e.addr);
    DynUop *d = find(e.seq);
    panic_if(!d, "drained store not in window");
    d->in_stq = false;
    d->drained = true;
    panic_if(undrained_[e.ckpt] == 0, "undrained counter underflow");
    --undrained_[e.ckpt];
    --inflight_stores_;
    return true;
}

bool
Processor::moveStqHeadToSrl()
{
    if (stq_->empty())
        return false;
    const lsq::StoreQueueEntry &h = stq_->head();
    // A store normally leaves the head once it has data (or is a known
    // slice member). Under capacity pressure any store may leave with
    // a reserved SRL slot it fills later by index — without this, an
    // un-executed head store can clog the L1 STQ against slice
    // re-insertion (which needs a free entry) and deadlock.
    const bool ready_to_leave =
        h.data_valid || h.poisoned || stq_->full();
    if (!ready_to_leave)
        return false;

    const bool srl_path =
        outstanding_mem_misses_ > 0 || !srl_->empty();

    if (!srl_path) {
        // No miss being tolerated and the SRL is empty: drain straight
        // to the cache like a conventional machine.
        if (!h.data_valid)
            return false;
        return drainConventionalHead();
    }

    DynUop *d = find(h.seq);
    panic_if(!d, "L1 STQ head not in window");

    if (d->srl_slot_reserved) {
        if (h.data_valid) {
            // Re-executed dependent store: fill the reserved slot.
            if (lcf_ && !lcf_->storeInserted(h.addr, h.id.index))
                return false; // LCF counter saturated: stall
            srl_->fillDependent(h.id, h.addr, h.size, h.data);
        } else if (!stq_->full()) {
            return false; // keep it resident until it executes
        }
        // else: forced out under pressure; the completion fills the
        // already-reserved slot by index (processPendingFills).
    } else if (!h.data_valid) {
        // Dependent store (or an un-executed one forced out under
        // pressure): reserve its SRL slot; it fills it by index after
        // executing (Section 4.3: the SDB records the entry index).
        if (srl_->full())
            return false;
        srl_->pushDependent(h.seq, h.id, h.ckpt);
        d->srl_slot_reserved = true;
    } else {
        // Independent store: record in the SRL and update the
        // temporary-forwarding structure.
        if (srl_->full())
            return false;
        if (config_.model == StqModel::kSrl &&
            !config_.srl.use_fwd_cache &&
            fc_->wouldEvictLive(h.addr)) {
            // D$-temporary-update mode: an associativity conflict
            // stalls store processing (Section 6.5).
            ++stats_.temp_update_stalls;
            return false;
        }
        if (lcf_ && !lcf_->storeInserted(h.addr, h.id.index))
            return false;
        srl_->pushIndependent(h.seq, h.id, h.ckpt, h.addr, h.size,
                              h.data);
        if (config_.srl.use_fwd_cache) {
            fc_->storeUpdate(h.addr, h.size, h.data, h.id);
        } else {
            // Temporary update in the data cache: write back dirty
            // committed data first, then mark the line as a temporary
            // speculative version.
            const Addr line = hier_->l1().lineAddr(h.addr);
            if (hier_->l1().probe(line) && hier_->l1().isDirty(line) &&
                !hier_->l1().isSpeculative(line)) {
                hier_->writebackLine(line);
                ++stats_.fc_writebacks;
            }
            hier_->l1().access(line, true);
            hier_->l1().markSpeculative(line, kTempCkpt);
            fc_->storeUpdate(h.addr, h.size, h.data, h.id);
        }
    }

    tick_progress_ = true;
    stq_->popHead();
    d->in_stq = false;
    return true;
}

bool
Processor::drainSrlHead()
{
    if (srl_->empty())
        return false;
    // Paper drain discipline: in the shadow of an outstanding miss the
    // SRL only records; its re-updates of the cache happen during redo
    // mode (after the miss data returns) — "these store re-updates
    // occur ... when the miss data returns" (Section 4.1).
    if (config_.srl.drain_only_in_redo &&
        outstanding_mem_misses_ > 0 && !redo_mode_) {
        ++stats_.drain_block_head;
        return false;
    }
    if (!srl_->headReady()) {
        ++stats_.drain_block_head;
        return false;
    }
    const lsq::SrlEntry &h = srl_->head();
    if (!fence_.storeMayDrain(h.seq)) {
        ++stats_.drain_block_fence;
        return false;
    }
    if (!drainStoreToCache(h.seq, h.ckpt, h.addr, h.size, h.data)) {
        ++stats_.drain_block_line;
        return false;
    }

    const lsq::SrlEntry e = srl_->popHead();
    DTRACE(kSrl, "cycle %llu: drain seq %llu addr %#llx%s",
           (unsigned long long)now_, (unsigned long long)e.seq,
           (unsigned long long)e.addr, e.dependent ? " (dep)" : "");
    if (lcf_)
        lcf_->storeRemoved(e.addr);
    // Keep the forwarding cache's age tags within the live SRL ring:
    // the drained store's entry now mirrors cache state.
    fc_->storeDrained(e.addr, e.size, e.data, e.id);
    if (srl_->empty()) {
        // The secondary structures are operational only during a miss
        // (Section 1); an emptied SRL ends the epoch and temporary
        // forwarding state is dropped.
        fc_->discardAll();
        if (!config_.srl.use_fwd_cache)
            hier_->l1().squashCheckpoint(kTempCkpt);
    }

    DynUop *d = find(e.seq);
    panic_if(!d, "SRL head not in window");
    d->drained = true;
    d->via_srl = true;
    ++stats_.redone_stores;
    panic_if(undrained_[e.ckpt] == 0, "undrained counter underflow");
    --undrained_[e.ckpt];
    --inflight_stores_;

    if (srl_->empty() && redo_mode_)
        redo_mode_ = false;

    // Figure 4 case vi: the drain is the last moment this store's data
    // becomes visible; check for younger loads that missed it.
    if (auto v = load_buffer_->storeCheck(e.id, e.addr, e.size))
        handleViolation(*v, e.seq, false);
    return true;
}

void
Processor::processPendingFills()
{
    for (auto it = pending_srl_fills_.begin();
         it != pending_srl_fills_.end();) {
        DynUop *d = find(*it);
        if (!d || !d->srl_slot_reserved || !d->completed()) {
            it = pending_srl_fills_.erase(it); // squashed meanwhile
            tick_progress_ = true;
            continue;
        }
        const lsq::SrlEntry *e = srl_->peekSlot(d->store_id.index);
        if (!e || e->seq != d->uop.seq || e->data_valid) {
            it = pending_srl_fills_.erase(it);
            tick_progress_ = true;
            continue;
        }
        if (lcf_ &&
            !lcf_->storeInserted(d->uop.effAddr, d->store_id.index)) {
            ++it; // LCF saturated: retry next cycle
            continue;
        }
        srl_->fillDependent(d->store_id, d->uop.effAddr,
                            d->uop.memSize, d->uop.storeData);
        it = pending_srl_fills_.erase(it);
        tick_progress_ = true;
    }
}

void
Processor::drainStores()
{
    switch (config_.model) {
      case StqModel::kMonolithic:
        drainConventionalHead();
        break;
      case StqModel::kHierarchical:
        drainHierarchical();
        break;
      case StqModel::kSrl:
        processPendingFills();
        drainSrlHead();
        moveStqHeadToSrl();
        break;
    }
}

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

void
Processor::commit()
{
    while (ckpts_.oldestCommittable() &&
           undrained_[ckpts_.oldest().id] == 0) {
        tick_progress_ = true;
        const cfp::Checkpoint c = ckpts_.commitOldest();
        DTRACE(kCommit,
               "cycle %llu: bulk commit checkpoint %u (%llu uops from "
               "seq %llu)",
               (unsigned long long)now_, c.id,
               (unsigned long long)c.allocated,
               (unsigned long long)c.first_seq);

        if (probe_)
            probe_->emit(obs::makeEvent(
                now_, obs::EventKind::kCommit,
                obs::Structure::kCheckpoint, c.first_seq, c.allocated,
                c.id));
        spec_mem_->commitCheckpoint(c.id);
        hier_->l1().commitCheckpoint(c.id);
        if (load_buffer_)
            load_buffer_->clearCheckpoint(c.id);

        // Retire this checkpoint's uops from the window front.
        SeqNum last = 0;
        std::uint64_t n = 0;
        while (!window_.empty() && window_.front().ckpt == c.id) {
            DynUop &d = window_.front();
            panic_if(!d.completed(),
                     "committing incomplete uop %llu",
                     static_cast<unsigned long long>(d.uop.seq));
            last = d.uop.seq;
            ++stats_.committed_uops;
            if (d.uop.isLoad()) {
                ++stats_.committed_loads;
                if (hook_)
                    hook_(d.uop.seq, d.uop.effAddr, d.uop.memSize,
                          d.load_value);
            }
            if (d.uop.isStore()) {
                ++stats_.committed_stores;
                store_sets_->storeRetired(d.uop.seq);
            }
            window_.pop_front();
            ++window_base_;
            panic_if(alloc_index_ == 0, "alloc index underflow");
            --alloc_index_;
            ++n;
        }
        panic_if(n != c.allocated,
                 "checkpoint %u committed %llu of %llu uops", c.id,
                 static_cast<unsigned long long>(n),
                 static_cast<unsigned long long>(c.allocated));
        if (lq_)
            lq_->commitUpTo(last);
        last_commit_cycle_ = now_;
    }
}

// --------------------------------------------------------------------
// Recovery
// --------------------------------------------------------------------

void
Processor::handleViolation(const lsq::LoadViolation &v, SeqNum store_seq,
                           bool snoop)
{
    DTRACE(kLoadBuffer,
           "cycle %llu: %s violation: load seq %llu restarts ckpt %u",
           (unsigned long long)now_, snoop ? "snoop" : "memory-order",
           (unsigned long long)v.load_seq, v.ckpt);
    if (snoop) {
        ++stats_.snoop_violations;
    } else {
        ++stats_.mem_violations;
        const DynUop *ld = find(v.load_seq);
        const DynUop *st =
            store_seq != kInvalidSeqNum ? find(store_seq) : nullptr;
        if (ld && st)
            store_sets_->trainViolation(ld->uop.pc, st->uop.pc);
    }
    rollbackToCheckpoint(v.ckpt);
}

void
Processor::beginRedoPhase()
{
    fc_->discardAll();
    if (!config_.srl.use_fwd_cache)
        hier_->l1().squashCheckpoint(kTempCkpt);
    redo_mode_ = !srl_->empty();
}

void
Processor::rollbackToCheckpoint(CheckpointId target)
{
    ++rollback_epoch_;
    tick_progress_ = true;
    // Wholesale wakeup-state reset: squashed waiters would otherwise
    // leave dangling chain links through surviving producers.
    resetWakeState();
    DTRACE(kRollback, "cycle %llu: rollback to checkpoint %u",
           (unsigned long long)now_, target);

    // Collect the checkpoint slots being reset (the target itself plus
    // everything younger).
    const SeqNum target_first = ckpts_.find(target)->first_seq;
    std::vector<CheckpointId> squashed;
    for (CheckpointId id = 0;
         id < 2 * config_.checkpoints.num_checkpoints; ++id) {
        const cfp::Checkpoint *c = ckpts_.find(id);
        if (c && c->first_seq >= target_first) {
            squashed.push_back(id);
            if (probe_ && id != target)
                probe_->emit(obs::makeEvent(
                    now_, obs::EventKind::kCkptReclaim,
                    obs::Structure::kCheckpoint, c->first_seq, 0, id));
        }
    }

    const cfp::Checkpoint restored = ckpts_.rollbackTo(target);
    const SeqNum boundary = restored.first_seq;
    if (probe_)
        probe_->emit(obs::makeEvent(
            now_, obs::EventKind::kCkptRollback,
            obs::Structure::kCheckpoint, boundary, 0, target));
    rename_ = restored.map;

    // Squash every structure past the boundary. squashAfter(keep)
    // removes seq > keep, so boundary 0 (squash everything, including
    // seq 0) needs explicit clears.
    if (boundary == 0) {
        stq_->clear();
        if (l2_stq_) {
            l2_stq_->clear();
            mtb_->clear();
        }
        if (srl_) {
            srl_->clear();
            if (lcf_)
                lcf_->clear();
        }
        if (load_buffer_)
            load_buffer_->clear();
        if (lq_)
            lq_->clear();
        fence_.clear();
        sdb_.clear();
    } else {
        const SeqNum keep = boundary - 1;
        stq_->squashAfter(keep);
        if (l2_stq_) {
            for (const auto &e : l2_stq_->squashAfter(keep)) {
                if (e.addr_valid)
                    mtb_->decrement(e.addr);
            }
        }
        if (srl_) {
            for (const auto &e : srl_->squashAfter(keep)) {
                if (lcf_ && e.data_valid)
                    lcf_->storeRemoved(e.addr);
            }
        }
        if (load_buffer_)
            load_buffer_->squashAfter(keep);
        if (lq_)
            lq_->squashAfter(keep);
        fence_.squashAfter(keep);
        sdb_.squashAfter(keep);
    }
    if (fc_) {
        fc_->discardAll();
        if (!config_.srl.use_fwd_cache)
            hier_->l1().squashCheckpoint(kTempCkpt);
    }
    spec_mem_->rollback(boundary);
    for (const CheckpointId id : squashed) {
        hier_->l1().squashCheckpoint(id);
        undrained_[id] = 0;
    }

    // Reset all squashed uops for re-execution.
    bool rewound_ids = false;
    for (std::size_t i = boundary - window_base_; i < window_.size();
         ++i) {
        DynUop &d = window_[i];
        if (d.state == UopState::kInScheduler) {
            releaseSchedulerSlot(d);
            releaseRegister(d);
        } else if (d.state == UopState::kIssued) {
            releaseRegister(d);
        }
        if (d.pending_mem_miss) {
            d.pending_mem_miss = false;
            panic_if(outstanding_mem_misses_ == 0,
                     "mem miss count underflow on squash");
            --outstanding_mem_misses_;
        }
        if (d.uop.isStore()) {
            if (!rewound_ids && !lsq::isNullStoreId(d.store_id)) {
                store_ids_.rewind(d.store_id);
                rewound_ids = true;
            }
            if (d.undrained_counted && !d.drained) {
                panic_if(inflight_stores_ == 0,
                         "inflight store count underflow");
                --inflight_stores_;
            }
            store_sets_->storeRetired(d.uop.seq);
        }
        ++d.generation;
        d.state = UopState::kWaitAlloc;
        d.ckpt = kInvalidCheckpoint;
        d.poisoned = false;
        d.in_stq = false;
        d.drained = false;
        d.undrained_counted = false;
        d.srl_slot_reserved = false;
        d.via_srl = false;
        d.lq_tracked = false;
        d.store_id = lsq::kNullStoreId;
        d.nearest_id = lsq::kNullStoreId;
        d.fwd_store_seq = kInvalidSeqNum;
        d.fwd_store_id = lsq::kNullStoreId;
        d.src1_prod = kInvalidSeqNum;
        d.src2_prod = kInvalidSeqNum;
        d.memdep_prod = kInvalidSeqNum;
        d.complete_cycle = kInvalidCycle;
        // A replayed branch was already trained: model it as correctly
        // predicted the second time.
        d.mispredicted = false;
    }

    // Rebuild scheduler membership around the survivors.
#ifdef SRLSIM_ISSUE_SCAN_CHECK
    for (auto &list : scan_list_) {
        list.erase(std::remove_if(list.begin(), list.end(),
                                  [&](SeqNum s) { return s >= boundary; }),
                   list.end());
    }
#endif
    rebuildSchedulerQueues();

    // Unblock fetch if the blocking branch was squashed.
    if (fetch_block_branch_ != kInvalidSeqNum &&
        fetch_block_branch_ >= boundary) {
        fetch_block_branch_ = kInvalidSeqNum;
        fetch_resume_ = now_;
    }

    alloc_index_ = boundary - window_base_;
}

// --------------------------------------------------------------------
// Snoops
// --------------------------------------------------------------------

void
Processor::injectSnoop(Addr addr, unsigned size, std::uint64_t data)
{
    DTRACE(kSnoop, "cycle %llu: external store %#llx size %u",
           (unsigned long long)now_, (unsigned long long)addr, size);
    tick_progress_ = true;
    mem_->write(addr, size, data);
    hier_->snoopInvalidate(addr);

    std::optional<lsq::LoadViolation> v;
    if (load_buffer_) {
        v = load_buffer_->snoopCheck(addr,
                                     static_cast<std::uint8_t>(size));
    } else if (lq_) {
        v = lq_->snoopCheck(addr, static_cast<std::uint8_t>(size));
    }
    if (v)
        handleViolation(*v, kInvalidSeqNum, true);
}

// --------------------------------------------------------------------
// Top level
// --------------------------------------------------------------------

void
Processor::tick()
{
    tick_progress_ = false;
    processEvents();

    if (slice_active_ && sdb_.empty())
        slice_active_ = false;

    // End of stream: close the final checkpoint region so it can
    // commit (no younger checkpoint will ever open it otherwise).
    if (stream_done_ && alloc_index_ == window_.size() && sdb_.empty())
        ckpts_.closeYoungest();

    commit();
    drainStores();
    allocate();
    issue();
    fetch();

#ifdef SRLSIM_ISSUE_SCAN_CHECK
    verifySchedulerCoherence();
#endif

    if (srl_)
        srl_occupancy_.observe(srl_->size(), 1);

    if (sampler_)
        sampler_->tick(now_);

    // Synthetic multiprocessor traffic: external stores snoop the
    // load-tracking structures (Section 3).
    if (config_.snoop_rate > 0.0 &&
        snoop_rng_.chance(config_.snoop_rate)) {
        const Addr addr = workloadSnoopAddr();
        injectSnoop(addr, 8, 0xE0E0'0000'0000'0000ull |
                                 ++snoop_payload_);
    }

    ++now_;
    ++stats_.cycles;

    if (now_ - last_commit_cycle_ > config_.watchdog_cycles) {
        std::fprintf(stderr,
                     "watchdog state: window %zu sdb %zu stq %zu srl "
                     "%zu alloc %zu misses %u fence-out %zu\n",
                     window_.size(), sdb_.size(), stq_->size(),
                     srl_ ? srl_->size() : 0, alloc_index_,
                     outstanding_mem_misses_,
                     fence_.outstandingLoads());
        if (!sdb_.empty()) {
            const auto &h = sdb_.front();
            const DynUop *d = find(h.uop.seq);
            std::fprintf(stderr,
                         "sdb head: %s p1=%lld p2=%lld md=%lld\n",
                         h.uop.toString().c_str(),
                         d ? (long long)d->src1_prod : -1,
                         d ? (long long)d->src2_prod : -1,
                         d ? (long long)d->memdep_prod : -1);
            auto show = [&](SeqNum p) {
                if (p == kInvalidSeqNum)
                    return;
                const DynUop *x = find(p);
                std::fprintf(stderr,
                             "  producer %llu state=%u poisoned=%d "
                             "pendmiss=%d: %s\n",
                             (unsigned long long)p,
                             x ? (unsigned)x->state : 99,
                             x ? x->poisoned : 0,
                             x ? x->pending_mem_miss : 0,
                             x ? x->uop.toString().c_str() : "?");
            };
            if (d) {
                show(d->src1_prod);
                show(d->src2_prod);
                show(d->memdep_prod);
            }
        }
        if (srl_ && !srl_->empty()) {
            const auto &h = srl_->head();
            const DynUop *d = find(h.seq);
            std::fprintf(stderr,
                         "srl head: seq=%llu dep=%d dv=%d state=%u\n",
                         (unsigned long long)h.seq, h.dependent,
                         h.data_valid, d ? (unsigned)d->state : 99);
        }
        if (!stq_->empty()) {
            const auto &h = stq_->head();
            const DynUop *d = find(h.seq);
            std::fprintf(stderr,
                         "stq head: seq=%llu av=%d dv=%d po=%d "
                         "state=%u\n",
                         (unsigned long long)h.seq, h.addr_valid,
                         h.data_valid, h.poisoned,
                         d ? (unsigned)d->state : 99);
        }
        std::fprintf(stderr,
                     "rf int %u/%u fp %u/%u; sched %u/%u/%u "
                     "(ready %zu/%zu/%zu)\n",
                     rf_used_int_, config_.regs_int, rf_used_fp_,
                     config_.regs_fp, sched_count_[0], sched_count_[1],
                     sched_count_[2], ready_[0].size(),
                     ready_[1].size(), ready_[2].size());
        for (unsigned c = 0; c < 3; ++c) {
            for (std::size_t i = 0;
                 i < std::min<std::size_t>(ready_[c].size(), 3); ++i) {
                const DynUop *d = find(ready_[c][i].seq);
                std::fprintf(stderr, "ready[%u][%zu]: %s", c, i,
                             d ? d->uop.toString().c_str() : "?");
                if (d) {
                    std::fprintf(
                        stderr, " p1=%lld p2=%lld md=%lld poisrc=%d",
                        (long long)d->src1_prod, (long long)d->src2_prod,
                        (long long)d->memdep_prod, sourcesPoisoned(*d));
                }
                std::fprintf(stderr, "\n");
            }
        }
        panic("watchdog: no commit for %llu cycles at cycle %llu",
              static_cast<unsigned long long>(config_.watchdog_cycles),
              static_cast<unsigned long long>(now_));
    }
}

bool
Processor::done() const
{
    return stream_done_ && window_.empty();
}

// --------------------------------------------------------------------
// Quiescence skip-ahead
// --------------------------------------------------------------------

bool
Processor::canSkipIdle() const
{
    // A per-cycle sampler observes gauges every cycle, and the snoop
    // source rolls its RNG every cycle: both make every cycle
    // observable-distinct, so neither run may skip.
    return config_.skip_ahead && !sampler_ && config_.snoop_rate <= 0.0;
}

Processor::IdleCounters
Processor::captureIdleCounters() const
{
    IdleCounters c;
    c.stall_ckpt = stats_.stall_ckpt;
    c.stall_stq = stats_.stall_stq;
    c.stall_lq = stats_.stall_lq;
    c.stall_sdb = stats_.stall_sdb;
    c.stall_sched = stats_.stall_sched;
    c.stall_rf = stats_.stall_rf;
    c.drain_block_head = stats_.drain_block_head;
    c.drain_block_fence = stats_.drain_block_fence;
    c.temp_update_stalls = stats_.temp_update_stalls;
    c.ckpt_create_stalls = ckpts_.createStalls.value();
    c.stq_alloc_fails = stq_->allocFails.value();
    c.lcf_overflows = lcf_ ? lcf_->overflows.value() : 0;
    c.srl_indexed_reads = srl_ ? srl_->indexedReads.value() : 0;
    c.fence_drain_blocked = fence_.drainBlocked.value();
    c.ss_accesses = store_sets_->accesses();
    c.ss_predictions = store_sets_->predictions.value();
    c.ss_deps = store_sets_->dependencesPredicted.value();
    return c;
}

void
Processor::skipQuiescentCycles(const IdleCounters &before,
                               std::uint64_t max_cycles)
{
    // The tick just executed changed nothing but the stall counters
    // snapshotted in @p before: until an external wakeup arrives the
    // machine would repeat it verbatim. Find the earliest wakeup and
    // replay the per-cycle counter deltas across the gap instead.
    //
    // Wakeup sources, all conservative (skipping less is always safe):
    //  - the event heap (execution completions, miss returns);
    //  - fetch_resume_ (branch redirect penalty elapsing);
    //  - the commit watchdog (so a hang panics at the same cycle);
    //  - the run() cycle limit;
    //  - the store-sets periodic-clear boundary (its access counter
    //    advances per replayed cycle and must not cross a clear).
    Cycle wake = last_commit_cycle_ + config_.watchdog_cycles;
    if (!events_.empty())
        wake = std::min(wake, events_.top().cycle);
    // <= not <: the quiescent tick ran at now_ - 1, so fetch_resume_ ==
    // now_ means the redirect penalty expires on the very next tick.
    if (now_ <= fetch_resume_ && fetch_block_branch_ == kInvalidSeqNum)
        wake = std::min(wake, fetch_resume_);
    wake = std::min<Cycle>(wake, max_cycles);
    if (wake <= now_)
        return;
    std::uint64_t span = wake - now_;

    const IdleCounters after = captureIdleCounters();
    const std::uint64_t da = after.ss_accesses - before.ss_accesses;
    if (da > 0) {
        // Stay strictly below the next whole-table clear; the tick
        // that crosses it must execute for real.
        const std::uint64_t dist = store_sets_->accessesUntilClear();
        span = std::min(span, (dist - 1) / da);
        if (span == 0)
            return;
    }

    const auto delta = [span](std::uint64_t a, std::uint64_t b) {
        return (a - b) * span;
    };
    stats_.stall_ckpt += delta(after.stall_ckpt, before.stall_ckpt);
    stats_.stall_stq += delta(after.stall_stq, before.stall_stq);
    stats_.stall_lq += delta(after.stall_lq, before.stall_lq);
    stats_.stall_sdb += delta(after.stall_sdb, before.stall_sdb);
    stats_.stall_sched += delta(after.stall_sched, before.stall_sched);
    stats_.stall_rf += delta(after.stall_rf, before.stall_rf);
    stats_.drain_block_head +=
        delta(after.drain_block_head, before.drain_block_head);
    stats_.drain_block_fence +=
        delta(after.drain_block_fence, before.drain_block_fence);
    stats_.temp_update_stalls +=
        delta(after.temp_update_stalls, before.temp_update_stalls);
    ckpts_.createStalls +=
        delta(after.ckpt_create_stalls, before.ckpt_create_stalls);
    stq_->allocFails +=
        delta(after.stq_alloc_fails, before.stq_alloc_fails);
    if (lcf_)
        lcf_->overflows +=
            delta(after.lcf_overflows, before.lcf_overflows);
    if (srl_)
        srl_->indexedReads +=
            delta(after.srl_indexed_reads, before.srl_indexed_reads);
    fence_.drainBlocked +=
        delta(after.fence_drain_blocked, before.fence_drain_blocked);
    store_sets_->addIdleAccesses(
        da * span, delta(after.ss_predictions, before.ss_predictions),
        delta(after.ss_deps, before.ss_deps));
    if (srl_)
        srl_occupancy_.observe(srl_->size(), span);

    now_ += span;
    stats_.cycles += span;
    stats_.skipped_cycles += span;
}

const ProcessorStats &
Processor::run(std::uint64_t max_cycles)
{
    if (!canSkipIdle()) {
        while (!done() && now_ < max_cycles)
            tick();
        return stats_;
    }
    while (!done() && now_ < max_cycles) {
        const IdleCounters before = captureIdleCounters();
        tick();
        if (!tick_progress_)
            skipQuiescentCycles(before, max_cycles);
    }
    return stats_;
}

void
Processor::attachProbeBus(obs::ProbeBus *bus)
{
    probe_ = bus;
    if (srl_)
        srl_->setProbe(bus, &now_);
    if (lcf_)
        lcf_->setProbe(bus, &now_);
    if (fc_)
        fc_->setProbe(bus, &now_);
    if (load_buffer_)
        load_buffer_->setProbe(bus, &now_);
    hier_->setProbe(bus, &now_);
}

void
Processor::attachSampler(obs::CounterSampler *sampler)
{
    sampler_ = sampler;
    if (!sampler)
        return;
    sampler->addGauge("window", [this] {
        return static_cast<std::uint64_t>(window_.size());
    });
    sampler->addGauge("sched", [this] {
        return static_cast<std::uint64_t>(
            sched_count_[0] + sched_count_[1] + sched_count_[2]);
    });
    sampler->addGauge("stq", [this] {
        return static_cast<std::uint64_t>(stq_->size());
    });
    sampler->addGauge("sdb", [this] {
        return static_cast<std::uint64_t>(sdb_.size());
    });
    sampler->addGauge("checkpoints", [this] {
        return static_cast<std::uint64_t>(ckpts_.liveCount());
    });
    sampler->addGauge("outstanding_misses", [this] {
        return static_cast<std::uint64_t>(outstanding_mem_misses_);
    });
    if (srl_) {
        sampler->addGauge("srl", [this] {
            return static_cast<std::uint64_t>(srl_->size());
        });
    }
    if (lcf_) {
        sampler->addGauge("lcf_nonzero", [this] {
            return static_cast<std::uint64_t>(
                lcf_->nonzeroCounters());
        });
    }
    if (fc_) {
        sampler->addGauge("fc_live", [this] {
            return static_cast<std::uint64_t>(fc_->liveEntries());
        });
    }
    if (load_buffer_) {
        sampler->addGauge("load_buffer", [this] {
            return static_cast<std::uint64_t>(
                load_buffer_->liveEntries());
        });
    }
    if (l2_stq_) {
        sampler->addGauge("l2_stq", [this] {
            return static_cast<std::uint64_t>(l2_stq_->size());
        });
    }
}

Addr
Processor::workloadSnoopAddr()
{
    // Hot-region word addresses: the region every suite touches, so
    // snoops actually collide with in-flight loads.
    return 0x1000'0000 + snoop_rng_.below(448) * 64 +
           snoop_rng_.below(8) * 8;
}

std::string
Processor::formatStats() const
{
    stats::StatGroup g("processor." + config_.name);

    // Pipeline-level values (doubles so StatGroup can reference them).
    // Reserved up front: StatGroup keeps raw pointers into the vector,
    // so it must never reallocate while the groups are alive.
    std::vector<double> vals;
    vals.reserve(64);
    auto add = [&](const char *name, double v, const char *desc) {
        vals.push_back(v);
        g.registerValue(name, &vals.back(), desc);
    };
    add("cycles", static_cast<double>(stats_.cycles), "elapsed cycles");
    add("committed_uops", static_cast<double>(stats_.committed_uops),
        "architecturally committed micro-ops");
    add("ipc", stats_.ipc(), "committed uops per cycle");
    add("committed_loads", static_cast<double>(stats_.committed_loads),
        "committed loads");
    add("committed_stores",
        static_cast<double>(stats_.committed_stores),
        "committed stores");
    add("mem_misses", static_cast<double>(stats_.mem_misses),
        "loads serviced by main memory");
    add("slice_uops", static_cast<double>(stats_.slice_uops),
        "uops that drained into the SDB");
    add("poisoned_stores", static_cast<double>(stats_.poisoned_stores),
        "miss-dependent stores");
    add("redone_stores", static_cast<double>(stats_.redone_stores),
        "stores drained through the SRL");
    add("srl_stalled_loads",
        static_cast<double>(stats_.srl_stalled_loads),
        "loads that stalled on the SRL");
    add("indexed_forwards",
        static_cast<double>(stats_.indexed_forwards),
        "loads served by LCF indexed forwarding");
    add("mem_violations", static_cast<double>(stats_.mem_violations),
        "memory-dependence violations");
    add("snoop_violations",
        static_cast<double>(stats_.snoop_violations),
        "external-snoop ordering violations");
    add("overflow_violations",
        static_cast<double>(stats_.overflow_violations),
        "load-buffer overflow violations");
    add("branch_mispredicts",
        static_cast<double>(stats_.branch_mispredicts),
        "mispredicted branches");
    add("rollbacks",
        static_cast<double>(ckpts_.rollbacks.value()),
        "checkpoint rollbacks");
    add("checkpoints_committed",
        static_cast<double>(ckpts_.committed.value()),
        "bulk-committed checkpoints");

    std::string out = g.format();

    stats::StatGroup lsu("lsu." + config_.name);
    lsu.registerScalar("l1stq.searches", &stq_->searches,
                       "L1 STQ CAM searches");
    lsu.registerScalar("l1stq.entries_searched",
                       &stq_->entriesSearched,
                       "L1 STQ CAM cells activated");
    lsu.registerScalar("l1stq.forwards", &stq_->forwards,
                       "L1 STQ store-to-load forwards");
    lsu.registerScalar("l1stq.blocks", &stq_->blocks,
                       "loads blocked by L1 STQ conflicts");
    if (l2_stq_) {
        lsu.registerScalar("l2stq.searches", &l2_stq_->searches,
                           "L2 STQ CAM searches");
        lsu.registerScalar("l2stq.forwards", &l2_stq_->forwards,
                           "L2 STQ forwards");
    }
    if (srl_) {
        lsu.registerScalar("srl.pushes", &srl_->pushes,
                           "stores entering the SRL");
        lsu.registerScalar("srl.dependent_pushes",
                           &srl_->dependentPushes,
                           "reserved (dependent) SRL slots");
        lsu.registerScalar("srl.drains", &srl_->drains,
                           "SRL cache re-updates");
        lsu.registerScalar("srl.indexed_reads", &srl_->indexedReads,
                           "indexed SRL slot reads");
    }
    if (lcf_) {
        lsu.registerScalar("lcf.checks", &lcf_->checks,
                           "LCF load-side checks");
        lsu.registerScalar("lcf.hits", &lcf_->hits,
                           "LCF non-zero counters seen");
        lsu.registerScalar("lcf.overflows", &lcf_->overflows,
                           "LCF counter saturations");
    }
    if (fc_) {
        lsu.registerScalar("fc.updates", &fc_->updates,
                           "forwarding-cache store updates");
        lsu.registerScalar("fc.lookups", &fc_->lookups,
                           "forwarding-cache load lookups");
        lsu.registerScalar("fc.hits", &fc_->hits,
                           "forwarding-cache hits");
        lsu.registerScalar("fc.live_evictions", &fc_->liveEvictions,
                           "live forwarding-cache evictions");
    }
    if (load_buffer_) {
        lsu.registerScalar("ldbuf.inserts", &load_buffer_->inserts,
                           "secondary load buffer inserts");
        lsu.registerScalar("ldbuf.set_lookups",
                           &load_buffer_->setLookups,
                           "set lookups by stores/snoops");
        lsu.registerScalar("ldbuf.violations",
                           &load_buffer_->violationsFlagged,
                           "violations flagged");
        lsu.registerScalar("ldbuf.overflows",
                           &load_buffer_->overflows,
                           "set overflows");
    }
    if (lq_) {
        lsu.registerScalar("ldq.cam_searches", &lq_->camSearches,
                           "conventional LQ CAM searches");
        lsu.registerScalar("ldq.cam_entries",
                           &lq_->camEntriesSearched,
                           "conventional LQ CAM cells activated");
        lsu.registerScalar("ldq.violations", &lq_->violations,
                           "LQ violations");
    }
    out += lsu.format();

    stats::StatGroup mem("memory." + config_.name);
    mem.registerScalar("l1d.hits", &hier_->l1().hits, "L1D hits");
    mem.registerScalar("l1d.misses", &hier_->l1().misses,
                       "L1D misses");
    mem.registerScalar("l1d.writebacks", &hier_->l1().writebacks,
                       "L1D writebacks");
    mem.registerScalar("l2.hits", &hier_->l2().hits, "L2 hits");
    mem.registerScalar("l2.misses", &hier_->l2().misses, "L2 misses");
    mem.registerScalar("mshr.merges", &hier_->mshrMerges,
                       "misses merged into in-flight fills");
    mem.registerScalar("mshr.full_events", &hier_->mshrFullEvents,
                       "load retries due to MSHR exhaustion");
    mem.registerScalar("store_drains", &hier_->storeDrains,
                       "stores drained to the cache");
    out += mem.format();
    return out;
}

} // namespace core
} // namespace srl
