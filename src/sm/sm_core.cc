/**
 * @file
 * SM core implementation.
 */

#include "sm/sm_core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace gqos
{

namespace
{

/** Max memory transactions one warp issues per cycle (LSU width). */
constexpr int lsuBurst = 4;

/** Store issue is throttled once the icnt backlog exceeds this. */
constexpr double storeThrottleBacklog = 256.0;

/** TB dispatch-to-first-issue latency. */
constexpr Cycle tbDispatchLatency = 30;

/** MSHR credits kept reachable per co-resident kernel. */
constexpr int mshrReserve = 2;

} // anonymous namespace

GpuClock::GpuClock(const GpuConfig &cfg)
    : iwSampleInterval(std::max<Cycle>(
          1, cfg.epochLength / cfg.iwSamplesPerEpoch))
{
}

SmCore::SmCore(const GpuConfig &cfg, SmId id, MemSystem &mem,
               std::shared_ptr<GpuClock> clock)
    : id_(id),
      numScheds_(cfg.warpSchedulersPerSm),
      maxWarps_(cfg.maxWarpsPerSm()),
      maxThreads_(cfg.maxThreadsPerSm),
      maxTbSlots_(cfg.maxTbsPerSm),
      regsTotal_(cfg.regsPerSm()),
      smemTotal_(cfg.sharedMemBytes),
      lsuPorts_(cfg.lsuPortsPerSm),
      mshrMax_(cfg.l1Mshrs),
      sfuLatency_(cfg.sfuLatency),
      drainCycles_(cfg.preemptDrainCycles),
      chargePreemptTraffic_(cfg.chargePreemptTraffic),
      mem_(&mem),
      clock_(clock ? std::move(clock)
                   : std::make_shared<GpuClock>(cfg)),
      warps_(cfg.maxWarpsPerSm()),
      tbs_(cfg.maxTbsPerSm),
      scheds_(cfg.warpSchedulersPerSm),
      schedSel_(cfg.warpSchedulersPerSm),
      mshrFree_(cfg.l1Mshrs)
{
    // One wake bit per SM and one bit per warp slot in 64-bit masks
    // (GpuConfig::check()).
    gqos_assert(id >= 0 && id < 64 && maxWarps_ <= 64);
    for (int slot = 0; slot < maxWarps_; ++slot)
        schedSel_[slot % numScheds_] |= std::uint64_t{1} << slot;
}

void
SmCore::bindKernels(const std::vector<const KernelRun *> &runs)
{
    gqos_assert(static_cast<int>(runs.size()) <= maxKernels);
    gqos_assert(totalResidentTbs() == 0);
    settle();
    requestWake();
    ++clock_->quotaVersion;
    viewDirty_ = true;
    runs_ = runs;
    for (auto &kc : kernels_)
        kc = KernelCtx();
    inertClass_.fill(CycleCat::InertSkipped);
    for (std::size_t k = 0; k < runs_.size(); ++k) {
        gqos_assert(runs_[k] != nullptr);
        gqos_assert(runs_[k]->id() == static_cast<KernelId>(k));
        kernels_[k].run = runs_[k];
    }
}

// ---------------------------------------------------------------
// TB lifecycle
// ---------------------------------------------------------------

bool
SmCore::canAccept(KernelId k) const
{
    if (k < 0 || k >= static_cast<int>(runs_.size()))
        return false;
    const KernelDesc &d = runs_[k]->desc();
    if (tbSlotsUsed_ >= maxTbSlots_)
        return false;
    if (threadsUsed_ + d.threadsPerTb > maxThreads_)
        return false;
    if (regsUsed_ + d.regsPerTb() > regsTotal_)
        return false;
    if (smemUsed_ + d.smemPerTb > smemTotal_)
        return false;
    return true;
}

bool
SmCore::dispatchTb(KernelId k, std::uint64_t tb_seq,
                   std::uint64_t launch_pos, Cycle now)
{
    if (!canAccept(k))
        return false;
    settle();
    requestWake();
    ++clock_->quotaVersion;
    viewDirty_ = true;
    const KernelRun &run = *runs_[k];
    const KernelDesc &d = run.desc();
    int warps_needed = d.warpsPerTb();

    int tb_slot = -1;
    for (int i = 0; i < maxTbSlots_; ++i) {
        if (!tbs_[i].valid) {
            tb_slot = i;
            break;
        }
    }
    gqos_assert(tb_slot >= 0);

    TbSlot &tb = tbs_[tb_slot];
    tb.warpSlots.clear();
    tb.kernel = k;
    tb.warpsTotal = static_cast<std::int16_t>(warps_needed);
    tb.warpsFinished = 0;
    tb.tbSeq = tb_seq;
    tb.valid = true;
    tb.draining = false;

    int found = 0;
    for (int wslot = 0; wslot < maxWarps_ && found < warps_needed;
         ++wslot) {
        Warp &w = warps_[wslot];
        if (w.state != WarpState::Invalid)
            continue;
        tb.warpSlots.push_back(static_cast<std::int16_t>(wslot));
        w = Warp();
        w.kernel = k;
        w.tbSlot = static_cast<std::int16_t>(tb_slot);
        w.age = tb_seq * 64 + found;
        w.rng.reseed(run.warpSeed(launch_pos, found));
        w.intensity =
            static_cast<float>(run.tbIntensity(launch_pos));
        std::uint64_t sid = (tb_seq *
            static_cast<std::uint64_t>(warps_needed) + found) &
            0xFFFFull;
        w.coldBase = run.coldBase() + (sid << 20);
        w.state = WarpState::Live;
        generateNext(w, run);
        refreshInstrMasks(wslot);
        kernelMask_[k] = setBit(kernelMask_[k], wslot);
        wakes_.add(wslot, now + tbDispatchLatency, now);
        found++;
    }
    gqos_assert(found == warps_needed);

    threadsUsed_ += d.threadsPerTb;
    regsUsed_ += d.regsPerTb();
    smemUsed_ += d.smemPerTb;
    tbSlotsUsed_++;
    kernels_[k].residentTbs++;
    rebuildAgeOrder();
    return true;
}

bool
SmCore::startPreemption(KernelId k, Cycle now)
{
    int victim = -1;
    std::uint64_t newest = 0;
    for (int i = 0; i < maxTbSlots_; ++i) {
        const TbSlot &tb = tbs_[i];
        if (tb.valid && !tb.draining && tb.kernel == k &&
            (victim < 0 || tb.tbSeq > newest)) {
            victim = i;
            newest = tb.tbSeq;
        }
    }
    if (victim < 0)
        return false;
    settle();
    requestWake();

    TbSlot &tb = tbs_[victim];
    tb.draining = true;
    kernels_[k].drainingTbs++;
    for (int wslot : tb.warpSlots) {
        Warp &w = warps_[wslot];
        if (w.state == WarpState::Live) {
            // A waiting warp's one pending wake goes with it.
            if (!testBit(ready_, wslot))
                wakes_.remove(wslot);
            w.state = WarpState::Draining;
        }
        clearSchedBits(wslot);
    }

    Cycle finish = now + drainCycles_;
    if (chargePreemptTraffic_) {
        const KernelDesc &d = runs_[k]->desc();
        Cycle t = mem_->injectContextTraffic(
            id_, d.contextBytesPerTb(), now);
        if (t > finish)
            finish = t;
    }
    drains_.push_back({finish, static_cast<std::int16_t>(victim)});
    stats_.preemptions++;
    return true;
}

void
SmCore::preemptAll(Cycle now)
{
    for (int i = 0; i < maxTbSlots_; ++i) {
        if (tbs_[i].valid && !tbs_[i].draining)
            startPreemption(tbs_[i].kernel, now);
    }
}

void
SmCore::processDrains(Cycle now)
{
    for (std::size_t i = 0; i < drains_.size();) {
        if (drains_[i].finishAt <= now) {
            int slot = drains_[i].slot;
            drains_[i] = drains_.back();
            drains_.pop_back();
            freeTb(slot, TbExit::Preempted);
        } else {
            ++i;
        }
    }
}

void
SmCore::freeTb(int tb_slot, TbExit exit)
{
    TbSlot &tb = tbs_[tb_slot];
    gqos_assert(tb.valid);
    KernelId k = tb.kernel;
    KernelCtx &kc = kernels_[k];
    const KernelDesc &d = kc.run->desc();

    for (int wslot : tb.warpSlots) {
        Warp &w = warps_[wslot];
        // A freed TB's warps all finished or were drained, and
        // startPreemption() cancelled the wakes of the drained ones,
        // so no wake of this slot is pending.
        gqos_assert(w.state != WarpState::Live);
        w.state = WarpState::Invalid;
        clearSchedBits(wslot);
        kernelMask_[k] = clearBit(kernelMask_[k], wslot);
    }
    viewDirty_ = true;
    ++clock_->quotaVersion;
    bool was_draining = tb.draining;
    tb.valid = false;
    tb.draining = false;

    threadsUsed_ -= d.threadsPerTb;
    regsUsed_ -= d.regsPerTb();
    smemUsed_ -= d.smemPerTb;
    tbSlotsUsed_--;
    kc.residentTbs--;
    if (was_draining)
        kc.drainingTbs--;
    gqos_assert(kc.residentTbs >= 0 && threadsUsed_ >= 0 &&
                kc.drainingTbs >= 0);

    rebuildAgeOrder();

    if (kc.residentTbs == 0)
        mem_->invalidateKernelL1(id_, k);

    if (tbEvent_)
        tbEvent_(id_, k, exit);
}

// ---------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------

void
SmCore::rebuildAgeOrder()
{
    for (int s = 0; s < numScheds_; ++s) {
        SchedulerState &sc = scheds_[s];
        std::uint8_t order[64];
        int count = 0;
        for (int slot = s; slot < maxWarps_; slot += numScheds_) {
            sc.ageRank[slot] = noAgeRank;
            if (warps_[slot].state != WarpState::Invalid)
                order[count++] = static_cast<std::uint8_t>(slot);
        }
        // Insertion sort by warp age (oldest first); count <= 64 and
        // rebuilds only happen on TB dispatch/free.
        for (int i = 1; i < count; ++i) {
            std::uint8_t slot = order[i];
            std::uint64_t a = warps_[slot].age;
            int j = i - 1;
            while (j >= 0 && warps_[order[j]].age > a) {
                order[j + 1] = order[j];
                j--;
            }
            order[j + 1] = slot;
        }
        for (int i = 0; i < count; ++i)
            sc.ageRank[order[i]] = static_cast<std::uint8_t>(i);
    }
}

void
SmCore::clearSchedBits(int warp_slot)
{
    ready_ = clearBit(ready_, warp_slot);
    loadMask_ = clearBit(loadMask_, warp_slot);
    storeMask_ = clearBit(storeMask_, warp_slot);
}

void
SmCore::refreshInstrMasks(int warp_slot)
{
    const InstrClass cls = warps_[warp_slot].next.cls;
    loadMask_ = cls == InstrClass::GlobalLoad
        ? setBit(loadMask_, warp_slot)
        : clearBit(loadMask_, warp_slot);
    storeMask_ = cls == InstrClass::GlobalStore
        ? setBit(storeMask_, warp_slot)
        : clearBit(storeMask_, warp_slot);
}

// ---------------------------------------------------------------
// Execution
// ---------------------------------------------------------------

void
SmCore::generateNext(Warp &w, const KernelRun &run)
{
    while (w.phaseIdx + 1 < run.numPhases() &&
           w.instrIdx >= run.phaseEnd(w.phaseIdx)) {
        w.phaseIdx++;
    }
    const PhaseRt &ph = run.phase(w.phaseIdx);
    NextInstr ni;
    ni.lanes = static_cast<std::uint8_t>(ph.lanes);
    // Grid-position intensity scales the memory ratio and the ALU
    // dependency latency (KernelDesc::tbVariance).
    double mem_thresh = ph.memThresh * w.intensity;
    if (mem_thresh > 0.95)
        mem_thresh = 0.95;
    double shift = mem_thresh - ph.memThresh;
    double u = w.rng.uniform();
    if (u < mem_thresh) {
        bool store = w.rng.uniform() < ph.storeFraction;
        int trans = ph.transBase +
            (w.rng.uniform() < ph.transFrac ? 1 : 0);
        ni.cls = store ? InstrClass::GlobalStore
                       : InstrClass::GlobalLoad;
        ni.transLeft = static_cast<std::uint8_t>(trans);
        ni.latency = 1;
    } else if (u < ph.sharedThresh + shift) {
        ni.cls = InstrClass::SharedMem;
        ni.latency = static_cast<std::uint16_t>(ph.smemLatency);
    } else if (u < ph.sfuThresh + shift) {
        ni.cls = InstrClass::Sfu;
        ni.latency = static_cast<std::uint16_t>(sfuLatency_);
    } else {
        ni.cls = InstrClass::Alu;
        ni.latency = static_cast<std::uint16_t>(
            ph.aluLatency * w.intensity + 0.5f);
    }
    w.next = ni;
}

Addr
SmCore::genAddress(Warp &w, const PhaseRt &ph, const KernelRun &run)
{
    if (w.rng.uniform() < ph.hotFraction) {
        Addr line = w.rng.below(ph.hotLines);
        return run.hotBase() + line * lineSizeBytes;
    }
    Addr line = w.coldCursor++ & 8191;
    return w.coldBase + line * lineSizeBytes;
}

void
SmCore::retireInstr(int warp_slot, Cycle ready_at, Cycle now)
{
    Warp &w = warps_[warp_slot];
    KernelCtx &kc = kernels_[w.kernel];
    kc.stats.threadInstrs += w.next.lanes;
    kc.stats.warpInstrs++;
    if (quotaGating_) {
        // Exhaustion gates the kernel from the next cycle on: the
        // running cycle keeps the view it started with.
        bool allowed = kc.quota > 0.0;
        kc.quota -= w.next.lanes;
        if (allowed && !(kc.quota > 0.0)) {
            viewDirty_ = true;
            ++clock_->quotaVersion;
        }
    }
    w.instrIdx++;
    if (w.instrIdx >= kc.run->desc().warpInstrPerTb) {
        finishWarp(warp_slot);
    } else {
        generateNext(w, *kc.run);
        refreshInstrMasks(warp_slot);
        // Every latency is >= 1 cycle (KernelDesc::check()).
        wakes_.add(warp_slot, ready_at, now);
    }
}

void
SmCore::finishWarp(int warp_slot)
{
    Warp &w = warps_[warp_slot];
    w.state = WarpState::Finished;
    clearSchedBits(warp_slot);
    TbSlot &tb = tbs_[w.tbSlot];
    tb.warpsFinished++;
    if (tb.warpsFinished == tb.warpsTotal && !tb.draining)
        freeTb(w.tbSlot, TbExit::Completed);
}

void
SmCore::issueWarp(int warp_slot, Cycle now)
{
    Warp &w = warps_[warp_slot];
    KernelCtx &kc = kernels_[w.kernel];
    const KernelRun &run = *kc.run;
    ready_ = clearBit(ready_, warp_slot);

    switch (w.next.cls) {
      case InstrClass::Alu:
      case InstrClass::Sfu:
      case InstrClass::SharedMem: {
        if (w.next.cls == InstrClass::Alu)
            stats_.issuedAlu++;
        else if (w.next.cls == InstrClass::Sfu)
            stats_.issuedSfu++;
        else
            stats_.issuedSmem++;
        retireInstr(warp_slot, now + w.next.latency, now);
        break;
      }
      case InstrClass::GlobalLoad: {
        const PhaseRt &ph = run.phase(w.phaseIdx);
        int burst = std::min({static_cast<int>(w.next.transLeft),
                              lsuBurst, mshrFree_});
        gqos_assert(burst >= 1);
        for (int i = 0; i < burst; ++i) {
            Addr addr = genAddress(w, ph, run);
            MemAccess acc = mem_->load(id_, w.kernel, addr, now);
            if (acc.l1Miss) {
                mshrFree_--;
                adjustMshrHeld(kc, +1);
                mshrRelease_.emplace(acc.readyAt, w.kernel);
            }
            if (acc.readyAt > w.memDoneAt)
                w.memDoneAt = acc.readyAt;
        }
        w.next.transLeft =
            static_cast<std::uint8_t>(w.next.transLeft - burst);
        if (w.next.transLeft > 0) {
            // Replay: remaining transactions re-arbitrate for the
            // LSU next cycle (access-splitting, as in GPGPU-Sim).
            wakes_.add(warp_slot, now + 1, now);
        } else {
            stats_.issuedLoads++;
            Cycle ready_at = std::max(w.memDoneAt, now + 1);
            w.memDoneAt = 0;
            retireInstr(warp_slot, ready_at, now);
        }
        break;
      }
      case InstrClass::GlobalStore: {
        const PhaseRt &ph = run.phase(w.phaseIdx);
        int burst = std::min(static_cast<int>(w.next.transLeft),
                             lsuBurst);
        for (int i = 0; i < burst; ++i) {
            Addr addr = genAddress(w, ph, run);
            mem_->store(id_, w.kernel, addr, now);
        }
        w.next.transLeft =
            static_cast<std::uint8_t>(w.next.transLeft - burst);
        if (w.next.transLeft > 0) {
            wakes_.add(warp_slot, now + 1, now);
        } else {
            stats_.issuedStores++;
            retireInstr(warp_slot, now + 4, now); // store buffer
        }
        break;
      }
    }
}

void
SmCore::rebuildView()
{
    // Kernels eligible under EWS quota gating, and the per-kernel
    // MSHR cap: leave a few credits reachable for every co-resident
    // kernel so memory-intensive sharers cannot starve the others'
    // loads.
    int nk = static_cast<int>(runs_.size());
    int resident_kernels = 0;
    for (int k = 0; k < nk; ++k) {
        if (kernels_[k].residentTbs > 0)
            resident_kernels++;
    }
    viewMshrCap_ = mshrMax_ -
        mshrReserve * std::max(0, resident_kernels - 1);
    std::uint32_t allowed = 0;
    std::uint32_t gated = 0;
    std::uint32_t mshr_ok = 0;
    for (int k = 0; k < nk; ++k) {
        if (!quotaGating_ || kernels_[k].quota > 0.0)
            allowed |= 1u << k;
        else if (kernels_[k].residentTbs > 0)
            gated |= 1u << k;
        if (kernels_[k].mshrHeld < viewMshrCap_)
            mshr_ok |= 1u << k;
    }
    viewAllowed_ = allowed;
    viewGated_ = gated;
    allowMask_ = 0;
    mshrBlock_ = 0;
    for (int k = 0; k < nk; ++k) {
        if (allowed & (1u << k))
            allowMask_ |= kernelMask_[k];
        if (!(mshr_ok & (1u << k)))
            mshrBlock_ |= kernelMask_[k];
    }
    viewDirty_ = false;
}

void
SmCore::adjustMshrHeld(KernelCtx &kc, int delta)
{
    bool was_ok = kc.mshrHeld < viewMshrCap_;
    kc.mshrHeld += delta;
    if (was_ok != (kc.mshrHeld < viewMshrCap_))
        viewDirty_ = true;
}

bool
SmCore::storeThrottled(Cycle now) const
{
    return mem_->interconnect().backlog(
        static_cast<double>(now)) > storeThrottleBacklog;
}

bool
SmCore::cycle(Cycle now, bool sample_iw, Cycle *next_event)
{
    settle();
    settledTo_ = now + 1;
    stats_.cycles++;
    ready_ |= wakes_.take(now);
    if (!drains_.empty())
        processDrains(now);
    while (!mshrRelease_.empty() && mshrRelease_.top().first <= now) {
        mshrFree_++;
        adjustMshrHeld(kernels_[mshrRelease_.top().second], -1);
        mshrRelease_.pop();
    }

    int nk = static_cast<int>(runs_.size());
    // The issue loop reads the view as of the cycle's start; events
    // inside the loop only mark it dirty for the next cycle.
    const std::uint32_t allowed = allowedKernels();
    const std::uint32_t gated = viewGated_;
    bool store_blocked = storeThrottled(now);

    int lsu_used = 0;
    bool any_issue = false;
    // Blocked-candidate facts for the next-event bound below. Only
    // meaningful when nothing issued: then lsu_used stayed 0 for
    // every scheduler, so only MSHR credits and the store throttle
    // could have masked a ready candidate.
    bool blocked_load = false;
    bool blocked_store = false;

    // Attribution snapshot: the issue loop consumes ready bits
    // (clearSchedBits / freeTb), so the per-kernel ready facts must
    // be captured before arbitration mutates them.
    std::uint32_t acct_ready = 0;
    std::uint32_t acct_nonmem = 0;
    std::uint32_t issued_kernels = 0;
    if (accounting_) {
        const std::uint64_t nonmem = ready_ & ~(loadMask_ | storeMask_);
        for (int k = 0; k < nk; ++k) {
            if (ready_ & kernelMask_[k])
                acct_ready |= 1u << k;
            if (nonmem & kernelMask_[k])
                acct_nonmem |= 1u << k;
        }
    }

    // The first scheduler is now % numScheds_, one further each
    // cycle; the division runs only after a cycle this SM skipped.
    int first = now == rotAt_ ? rotFirst_
                              : static_cast<int>(now % numScheds_);
    rotAt_ = now + 1;
    rotFirst_ = first + 1 == numScheds_ ? 0 : first + 1;
    for (int i = 0; i < numScheds_; ++i) {
        int s = first + i;
        if (s >= numScheds_)
            s -= numScheds_;

        // A TB freed earlier in this loop leaves its slots in the
        // view's masks, but those slots are no longer ready.
        std::uint64_t cand_pre = ready_ & allowMask_ & schedSel_[s];
        std::uint64_t cand = cand_pre;
        if (lsu_used >= lsuPorts_) {
            cand &= ~(loadMask_ | storeMask_);
        } else {
            if (mshrFree_ <= 0)
                cand &= ~loadMask_;
            else
                cand &= ~(loadMask_ & mshrBlock_);
            if (store_blocked)
                cand &= ~storeMask_;
        }
        if (!cand) {
            if (next_event) {
                // cand empty with candidates present means every
                // one was a masked load (MSHRs) or store (icnt
                // throttle): only those maskings can empty it.
                if (cand_pre & loadMask_)
                    blocked_load = true;
                if (cand_pre & storeMask_)
                    blocked_store = true;
            }
            continue;
        }

        // cand is a subset of ready_, which holds only Live slots,
        // and every Live slot has an age rank in its scheduler, so
        // GTO always picks.
        SchedulerState &sc = scheds_[s];
        int slot = pickGto(sc, cand, now);
        gqos_assert(slot >= 0);
        // A Live slot's class bits are its next instruction's class.
        bool is_mem = testBit(loadMask_ | storeMask_, slot);
        if (accounting_)
            issued_kernels |= 1u << warps_[slot].kernel;
        issueWarp(slot, now);
        if (is_mem)
            lsu_used++;
        sc.lastIssued = slot;
        sc.lastIssueAt = now;
        any_issue = true;
    }

    if (any_issue)
        stats_.activeCycles++;

    // An issuing cycle that leaves no warp ready owes the bound of
    // the empty cycle after it: nothing can issue before the next
    // wake, so that cycle is inert unless a wake, drain or MSHR pop
    // falls on it, and the bound below stops there.
    const bool bound_owed =
        next_event && (!any_issue || !ready_);
    if (bound_owed) {
        // Every input of the arbitration above stays frozen until
        // the earliest of: a wake, a drain, an MSHR release that
        // unblocks a load (or is due the cycle after the first
        // inert one, since the pop mutates the pool), or the icnt
        // backlog decaying below the store threshold. Those are
        // also the idle-warp sampling inputs, so a skip must stop
        // there. An issuing cycle blocked nothing: its blocked
        // candidates would still be ready.
        const Cycle first_inert = any_issue ? now + 1 : now;
        Cycle next = cycleNever;
        if (!mshrRelease_.empty() &&
            (blocked_load ||
             mshrRelease_.top().first <= first_inert + 1)) {
            next = mshrRelease_.top().first;
        } else if (blocked_load) {
            next = now + 1; // empty queue: never over-skip
        }
        if (blocked_store) {
            next = std::min(next, mem_->interconnect().unblockCycle(
                                      storeThrottleBacklog));
        }
        for (const Drain &d : drains_)
            next = std::min(next, d.finishAt);
        *next_event = std::min(next, wakes_.next(now + 1));
        parkStoreBlocked_ = store_blocked;
    }

    epochCycles_++;
    addGatedCycles(gated, 1);

    if (accounting_) {
        // Exactly one category per bound kernel per cycle keeps the
        // conservation invariant (sum == stats_.cycles) structural.
        // residentTbs/drainingTbs of a non-issuing kernel are
        // unchanged by the issue loop, so post-loop reads match the
        // pre-arbitration state the snapshot captured.
        for (int k = 0; k < nk; ++k) {
            CycleCat cat = (issued_kernels & (1u << k))
                ? CycleCat::Issued
                : classifyStalled(k, allowed,
                                  (acct_ready >> k) & 1,
                                  (acct_nonmem >> k) & 1);
            kernels_[k].breakdown.add(cat, 1);
            // A parked cycle replays the classification of the
            // no-issue cycle that froze the state.
            if (!any_issue)
                inertClass_[k] = cat;
        }
        // After an issuing cycle the parked span replays the empty
        // cycle that would follow: no warp ready, under the view
        // that cycle would rebuild from this one's retirements.
        if (any_issue && bound_owed) {
            const std::uint32_t next_allowed = allowedKernels();
            for (int k = 0; k < nk; ++k)
                inertClass_[k] =
                    classifyStalled(k, next_allowed, false, false);
        }
    }

    if (sample_iw)
        sampleIdleWarps(allowed, lsu_used >= lsuPorts_, store_blocked, 1);
    return any_issue && !bound_owed;
}

// ---------------------------------------------------------------
// Event-engine control points
// ---------------------------------------------------------------

CycleCat
SmCore::classifyStalled(int k, std::uint32_t allowed, bool any_ready,
                        bool any_nonmem_ready) const
{
    const KernelCtx &kc = kernels_[k];
    if (kc.drainingTbs > 0)
        return CycleCat::DrainPreempt;
    if (quotaGating_ && kc.residentTbs > 0 &&
        !(allowed & (1u << k)))
        return CycleCat::QuotaGated;
    if (any_ready) {
        // Ready warps but no issue: when every ready warp is a
        // global load/store, the kernel is blocked on MSHR credits,
        // the icnt store throttle, or LSU arbitration — a memory
        // stall. A ready ALU/SFU/shared warp instead lost plain
        // issue arbitration this cycle.
        return any_nonmem_ready ? CycleCat::NoReadyWarp
                                : CycleCat::MemStall;
    }
    if (kc.residentTbs > 0)
        return CycleCat::NoReadyWarp;
    return CycleCat::InertSkipped;
}

void
SmCore::settleSpan()
{
    const Cycle from = settledTo_;
    const Cycle to = clock_->now;
    const Cycle span = to - from;
    settledTo_ = to;
    stats_.cycles += span;
    epochCycles_ += span;
    if (viewDirty_)
        rebuildView();
    addGatedCycles(viewGated_, span);

    if (accounting_) {
        // Every classification input (ready/instr masks, residency,
        // drains, quota gating, MSHR credits, store throttle) is
        // frozen across a parked span -- the cycle() that wrote
        // inertClass_ also bounded the span at the first cycle any
        // of them could change -- so each parked cycle classifies
        // exactly as the per-cycle engine would have.
        int nk = static_cast<int>(runs_.size());
        for (int k = 0; k < nk; ++k)
            kernels_[k].breakdown.add(inertClass_[k], span);
    }

    // Idle-warp samples fall on the multiples of the interval; every
    // sampling input is frozen across the span, so each sample in
    // [from, to) contributes the same value. The LSU is never full
    // on an inert cycle.
    const Cycle i = clock_->iwSampleInterval;
    const Cycle samples = divCeil(to, i) - divCeil(from, i);
    if (samples > 0)
        sampleIdleWarps(viewAllowed_, false, parkStoreBlocked_,
                        samples);
}

void
SmCore::addGatedCycles(std::uint32_t gated, Cycle span)
{
    // Track the fraction of time each kernel spends quota-gated;
    // the static allocator uses it to estimate a throttled kernel's
    // true capability.
    for (; gated; gated &= gated - 1)
        kernels_[std::countr_zero(gated)].stats.gatedCycles += span;
}

void
SmCore::sampleIdleWarps(std::uint32_t allowed, bool lsu_full,
                        bool store_blocked, Cycle samples)
{
    // Idle warps: ready but not issued this cycle. Warps whose next
    // instruction is blocked on a saturated LSU / empty MSHR pool
    // are *not* idle TLP -- they feed memory-level parallelism -- so
    // they are excluded for kernels that are allowed to issue. For
    // a quota-gated kernel every ready warp counts: that is exactly
    // the idle capacity the static allocator may donate (Section
    // 3.6 victim condition 2).
    int nk = static_cast<int>(runs_.size());
    for (int k = 0; k < nk; ++k)
        kernels_[k].stats.iwSamples +=
            static_cast<std::uint32_t>(samples);
    if (!ready_)
        return; // every sample records zero idle warps
    std::uint64_t blocked_cls = 0;
    if (lsu_full) {
        blocked_cls = loadMask_ | storeMask_;
    } else {
        if (mshrFree_ <= 0)
            blocked_cls |= loadMask_;
        if (store_blocked)
            blocked_cls |= storeMask_;
    }
    for (int k = 0; k < nk; ++k) {
        std::uint64_t ready_k = ready_ & kernelMask_[k];
        std::uint64_t idle = (allowed & (1u << k))
            ? ready_k & ~blocked_cls
            : ready_k;
        kernels_[k].stats.iwSampleSum +=
            static_cast<std::uint64_t>(popCount(idle)) * samples;
    }
}

// ---------------------------------------------------------------
// Quota interface
// ---------------------------------------------------------------

void
SmCore::setQuotaGating(bool on)
{
    settle();
    quotaGating_ = on;
    viewDirty_ = true;
    requestWake();
    ++clock_->quotaVersion;
}

void
SmCore::setCycleAccounting(bool on)
{
    // Enabling mid-run would break conservation: cycles before the
    // switch were never attributed.
    gqos_assert(!on || stats_.cycles == 0);
    settle();
    accounting_ = on;
    requestWake();
}

void
SmCore::setQuota(KernelId k, double q)
{
    gqos_assert(k >= 0 && k < maxKernels);
    settle();
    kernels_[k].quota = q;
    viewDirty_ = true;
    requestWake();
    ++clock_->quotaVersion;
}

void
SmCore::addQuota(KernelId k, double q)
{
    gqos_assert(k >= 0 && k < maxKernels);
    settle();
    kernels_[k].quota += q;
    kernels_[k].stats.quotaRefills++;
    viewDirty_ = true;
    requestWake();
    ++clock_->quotaVersion;
}

double
SmCore::quota(KernelId k) const
{
    gqos_assert(k >= 0 && k < maxKernels);
    return kernels_[k].quota;
}

bool
SmCore::allQuotasExhausted() const
{
    for (std::size_t k = 0; k < runs_.size(); ++k) {
        if (kernels_[k].residentTbs > 0 && kernels_[k].quota > 0.0)
            return false;
    }
    return true;
}

// ---------------------------------------------------------------
// Occupancy and statistics
// ---------------------------------------------------------------

int
SmCore::residentTbs(KernelId k) const
{
    gqos_assert(k >= 0 && k < maxKernels);
    return kernels_[k].residentTbs;
}

int
SmCore::totalResidentTbs() const
{
    return tbSlotsUsed_;
}

const SmKernelStats &
SmCore::kernelStats(KernelId k) const
{
    gqos_assert(k >= 0 && k < maxKernels);
    settle();
    return kernels_[k].stats;
}

double
SmCore::iwAverage(KernelId k) const
{
    gqos_assert(k >= 0 && k < maxKernels);
    settle();
    const SmKernelStats &s = kernels_[k].stats;
    return s.iwSamples ? static_cast<double>(s.iwSampleSum) /
                         s.iwSamples
                       : 0.0;
}

double
SmCore::gatedFraction(KernelId k) const
{
    gqos_assert(k >= 0 && k < maxKernels);
    settle();
    if (epochCycles_ == 0)
        return 0.0;
    return static_cast<double>(kernels_[k].stats.gatedCycles) /
           epochCycles_;
}

void
SmCore::resetIwSamples()
{
    settle();
    for (auto &kc : kernels_) {
        kc.stats.iwSampleSum = 0;
        kc.stats.iwSamples = 0;
        kc.stats.gatedCycles = 0;
    }
    epochCycles_ = 0;
}

} // namespace gqos
