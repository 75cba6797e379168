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

SmCore::SmCore(const GpuConfig &cfg, SmId id, MemSystem &mem)
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
      policy_(cfg.schedPolicy),
      mem_(&mem),
      warps_(cfg.maxWarpsPerSm()),
      tbs_(cfg.maxTbsPerSm),
      scheds_(cfg.warpSchedulersPerSm),
      wakeRing_(wakeRingSize_),
      wakeToken_(cfg.maxWarpsPerSm(), 0),
      mshrFree_(cfg.l1Mshrs)
{
}

void
SmCore::bindKernels(const std::vector<const KernelRun *> &runs)
{
    gqos_assert(static_cast<int>(runs.size()) <= maxKernels);
    gqos_assert(totalResidentTbs() == 0);
    settle();
    mutVersion_++;
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
    mutVersion_++;
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
        w.readyAt = now + tbDispatchLatency;
        SchedulerState &sc = scheds_[schedOf(wslot)];
        sc.kernelMask[k] = setBit(sc.kernelMask[k], laneOf(wslot));
        scheduleWake(wslot, w.readyAt);
        found++;
    }
    gqos_assert(found == warps_needed);

    threadsUsed_ += d.threadsPerTb;
    regsUsed_ += d.regsPerTb();
    smemUsed_ += d.smemPerTb;
    tbSlotsUsed_++;
    kernels_[k].residentTbs++;
    kernels_[k].residentWarps += warps_needed;
    for (int s = 0; s < numScheds_; ++s)
        rebuildAgeOrder(s);
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
    mutVersion_++;

    TbSlot &tb = tbs_[victim];
    tb.draining = true;
    kernels_[k].drainingTbs++;
    for (int wslot : tb.warpSlots) {
        Warp &w = warps_[wslot];
        if (w.state == WarpState::Live)
            w.state = WarpState::Draining;
        SchedulerState &sc = scheds_[schedOf(wslot)];
        int lane = laneOf(wslot);
        sc.ready = clearBit(sc.ready, lane);
        sc.loadMask = clearBit(sc.loadMask, lane);
        sc.storeMask = clearBit(sc.storeMask, lane);
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
            freeTb(slot, TbExit::Preempted, now);
        } else {
            ++i;
        }
    }
}

void
SmCore::freeTb(int tb_slot, TbExit exit, Cycle now)
{
    TbSlot &tb = tbs_[tb_slot];
    gqos_assert(tb.valid);
    KernelId k = tb.kernel;
    KernelCtx &kc = kernels_[k];
    const KernelDesc &d = kc.run->desc();

    for (int wslot : tb.warpSlots) {
        Warp &w = warps_[wslot];
        w.state = WarpState::Invalid;
        wakeToken_[wslot]++; // invalidate outstanding wake entries
        SchedulerState &sc = scheds_[schedOf(wslot)];
        int lane = laneOf(wslot);
        sc.ready = clearBit(sc.ready, lane);
        sc.loadMask = clearBit(sc.loadMask, lane);
        sc.storeMask = clearBit(sc.storeMask, lane);
        sc.kernelMask[k] = clearBit(sc.kernelMask[k], lane);
    }
    bool was_draining = tb.draining;
    tb.valid = false;
    tb.draining = false;

    threadsUsed_ -= d.threadsPerTb;
    regsUsed_ -= d.regsPerTb();
    smemUsed_ -= d.smemPerTb;
    tbSlotsUsed_--;
    kc.residentTbs--;
    kc.residentWarps -= d.warpsPerTb();
    if (was_draining)
        kc.drainingTbs--;
    gqos_assert(kc.residentTbs >= 0 && threadsUsed_ >= 0 &&
                kc.drainingTbs >= 0);

    for (int s = 0; s < numScheds_; ++s)
        rebuildAgeOrder(s);

    if (kc.residentTbs == 0)
        mem_->invalidateKernelL1(id_, k);

    if (tbEvent_)
        tbEvent_(id_, k, exit);
    (void)now;
}

// ---------------------------------------------------------------
// Wake machinery
// ---------------------------------------------------------------

void
SmCore::rebuildAgeOrder(int sched)
{
    SchedulerState &sc = scheds_[sched];
    sc.ageCount = 0;
    for (int lane = 0; lane < maxWarps_ / numScheds_; ++lane) {
        int slot = slotOf(sched, lane);
        if (warps_[slot].state != WarpState::Invalid)
            sc.ageOrder[sc.ageCount++] =
                static_cast<std::uint8_t>(lane);
    }
    // Insertion sort by warp age (oldest first); ageCount <= 64 and
    // rebuilds only happen on TB dispatch/free.
    for (int i = 1; i < sc.ageCount; ++i) {
        std::uint8_t lane = sc.ageOrder[i];
        std::uint64_t a = warps_[slotOf(sched, lane)].age;
        int j = i - 1;
        while (j >= 0 &&
               warps_[slotOf(sched, sc.ageOrder[j])].age > a) {
            sc.ageOrder[j + 1] = sc.ageOrder[j];
            j--;
        }
        sc.ageOrder[j + 1] = lane;
    }
}

void
SmCore::scheduleWake(int warp_slot, Cycle at)
{
    std::uint32_t token = ++wakeToken_[warp_slot];
    std::size_t idx = at & (wakeRingSize_ - 1);
    wakeRing_[idx].push_back(
        {static_cast<std::uint16_t>(warp_slot), token});
    wakeBits_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    pendingWakes_++;
}

void
SmCore::processWakes(Cycle now)
{
    auto &bucket = wakeRing_[now & (wakeRingSize_ - 1)];
    if (bucket.empty())
        return;
    pendingWakes_ -= static_cast<std::int64_t>(bucket.size());
    gqos_assert(pendingWakes_ >= 0);
    // A wake scheduled more than one ring revolution ahead would
    // alias; scheduleWakeClamped() below prevents that.
    for (const WakeEntry &e : bucket) {
        if (wakeToken_[e.warp] != e.token)
            continue;
        Warp &w = warps_[e.warp];
        if (w.state != WarpState::Live)
            continue;
        if (w.readyAt <= now) {
            markReady(e.warp);
        } else {
            Cycle at = w.readyAt;
            if (at - now >= wakeRingSize_)
                at = now + wakeRingSize_ - 1;
            scheduleWake(e.warp, at);
        }
    }
    bucket.clear();
    // Re-wakes above always land in a different bucket (0 < at - now
    // < ring size), so clearing this bucket's occupancy bit last is
    // safe.
    std::size_t idx = now & (wakeRingSize_ - 1);
    wakeBits_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
}

void
SmCore::markReady(int warp_slot)
{
    SchedulerState &sc = scheds_[schedOf(warp_slot)];
    sc.ready = setBit(sc.ready, laneOf(warp_slot));
    refreshInstrMasks(warp_slot);
}

void
SmCore::clearSchedBits(int warp_slot)
{
    SchedulerState &sc = scheds_[schedOf(warp_slot)];
    int lane = laneOf(warp_slot);
    sc.ready = clearBit(sc.ready, lane);
    sc.loadMask = clearBit(sc.loadMask, lane);
    sc.storeMask = clearBit(sc.storeMask, lane);
}

void
SmCore::refreshInstrMasks(int warp_slot)
{
    SchedulerState &sc = scheds_[schedOf(warp_slot)];
    int lane = laneOf(warp_slot);
    const Warp &w = warps_[warp_slot];
    if (w.next.cls == InstrClass::GlobalLoad) {
        sc.loadMask = setBit(sc.loadMask, lane);
        sc.storeMask = clearBit(sc.storeMask, lane);
    } else if (w.next.cls == InstrClass::GlobalStore) {
        sc.storeMask = setBit(sc.storeMask, lane);
        sc.loadMask = clearBit(sc.loadMask, lane);
    } else {
        sc.loadMask = clearBit(sc.loadMask, lane);
        sc.storeMask = clearBit(sc.storeMask, lane);
    }
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
SmCore::retireInstr(Warp &w, KernelCtx &kc, Cycle ready_at)
{
    kc.stats.threadInstrs += w.next.lanes;
    kc.stats.warpInstrs++;
    if (quotaGating_)
        kc.quota -= w.next.lanes;
    w.instrIdx++;
    w.readyAt = ready_at;
}

void
SmCore::finishWarp(int warp_slot, Cycle now)
{
    Warp &w = warps_[warp_slot];
    w.state = WarpState::Finished;
    clearSchedBits(warp_slot);
    TbSlot &tb = tbs_[w.tbSlot];
    tb.warpsFinished++;
    if (tb.warpsFinished == tb.warpsTotal && !tb.draining)
        freeTb(w.tbSlot, TbExit::Completed, now);
}

void
SmCore::issueWarp(int warp_slot, Cycle now)
{
    Warp &w = warps_[warp_slot];
    KernelCtx &kc = kernels_[w.kernel];
    const KernelRun &run = *kc.run;
    clearSchedBits(warp_slot);

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
        Cycle ready_at = now + w.next.latency;
        retireInstr(w, kc, ready_at);
        if (w.instrIdx >= run.desc().warpInstrPerTb) {
            finishWarp(warp_slot, now);
        } else {
            generateNext(w, run);
            scheduleWake(warp_slot, ready_at);
        }
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
                kc.mshrHeld++;
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
            w.readyAt = now + 1;
            scheduleWake(warp_slot, w.readyAt);
        } else {
            stats_.issuedLoads++;
            Cycle ready_at = std::max(w.memDoneAt, now + 1);
            w.memDoneAt = 0;
            retireInstr(w, kc, ready_at);
            if (w.instrIdx >= run.desc().warpInstrPerTb) {
                finishWarp(warp_slot, now);
            } else {
                generateNext(w, run);
                scheduleWake(warp_slot, ready_at);
            }
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
            w.readyAt = now + 1;
            scheduleWake(warp_slot, w.readyAt);
        } else {
            stats_.issuedStores++;
            Cycle ready_at = now + 4; // store-buffer latency
            retireInstr(w, kc, ready_at);
            if (w.instrIdx >= run.desc().warpInstrPerTb) {
                finishWarp(warp_slot, now);
            } else {
                generateNext(w, run);
                scheduleWake(warp_slot, ready_at);
            }
        }
        break;
      }
    }
}

std::uint32_t
SmCore::allowedKernelMask() const
{
    // Kernels eligible under EWS quota gating this cycle.
    std::uint32_t allowed = 0;
    int nk = static_cast<int>(runs_.size());
    for (int k = 0; k < nk; ++k) {
        if (!quotaGating_ || kernels_[k].quota > 0.0)
            allowed |= 1u << k;
    }
    return allowed;
}

std::uint32_t
SmCore::mshrOkKernelMask() const
{
    // Per-kernel MSHR cap: leave a few credits reachable for every
    // co-resident kernel so memory-intensive sharers cannot starve
    // the others' loads.
    int nk = static_cast<int>(runs_.size());
    int resident_kernels = 0;
    for (int k = 0; k < nk; ++k) {
        if (kernels_[k].residentTbs > 0)
            resident_kernels++;
    }
    int mshr_cap = mshrMax_ -
        mshrReserve * std::max(0, resident_kernels - 1);
    std::uint32_t mshr_ok = 0;
    for (int k = 0; k < nk; ++k) {
        if (kernels_[k].mshrHeld < mshr_cap)
            mshr_ok |= 1u << k;
    }
    return mshr_ok;
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
    stats_.cycles++;
    processWakes(now);
    if (!drains_.empty())
        processDrains(now);
    while (!mshrRelease_.empty() && mshrRelease_.top().first <= now) {
        mshrFree_++;
        kernels_[mshrRelease_.top().second].mshrHeld--;
        mshrRelease_.pop();
    }

    int nk = static_cast<int>(runs_.size());
    std::uint32_t allowed = allowedKernelMask();
    std::uint32_t mshr_ok = mshrOkKernelMask();
    bool store_blocked = storeThrottled(now);

    int lsu_used = 0;
    bool any_issue = false;
    // Blocked-candidate facts for the next-event bound below. Only
    // meaningful when nothing issued: then lsu_used stayed 0 for
    // every scheduler, so only MSHR credits and the store throttle
    // could have masked a ready candidate.
    bool blocked_load = false;
    bool blocked_store = false;
    bool pick_declined = false;

    // Attribution snapshot: the issue loop consumes scheduler bits
    // (clearSchedBits / freeTb), so the per-kernel ready facts must
    // be captured before arbitration mutates them.
    std::uint32_t acct_ready = 0;
    std::uint32_t acct_nonmem = 0;
    std::uint32_t issued_kernels = 0;
    if (accounting_) {
        for (int s = 0; s < numScheds_; ++s) {
            const SchedulerState &sc = scheds_[s];
            std::uint64_t mem_mask = sc.loadMask | sc.storeMask;
            for (int k = 0; k < nk; ++k) {
                std::uint64_t r = sc.ready & sc.kernelMask[k];
                if (r)
                    acct_ready |= 1u << k;
                if (r & ~mem_mask)
                    acct_nonmem |= 1u << k;
            }
        }
    }

    int first = static_cast<int>(now % numScheds_);
    for (int i = 0; i < numScheds_; ++i) {
        int s = first + i;
        if (s >= numScheds_)
            s -= numScheds_;
        SchedulerState &sc = scheds_[s];

        std::uint64_t allow_mask = 0;
        std::uint64_t mshr_block = 0;
        for (int k = 0; k < nk; ++k) {
            if (allowed & (1u << k))
                allow_mask |= sc.kernelMask[k];
            if (!(mshr_ok & (1u << k)))
                mshr_block |= sc.kernelMask[k];
        }
        std::uint64_t cand_pre = sc.ready & allow_mask;
        std::uint64_t cand = cand_pre;
        if (lsu_used >= lsuPorts_) {
            cand &= ~(sc.loadMask | sc.storeMask);
        } else {
            if (mshrFree_ <= 0)
                cand &= ~sc.loadMask;
            else
                cand &= ~(sc.loadMask & mshr_block);
            if (store_blocked)
                cand &= ~sc.storeMask;
        }
        if (!cand) {
            if (next_event) {
                // cand empty with candidates present means every
                // one was a masked load (MSHRs) or store (icnt
                // throttle): only those maskings can empty it.
                if (cand_pre & sc.loadMask)
                    blocked_load = true;
                if (cand_pre & sc.storeMask)
                    blocked_store = true;
            }
            sc.lastIssued = -1;
            continue;
        }

        int lane;
        if (policy_ == SchedPolicy::Gto) {
            lane = pickGto(sc, cand);
        } else {
            lane = pickLrr(sc, cand);
        }
        if (lane < 0) {
            pick_declined = true;
            sc.lastIssued = -1;
            continue;
        }
        int slot = slotOf(s, lane);
        bool is_mem =
            warps_[slot].next.cls == InstrClass::GlobalLoad ||
            warps_[slot].next.cls == InstrClass::GlobalStore;
        if (accounting_)
            issued_kernels |= 1u << warps_[slot].kernel;
        issueWarp(slot, now);
        if (is_mem)
            lsu_used++;
        sc.lastIssued = lane;
        any_issue = true;
    }

    if (any_issue)
        stats_.activeCycles++;

    if (!any_issue && next_event) {
        // Nothing issued, so every input of the arbitration above
        // stays frozen until the earliest of: a wake, a drain, an
        // MSHR release that unblocks a load (or is due next cycle,
        // since the pop mutates the pool), or the icnt backlog
        // decaying below the store threshold. Those are also the
        // idle-warp sampling inputs, so a skip must stop there. A
        // declined pick is not derivable from the masks and forces
        // a step next cycle.
        Cycle next = cycleNever;
        if (pick_declined) {
            next = now + 1;
        } else {
            if (!mshrRelease_.empty() &&
                (blocked_load ||
                 mshrRelease_.top().first <= now + 1)) {
                next = std::min(next, mshrRelease_.top().first);
            } else if (blocked_load) {
                next = now + 1; // empty queue: never over-skip
            }
            if (blocked_store) {
                next = std::min(
                    next, mem_->interconnect().unblockCycle(
                              storeThrottleBacklog));
            }
        }
        for (const Drain &d : drains_)
            next = std::min(next, d.finishAt);
        // Never skip across a nonempty wake bucket (stale-token
        // entries only make this conservative).
        if (pendingWakes_ > 0)
            next = std::min(next, nextWakeAfter(now));
        *next_event = next;
    }

    epochCycles_++;
    addGatedCycles(allowed, 1);

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
            // A deferred inert cycle replays the classification of
            // the no-issue cycle that froze the state.
            if (!any_issue)
                inertClass_[k] = cat;
        }
    }

    if (sample_iw)
        sampleIdleWarps(allowed, lsu_used >= lsuPorts_, store_blocked, 1);
    return any_issue;
}

// ---------------------------------------------------------------
// Event-engine control points
// ---------------------------------------------------------------

/**
 * First nonempty wake bucket strictly after @p now, or cycleNever.
 * Word-at-a-time scan over the occupancy bitmap; the wrap
 * iteration (i == nwords) re-visits the start word's low bits,
 * which map to the far end of the ring revolution.
 */
Cycle
SmCore::nextWakeAfter(Cycle now) const
{
    constexpr int nwords = wakeRingSize_ / 64;
    const int start =
        static_cast<int>((now + 1) & (wakeRingSize_ - 1));
    int wi = start >> 6;
    std::uint64_t word =
        wakeBits_[wi] & (~std::uint64_t{0} << (start & 63));
    for (int i = 0; i <= nwords; ++i) {
        if (i == nwords)
            word = wakeBits_[start >> 6] &
                   ~(~std::uint64_t{0} << (start & 63));
        if (word) {
            int idx = (wi << 6) + std::countr_zero(word);
            return now + 1 +
                   static_cast<Cycle>(
                       (idx - start) & (wakeRingSize_ - 1));
        }
        wi = (wi + 1) & (nwords - 1);
        word = wakeBits_[wi];
    }
    return cycleNever;
}

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
SmCore::applyInertSpan(Cycle span)
{
    stats_.cycles += span;
    epochCycles_ += span;
    // The reference loop resets every scheduler's greedy hint on a
    // no-candidate cycle; every skipped cycle is one.
    for (int s = 0; s < numScheds_; ++s)
        scheds_[s].lastIssued = -1;

    addGatedCycles(allowedKernelMask(), span);

    if (accounting_) {
        // Every classification input (ready/instr masks, residency,
        // drains, quota gating, MSHR credits, store throttle) is
        // frozen across an inert span -- the no-issue cycle() that
        // wrote inertClass_ also bounded the span at the first
        // cycle any of them could change -- so each skipped cycle
        // classifies exactly as the per-cycle engine would have.
        int nk = static_cast<int>(runs_.size());
        for (int k = 0; k < nk; ++k)
            kernels_[k].breakdown.add(inertClass_[k], span);
    }
}

void
SmCore::settleDeferred()
{
    Cycle span = deferredInert_;
    deferredInert_ = 0;
    applyInertSpan(span);
}

void
SmCore::skipCycles(Cycle now, Cycle span, Cycle samples)
{
    gqos_assert(span >= 1);
    settle();
    applyInertSpan(span);
    // Every sampling input is frozen across the span (see
    // applyInertSpan), so each sample contributes the same value.
    // The LSU is never full on a no-issue cycle.
    if (samples > 0)
        sampleIdleWarps(allowedKernelMask(), false, storeThrottled(now),
                        samples);
}

void
SmCore::addGatedCycles(std::uint32_t allowed, Cycle span)
{
    // Track the fraction of time each kernel spends quota-gated;
    // the static allocator uses it to estimate a throttled kernel's
    // true capability.
    if (!quotaGating_)
        return;
    int nk = static_cast<int>(runs_.size());
    for (int k = 0; k < nk; ++k) {
        if (!(allowed & (1u << k)) && kernels_[k].residentTbs > 0)
            kernels_[k].stats.gatedCycles += span;
    }
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
    for (int s = 0; s < numScheds_; ++s) {
        const SchedulerState &sc = scheds_[s];
        std::uint64_t blocked_cls = 0;
        if (lsu_full) {
            blocked_cls = sc.loadMask | sc.storeMask;
        } else {
            if (mshrFree_ <= 0)
                blocked_cls |= sc.loadMask;
            if (store_blocked)
                blocked_cls |= sc.storeMask;
        }
        for (int k = 0; k < nk; ++k) {
            std::uint64_t ready_k = sc.ready & sc.kernelMask[k];
            std::uint64_t idle = (allowed & (1u << k))
                ? ready_k & ~blocked_cls
                : ready_k;
            kernels_[k].stats.iwSampleSum +=
                static_cast<std::uint64_t>(popCount(idle)) * samples;
        }
    }
    for (int k = 0; k < nk; ++k)
        kernels_[k].stats.iwSamples +=
            static_cast<std::uint32_t>(samples);
}

// ---------------------------------------------------------------
// Quota interface
// ---------------------------------------------------------------

void
SmCore::setQuotaGating(bool on)
{
    settle();
    quotaGating_ = on;
    mutVersion_++;
}

void
SmCore::setCycleAccounting(bool on)
{
    // Enabling mid-run would break conservation: cycles before the
    // switch were never attributed.
    gqos_assert(!on || stats_.cycles == 0);
    settle();
    accounting_ = on;
    mutVersion_++;
}

void
SmCore::setQuota(KernelId k, double q)
{
    gqos_assert(k >= 0 && k < maxKernels);
    settle();
    kernels_[k].quota = q;
    mutVersion_++;
}

void
SmCore::addQuota(KernelId k, double q)
{
    gqos_assert(k >= 0 && k < maxKernels);
    settle();
    kernels_[k].quota += q;
    kernels_[k].stats.quotaRefills++;
    mutVersion_++;
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
SmCore::residentWarps(KernelId k) const
{
    gqos_assert(k >= 0 && k < maxKernels);
    return kernels_[k].residentWarps;
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
