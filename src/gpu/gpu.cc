/**
 * @file
 * Top-level GPU implementation.
 */

#include "gpu/gpu.hh"

#include <utility>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace gqos
{

Gpu::Gpu(const GpuConfig &cfg)
    : cfg_(cfg)
{
    cfg_.validate();
    mem_ = std::make_unique<MemSystem>(cfg_);
    clock_ = std::make_shared<GpuClock>(cfg_);
    sms_.reserve(cfg_.numSms);
    for (int i = 0; i < cfg_.numSms; ++i)
        sms_.emplace_back(cfg_, i, *mem_, clock_);
    // GpuConfig::check() caps numSms at 64: one bit per SM.
    allSms_ = cfg_.numSms == 64 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << cfg_.numSms) - 1;
    hot_ = allSms_;
}

void
Gpu::launch(const std::vector<const KernelDesc *> &descs)
{
    if (descs.empty())
        gqos_fatal("launch() needs at least one kernel");
    if (static_cast<int>(descs.size()) > maxKernels)
        gqos_fatal("at most %d concurrent kernels are supported",
                   maxKernels);
    gqos_assert(runs_.empty());

    runs_.reserve(descs.size());
    dispatch_.resize(descs.size());
    for (std::size_t k = 0; k < descs.size(); ++k) {
        runs_.emplace_back(*descs[k], static_cast<KernelId>(k),
                           cfg_);
        dispatch_[k].remainingInLaunch = descs[k]->gridTbs;
        dispatch_[k].launches = 1;
    }

    std::vector<const KernelRun *> run_ptrs;
    for (const auto &r : runs_)
        run_ptrs.push_back(&r);
    for (auto &sm : sms_) {
        sm.bindKernels(run_ptrs);
        sm.setTbEventCallback(
            [this](SmId s, KernelId k, TbExit e) {
                onTbEvent(s, k, e);
            });
    }

    tbTargets_.assign(sms_.size(),
                      std::vector<int>(runs_.size(), 0));
    sliceStart_.assign(sms_.size(),
                       std::vector<Cycle>(runs_.size(), cycleNever));
    dispatchDirty_ = true;
}

void
Gpu::onTbEvent(SmId sm, KernelId k, TbExit exit)
{
    KernelDispatchState &ds = dispatch_[k];
    ds.liveTbs--;
    gqos_assert(ds.liveTbs >= 0);
    if (exit == TbExit::Completed) {
        ds.completedTbs++;
    } else {
        // Preempted TB: its context conceptually lives in memory;
        // the work is requeued and re-dispatched later.
        ds.preemptedTbs++;
        ds.remainingInLaunch++;
    }
    if (ds.remainingInLaunch == 0 && ds.liveTbs == 0) {
        if (ds.manualLaunch) {
            // Serving mode: the grid is a request; record its exact
            // completion cycle and go idle until the next
            // startGrid().
            ds.gridsCompleted++;
            ds.lastGridCompletedAt = now_;
        } else {
            // Grid finished: immediately relaunch (the evaluation
            // re-executes kernels to fill the measurement window).
            const KernelDesc &d = runs_[k].desc();
            ds.remainingInLaunch = d.gridTbs;
            ds.launches++;
        }
    }
    // A freed TB slot (or a requeued TB) can enable a dispatch or
    // unblock a pending shrink decision.
    dispatchDirty_ = true;

    if (smSlice_ && sliceStart_[sm][k] != cycleNever &&
        sms_[sm].residentTbs(k) == 0) {
        smSlice_(sm, k, sliceStart_[sm][k], now_);
        sliceStart_[sm][k] = cycleNever;
    }
}

bool
Gpu::dispatchCycle()
{
    bool acted = false;
    int nk = numKernels();
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        SmCore &sm = sms_[s];

        // Shrink first: one pending preemption per SM at a time.
        if (!sm.preemptionPending()) {
            for (int k = 0; k < nk; ++k) {
                if (sm.residentTbs(k) > tbTargets_[s][k]) {
                    sm.startPreemption(k, now_);
                    acted = true;
                    break;
                }
            }
        }

        // Grow: at most one TB dispatched per SM per cycle.
        int start = static_cast<int>((now_ + s) %
                                     static_cast<Cycle>(nk));
        for (int i = 0; i < nk; ++i) {
            int k = start + i;
            if (k >= nk)
                k -= nk;
            if (dispatch_[k].remainingInLaunch <= 0)
                continue;
            if (sm.residentTbs(k) >= tbTargets_[s][k])
                continue;
            if (!sm.canAccept(k))
                continue;
            std::uint64_t launch_pos = static_cast<std::uint64_t>(
                runs_[k].desc().gridTbs -
                dispatch_[k].remainingInLaunch);
            bool was_empty = sm.residentTbs(k) == 0;
            sm.dispatchTb(k, tbSeq_++, launch_pos, now_);
            if (smSlice_ && was_empty)
                sliceStart_[s][k] = now_;
            dispatch_[k].remainingInLaunch--;
            dispatch_[k].liveTbs++;
            acted = true;
            break;
        }
    }
    return acted;
}

void
Gpu::step(bool event_aware)
{
    bool sample_iw = now_ == nextSample_;
    if (sample_iw)
        nextSample_ += clock_->iwSampleInterval;
    std::uint64_t woken = std::exchange(clock_->wakeMask, 0);
    if (!event_aware) {
        // Every SM steps; a parked one settles its span in cycle().
        if (hot_ != allSms_) {
            hot_ = allSms_;
            due_.clear();
        }
    } else {
        // A woken SM leaves the wheel, so its old due cannot step
        // it again after it re-parks elsewhere.
        for (std::uint64_t m = woken & ~hot_; m; m &= m - 1)
            due_.remove(firstSetBit(m));
        hot_ |= woken | due_.take(now_);
    }
    ++steps_;
    // Ascending SM order: memory requests reach the shared system in
    // the same order as when every SM steps.
    for (std::uint64_t m = hot_; m; m &= m - 1) {
        int s = firstSetBit(m);
        Cycle bound = 0;
        bool busy = sms_[s].cycle(now_, sample_iw,
                                  event_aware ? &bound : nullptr);
        ++smSteps_;
        // An SM that handed back a bound beyond the next cycle
        // parks until it (cycleNever: until its wake bit); a busy
        // one, or one due next cycle, stays hot.
        if (event_aware && !busy && bound > now_ + 1) {
            hot_ = clearBit(hot_, s);
            due_.add(s, bound, now_);
        }
    }
    // Cycle now_ has run: from here on a parked SM owes it, so a
    // dispatcher mutation below settles through it.
    clock_->now = now_ + 1;
    if (dispatchDirty_ && !dispatchCycle())
        dispatchDirty_ = false;
    now_++;
}

Cycle
Gpu::nextEventAt() const
{
    // A dirty dispatcher may act this cycle, and a hot SM or a
    // mutated parked one proves nothing: step now, which is always
    // sound.
    if (dispatchDirty_ || hot_ || clock_->wakeMask)
        return now_;
    return due_.next(now_);
}

void
Gpu::skipTo(Cycle target)
{
    gqos_assert(target > now_ && target <= nextEventAt());
    now_ = target;
    clock_->now = target;
    // The first sampling cycle at or after target.
    const Cycle i = clock_->iwSampleInterval;
    nextSample_ = divCeil(target, i) * i;
}

void
Gpu::setTbTarget(SmId sm, KernelId k, int target)
{
    gqos_assert(sm >= 0 && sm < numSms());
    gqos_assert(k >= 0 && k < numKernels());
    gqos_assert(target >= 0);
    if (tbTargets_[sm][k] != target)
        dispatchDirty_ = true;
    tbTargets_[sm][k] = target;
}

int
Gpu::tbTarget(SmId sm, KernelId k) const
{
    gqos_assert(sm >= 0 && sm < numSms());
    gqos_assert(k >= 0 && k < numKernels());
    return tbTargets_[sm][k];
}

int
Gpu::residentTbs(SmId sm, KernelId k) const
{
    gqos_assert(sm >= 0 && sm < numSms());
    gqos_assert(k >= 0 && k < numKernels());
    return sms_[sm].residentTbs(k);
}

int
Gpu::totalResidentTbs(KernelId k) const
{
    int n = 0;
    for (const auto &sm : sms_)
        n += sm.residentTbs(k);
    return n;
}

void
Gpu::setManualLaunch(KernelId k)
{
    gqos_assert(k >= 0 && k < numKernels());
    KernelDispatchState &ds = dispatch_[k];
    gqos_assert(ds.liveTbs == 0);
    ds.manualLaunch = true;
    ds.remainingInLaunch = 0;
    ds.launches = 0;
    dispatchDirty_ = true;
}

void
Gpu::startGrid(KernelId k)
{
    gqos_assert(k >= 0 && k < numKernels());
    KernelDispatchState &ds = dispatch_[k];
    gqos_assert(ds.manualLaunch);
    gqos_assert(ds.remainingInLaunch == 0 && ds.liveTbs == 0);
    ds.remainingInLaunch = runs_[k].desc().gridTbs;
    ds.launches++;
    dispatchDirty_ = true;
}

bool
Gpu::gridActive(KernelId k) const
{
    gqos_assert(k >= 0 && k < numKernels());
    const KernelDispatchState &ds = dispatch_[k];
    return ds.remainingInLaunch > 0 || ds.liveTbs > 0;
}

std::uint64_t
Gpu::gridsCompleted(KernelId k) const
{
    gqos_assert(k >= 0 && k < numKernels());
    return dispatch_[k].gridsCompleted;
}

Cycle
Gpu::lastGridCompletedAt(KernelId k) const
{
    gqos_assert(k >= 0 && k < numKernels());
    return dispatch_[k].lastGridCompletedAt;
}

void
Gpu::setQuotaGatingAll(bool on)
{
    for (auto &sm : sms_)
        sm.setQuotaGating(on);
}

void
Gpu::setCycleAccounting(bool on)
{
    accounting_ = on;
    for (auto &sm : sms_)
        sm.setCycleAccounting(on);
}

CycleBreakdown
Gpu::cycleBreakdown(KernelId k) const
{
    gqos_assert(k >= 0 && k < numKernels());
    CycleBreakdown b;
    for (const auto &sm : sms_)
        b += sm.cycleBreakdown(k);
    return b;
}

void
Gpu::setSmSliceCallback(SmSliceFn fn)
{
    smSlice_ = std::move(fn);
}

void
Gpu::closeOpenSmSlices()
{
    if (!smSlice_)
        return;
    for (std::size_t s = 0; s < sliceStart_.size(); ++s) {
        for (std::size_t k = 0; k < sliceStart_[s].size(); ++k) {
            if (sliceStart_[s][k] == cycleNever)
                continue;
            smSlice_(static_cast<SmId>(s),
                     static_cast<KernelId>(k), sliceStart_[s][k],
                     now_);
            sliceStart_[s][k] = cycleNever;
        }
    }
}

SmCore &
Gpu::sm(SmId id)
{
    gqos_assert(id >= 0 && id < numSms());
    return sms_[id];
}

const SmCore &
Gpu::sm(SmId id) const
{
    gqos_assert(id >= 0 && id < numSms());
    return sms_[id];
}

const KernelRun &
Gpu::kernelRun(KernelId k) const
{
    gqos_assert(k >= 0 && k < numKernels());
    return runs_[k];
}

const KernelDesc &
Gpu::kernelDesc(KernelId k) const
{
    return kernelRun(k).desc();
}

std::uint64_t
Gpu::threadInstrs(KernelId k) const
{
    std::uint64_t n = 0;
    for (const auto &sm : sms_)
        n += sm.threadInstrs(k);
    return n;
}

std::uint64_t
Gpu::warpInstrs(KernelId k) const
{
    std::uint64_t n = 0;
    for (const auto &sm : sms_)
        n += sm.warpInstrs(k);
    return n;
}

const KernelDispatchState &
Gpu::dispatchState(KernelId k) const
{
    gqos_assert(k >= 0 && k < numKernels());
    return dispatch_[k];
}

double
Gpu::ipc(KernelId k) const
{
    if (now_ == 0)
        return 0.0;
    return static_cast<double>(threadInstrs(k)) / now_;
}

double
Gpu::iwAverage(KernelId k) const
{
    double sum = 0.0;
    for (const auto &sm : sms_)
        sum += sm.iwAverage(k);
    return sms_.empty() ? 0.0 : sum / sms_.size();
}

double
Gpu::gatedFraction(KernelId k) const
{
    double sum = 0.0;
    for (const auto &sm : sms_)
        sum += sm.gatedFraction(k);
    return sms_.empty() ? 0.0 : sum / sms_.size();
}

std::uint64_t
Gpu::quotaRefills(KernelId k) const
{
    std::uint64_t n = 0;
    for (const auto &sm : sms_)
        n += sm.quotaRefills(k);
    return n;
}

int
Gpu::totalTbTarget(KernelId k) const
{
    int n = 0;
    for (std::size_t s = 0; s < sms_.size(); ++s)
        n += tbTargets_[s][k];
    return n;
}

} // namespace gqos
