/**
 * @file
 * Serving driver: isolated baselines, the tick control loop, and
 * end-of-run accounting.
 */

#include "serving/server.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "gpu/gpu.hh"
#include "policy/policy_factory.hh"
#include "telemetry/trace.hh"

namespace gqos
{

namespace
{

/** Default per-tenant stall window when --watchdog-ms is unset. */
constexpr Cycle defaultStallWindow = 500000;

/** Nearest-rank percentile of an already-sorted latency vector. */
Cycle
percentile(const std::vector<Cycle> &sorted, int pct)
{
    if (sorted.empty())
        return 0;
    std::size_t rank =
        (sorted.size() * static_cast<std::size_t>(pct) + 99) / 100;
    if (rank == 0)
        rank = 1;
    return sorted[rank - 1];
}

/**
 * Short single-kernel run measuring a tenant kernel's isolated IPC
 * (goal fractions are relative to this, the repo-wide convention).
 * Auto-relaunch mode: the small request grid re-executes until the
 * measurement window ends, exactly like the batch harness.
 */
Result<double>
isolatedBaseline(const KernelDesc &desc, const GpuConfig &cfg,
                 EngineKind kind, Cycle cycles)
{
    auto policy =
        makePolicy("even", {QosSpec::nonQos()}, cfg);
    if (!policy.ok())
        return policy.error();
    Gpu gpu(cfg);
    gpu.launch({&desc});
    policy.value()->onLaunch(gpu);
    SimEngine engine(kind, defaultStallWindow);
    if (engine.runUntil(gpu, *policy.value(), cycles)) {
        return Error::format(ErrorCode::Stalled,
                             "isolated baseline of '%s' stalled at "
                             "cycle %llu",
                             desc.name.c_str(),
                             static_cast<unsigned long long>(
                                 gpu.now()));
    }
    return gpu.ipc(0);
}

} // anonymous namespace

ServingDriver::ServingDriver(std::vector<TenantSpec> tenants,
                             ServingOptions opts, GpuConfig cfg)
    : opts_(std::move(opts)), cfg_(cfg),
      tenants_(std::move(tenants)),
      forceStall_(tenants_.size(), false)
{}

Result<std::unique_ptr<ServingDriver>>
ServingDriver::make(std::vector<TenantSpec> tenants,
                    ServingOptions opts)
{
    if (tenants.empty() ||
        tenants.size() > static_cast<std::size_t>(maxKernels)) {
        return Error::format(ErrorCode::InvalidArgument,
                             "serving needs 1..%d tenants, got %zu",
                             maxKernels, tenants.size());
    }
    for (const TenantSpec &t : tenants) {
        auto ok = t.check();
        if (!ok.ok())
            return ok.error();
    }
    if (opts.tick == 0) {
        return Error(ErrorCode::InvalidArgument,
                     "serving tick must be >= 1 cycle");
    }
    if (opts.ewmaAlpha <= 0.0 || opts.ewmaAlpha > 1.0) {
        return Error::format(ErrorCode::InvalidArgument,
                             "EWMA alpha %g out of (0, 1]",
                             opts.ewmaAlpha);
    }
    auto cfg = configByName(opts.configName);
    if (!cfg.ok())
        return cfg.error();

    // Surface a bad policy name at construction, not mid-run: build
    // (and discard) a policy with placeholder specs.
    {
        std::vector<QosSpec> probe(tenants.size(),
                                   QosSpec::nonQos());
        auto p = makePolicy(opts.policy, std::move(probe),
                            cfg.value());
        if (!p.ok())
            return p.error();
    }

    std::unique_ptr<ServingDriver> driver(new ServingDriver(
        std::move(tenants), std::move(opts), cfg.value()));

    for (const TenantSpec &t : driver->tenants_) {
        auto desc = servingKernelDesc(t);
        if (!desc.ok())
            return desc.error();
        driver->descs_.push_back(std::move(desc.value()));
    }
    for (const KernelDesc &d : driver->descs_) {
        auto ipc = isolatedBaseline(d, driver->cfg_,
                                    driver->opts_.engine,
                                    driver->opts_.baselineCycles);
        if (!ipc.ok())
            return ipc.error();
        driver->isolatedIpc_.push_back(ipc.value());
    }
    return driver;
}

void
ServingDriver::forceStallForTest(int tenant)
{
    gqos_assert(tenant >= 0 &&
                tenant < static_cast<int>(tenants_.size()));
    forceStall_[tenant] = true;
}

Result<ServingReport>
ServingDriver::run(const std::vector<Arrival> &arrivals,
                   TraceSink *sink)
{
    if (ran_) {
        return Error(ErrorCode::Internal,
                     "ServingDriver::run() is single use; make a "
                     "fresh driver per run");
    }
    ran_ = true;

    const int n = numTenants();
    const Cycle stallWindow =
        opts_.watchdogMs > 0.0
            ? static_cast<Cycle>(opts_.watchdogMs *
                                 cfg_.coreFreqGhz * 1e6)
            : defaultStallWindow;

    // Per-tenant QoS goals: fraction of isolated IPC, absolute at
    // the policy. BestEffort tenants stay non-QoS regardless.
    std::vector<QosSpec> specs;
    for (int t = 0; t < n; ++t) {
        const bool qos = tenants_[t].goalFrac > 0.0 &&
                         tenants_[t].qosClass != QosClass::BestEffort;
        specs.push_back(qos ? QosSpec::qos(tenants_[t].goalFrac *
                                           isolatedIpc_[t])
                            : QosSpec::nonQos());
    }
    auto policyOr = makePolicy(opts_.policy, specs, cfg_);
    if (!policyOr.ok())
        return policyOr.error();
    SharingPolicy &policy = *policyOr.value();

    CaseLabelingSink labeled(sink, opts_.caseKey);
    TraceSink *out = sink ? &labeled : nullptr;
    policy.attachTelemetry(out, opts_.metrics);

    MetricsRegistry::Counter *cArrivals = nullptr, *cAdmit = nullptr,
                             *cComplete = nullptr, *cReject = nullptr,
                             *cAbandon = nullptr, *cStall = nullptr;
    if (opts_.metrics) {
        cArrivals = &opts_.metrics->counter("serving.arrivals");
        cAdmit = &opts_.metrics->counter("serving.admitted");
        cComplete = &opts_.metrics->counter("serving.completed");
        cReject = &opts_.metrics->counter("serving.rejected");
        cAbandon = &opts_.metrics->counter("serving.abandoned");
        cStall = &opts_.metrics->counter("serving.tenant_stalls");
    }

    Gpu gpu(cfg_);
    std::vector<const KernelDesc *> descPtrs;
    for (const KernelDesc &d : descs_)
        descPtrs.push_back(&d);
    gpu.launch(descPtrs);
    for (int t = 0; t < n; ++t)
        gpu.setManualLaunch(t);
    // Cycle attribution is on whenever anyone can observe it (the
    // metrics registry or a trace/timeline sink); otherwise the
    // profiler stays off the hot path entirely.
    const bool accounting = opts_.metrics || sink;
    if (accounting)
        gpu.setCycleAccounting(true);
    if (out)
        gpu.setSmSliceCallback(smSliceEmitter(out));
    policy.onLaunch(gpu);

    SimEngine engine(opts_.engine, stallWindow);
    AdmissionController admission(tenants_, opts_.admission);

    struct TState
    {
        bool running = false;
        QueuedRequest req;
        Cycle dispatchedAt = 0;
        std::uint64_t gridsSeen = 0;
        double ewmaService = 0.0;
        std::vector<Cycle> latencies;
        StallDetector stall;
        TState(Cycle window) : stall(window) {}
    };
    std::vector<TState> ts(n, TState(stallWindow));

    ServingReport report;
    report.tenants.resize(n);
    for (int t = 0; t < n; ++t) {
        report.tenants[t].name = tenants_[t].name;
        report.tenants[t].qosClass = tenants_[t].qosClass;
    }

    auto emit = [&](const char *event, int tenant,
                    std::uint64_t request, Cycle latency,
                    const std::string &detail) {
        if (!out)
            return;
        ServingEventRecord rec;
        rec.cycle = gpu.now();
        rec.event = event;
        rec.tenant = tenant >= 0 ? tenants_[tenant].name : "";
        rec.request = request;
        rec.latency = latency;
        rec.level = admission.level();
        rec.queueDepth = tenant >= 0
            ? static_cast<int>(admission.queueDepth(tenant))
            : static_cast<int>(admission.totalBacklog());
        rec.detail = detail;
        out->onServingEvent(rec);
    };

    const Cycle lastArrival =
        arrivals.empty() ? 0 : arrivals.back().cycle;
    const Cycle hardEnd = lastArrival + opts_.drainGrace;
    std::size_t ai = 0;

    while (true) {
        const Cycle now = gpu.now();

        // 1. Completions (exact cycle recorded by the Gpu).
        for (int t = 0; t < n; ++t) {
            if (!ts[t].running ||
                gpu.gridsCompleted(t) == ts[t].gridsSeen) {
                continue;
            }
            ts[t].gridsSeen = gpu.gridsCompleted(t);
            const Cycle doneAt = gpu.lastGridCompletedAt(t);
            const Cycle latency = doneAt - ts[t].req.arrival;
            const Cycle service = doneAt - ts[t].dispatchedAt;
            ts[t].ewmaService =
                ts[t].ewmaService == 0.0
                    ? static_cast<double>(service)
                    : (1.0 - opts_.ewmaAlpha) * ts[t].ewmaService +
                          opts_.ewmaAlpha *
                              static_cast<double>(service);
            ts[t].latencies.push_back(latency);
            TenantServingStats &st = report.tenants[t];
            st.completed++;
            if (tenants_[t].sloCycles == 0 ||
                latency <= tenants_[t].sloCycles) {
                st.sloMet++;
            }
            st.maxLatency = std::max(st.maxLatency, latency);
            if (cComplete)
                cComplete->inc();
            emit("complete", t, ts[t].req.seq, latency, "");
            ts[t].running = false;
        }

        // 2. Due arrivals (the loop always lands exactly on arrival
        // cycles, so `now` is the true arrival time).
        while (ai < arrivals.size() && arrivals[ai].cycle <= now) {
            const Arrival &a = arrivals[ai++];
            TenantServingStats &st = report.tenants[a.tenant];
            st.arrivals++;
            if (cArrivals)
                cArrivals->inc();
            const AdmitOutcome outcome = admission.onArrival(
                a.tenant, a.seq, now, ts[a.tenant].ewmaService);
            switch (outcome) {
              case AdmitOutcome::Admitted:
                st.admitted++;
                if (cAdmit)
                    cAdmit->inc();
                break;
              case AdmitOutcome::RejectedQueueFull:
                st.rejectedQueueFull++;
                if (cReject)
                    cReject->inc();
                break;
              case AdmitOutcome::RejectedShed:
                st.rejectedShed++;
                if (cReject)
                    cReject->inc();
                break;
              case AdmitOutcome::RejectedProjected:
                st.rejectedProjected++;
                if (cReject)
                    cReject->inc();
                break;
            }
            emit("arrival", a.tenant, a.seq, 0, toString(outcome));
            st.maxQueueDepth =
                std::max(st.maxQueueDepth,
                         static_cast<std::uint64_t>(
                             admission.queueDepth(a.tenant)));
        }

        // 3. Deadline-based queue abandonment.
        for (int t = 0; t < n; ++t) {
            for (const QueuedRequest &req :
                 admission.expireAbandoned(t, now)) {
                report.tenants[t].abandoned++;
                if (cAbandon)
                    cAbandon->inc();
                emit("abandon", t, req.seq, now - req.arrival,
                     "deadline");
            }
        }

        // 4. Degradation ladder.
        {
            const int before = admission.level();
            if (admission.updateLevel()) {
                report.levelChanges++;
                emit("degrade", -1, 0, 0,
                     admission.level() > before ? "up" : "down");
            }
        }

        // 5. Dispatch: one in-flight grid per tenant, ladder
        // permitting.
        for (int t = 0; t < n; ++t) {
            if (ts[t].running || gpu.gridActive(t) ||
                !admission.dispatchAllowed(t)) {
                continue;
            }
            const QueuedRequest *req = admission.front(t);
            if (!req)
                continue;
            ts[t].req = *req;
            ts[t].running = true;
            ts[t].dispatchedAt = now;
            admission.popFront(t);
            gpu.startGrid(t);
            report.tenants[t].dispatched++;
            emit("dispatch", t, ts[t].req.seq,
                 now - ts[t].req.arrival, "");
        }

        // 6. Per-tenant stall heartbeats. The forceStall test hook
        // freezes the observed progress with live work, tripping
        // the same path a wedged kernel would.
        bool stalledTenant = false;
        for (int t = 0; t < n; ++t) {
            const std::uint64_t instrs =
                forceStall_[t] ? 0 : gpu.threadInstrs(t);
            const bool live = forceStall_[t] || gpu.gridActive(t);
            if (ts[t].stall.observe(now, instrs, live)) {
                report.tenants[t].stalled = true;
                report.anyTenantStalled = true;
                if (cStall)
                    cStall->inc();
                emit("tenant_stalled", t, ts[t].req.seq,
                     now - ts[t].dispatchedAt, "watchdog");
                gqos_warn("serving: tenant '%s' stalled at cycle "
                          "%llu (window %llu); shutting down",
                          tenants_[t].name.c_str(),
                          static_cast<unsigned long long>(now),
                          static_cast<unsigned long long>(
                              stallWindow));
                stalledTenant = true;
            }
        }
        if (stalledTenant)
            break;

        // 7. Done? All arrivals consumed, queues empty, GPU idle.
        bool anyRunning = false;
        for (int t = 0; t < n; ++t)
            anyRunning = anyRunning || ts[t].running;
        if (ai == arrivals.size() && !anyRunning &&
            admission.totalBacklog() == 0) {
            report.drained = true;
            break;
        }
        if (now >= hardEnd)
            break;

        // 8. Advance, landing exactly on the next arrival when it
        // precedes the tick boundary.
        Cycle target = now + opts_.tick;
        if (ai < arrivals.size())
            target = std::min(target, arrivals[ai].cycle);
        target = std::min(target, hardEnd);
        if (target <= now)
            target = now + 1;
        if (engine.runUntil(gpu, policy, target)) {
            report.engineStalled = true;
            emit("engine_stalled", -1, 0, 0, "watchdog");
            gqos_warn("serving: engine watchdog fired at cycle %llu",
                      static_cast<unsigned long long>(gpu.now()));
            break;
        }
    }

    // Shutdown accounting: requests still queued or in flight when
    // the run ends are drops, not silent losses.
    std::vector<std::uint64_t> residual = admission.drainAll();
    for (int t = 0; t < n; ++t) {
        report.tenants[t].droppedAtShutdown += residual[t];
        if (ts[t].running) {
            report.tenants[t].droppedAtShutdown++;
            emit("shutdown_drop", t, ts[t].req.seq, 0, "inflight");
        }
        if (residual[t] > 0)
            emit("shutdown_drop", t, residual[t], 0, "queued");
    }
    policy.onFinish(gpu);
    gpu.closeOpenSmSlices();

    if (accounting) {
        // Conservation: the profiler attributes every SM cycle to
        // exactly one category, so per-SM totals must equal the SM's
        // cycle count regardless of how the run ended.
        for (int s = 0; s < gpu.numSms(); ++s) {
            for (int t = 0; t < n; ++t) {
                gqos_assert(gpu.sm(s).cycleBreakdown(t).total() ==
                            gpu.sm(s).stats().cycles);
            }
        }
        for (int t = 0; t < n; ++t) {
            CycleBreakdown b = gpu.cycleBreakdown(t);
            if (opts_.metrics) {
                for (int i = 0; i < numCycleCats; ++i) {
                    opts_.metrics->counter(
                        std::string("cycles.") +
                        toString(static_cast<CycleCat>(i)))
                        .inc(b.counts[i]);
                }
            }
            report.cycleBreakdown.push_back(b);
        }
    }

    if (opts_.metrics)
        exportEngineCounters(engine, gpu, *opts_.metrics);
    report.endCycle = gpu.now();
    report.finalLevel = admission.level();
    const double mcycles =
        static_cast<double>(report.endCycle) / 1e6;
    for (int t = 0; t < n; ++t) {
        TenantServingStats &st = report.tenants[t];
        std::sort(ts[t].latencies.begin(), ts[t].latencies.end());
        st.p50Latency = percentile(ts[t].latencies, 50);
        st.p99Latency = percentile(ts[t].latencies, 99);
        st.sloAttainment =
            st.arrivals
                ? static_cast<double>(st.sloMet) /
                      static_cast<double>(st.arrivals)
                : 0.0;
        st.goodput = mcycles > 0.0
                         ? static_cast<double>(st.sloMet) / mcycles
                         : 0.0;
        // Conservation: every arrival is exactly one of admitted or
        // rejected, and every admitted request ends in exactly one
        // terminal state.
        gqos_assert(st.arrivals ==
                    st.admitted + st.rejectedQueueFull +
                        st.rejectedShed + st.rejectedProjected);
        gqos_assert(st.admitted ==
                    st.completed + st.abandoned +
                        st.droppedAtShutdown);
    }
    if (out)
        out->flush();
    return report;
}

} // namespace gqos
