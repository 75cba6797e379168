/**
 * @file
 * Tenant specs: parsing, defaults and request-sized kernels.
 */

#include "serving/tenant.hh"

#include "common/cli.hh"
#include "workloads/parboil.hh"

namespace gqos
{

const char *
toString(QosClass c)
{
    switch (c) {
      case QosClass::Guaranteed:
        return "guaranteed";
      case QosClass::Elastic:
        return "elastic";
      case QosClass::BestEffort:
        return "besteffort";
    }
    return "?";
}

Result<QosClass>
parseQosClass(const std::string &name)
{
    if (name == "guaranteed")
        return QosClass::Guaranteed;
    if (name == "elastic")
        return QosClass::Elastic;
    if (name == "besteffort" || name == "best-effort")
        return QosClass::BestEffort;
    return Error::format(ErrorCode::InvalidArgument,
                         "unknown QoS class '%s' (want guaranteed, "
                         "elastic or besteffort)",
                         name.c_str());
}

Result<void>
TenantSpec::check() const
{
    if (name.empty()) {
        return Error(ErrorCode::InvalidArgument,
                     "tenant spec needs a non-empty name");
    }
    if (!isParboilKernel(kernel)) {
        return Error::format(ErrorCode::InvalidArgument,
                             "tenant '%s': unknown kernel '%s'",
                             name.c_str(), kernel.c_str());
    }
    if (!(goalFrac >= 0.0 && goalFrac < 1.0)) {
        return Error::format(ErrorCode::InvalidArgument,
                             "tenant '%s': goal %g out of [0, 1)",
                             name.c_str(), goalFrac);
    }
    if (queueCap == 0) {
        return Error::format(ErrorCode::InvalidArgument,
                             "tenant '%s': bad queue capacity 0 "
                             "(want >= 1)",
                             name.c_str());
    }
    return {};
}

Result<TenantSpec>
parseTenantSpec(const std::string &text)
{
    std::vector<std::string> parts = splitList(text, ':');
    if (parts.size() < 2 || parts.size() > 6) {
        return Error::format(
            ErrorCode::InvalidArgument,
            "tenant spec '%s': want "
            "name:kernel[:class[:goal[:slo[:queue]]]] "
            "(slo 0 = no SLO, queue >= 1)",
            text.c_str());
    }
    TenantSpec spec;
    spec.name = parts[0];
    spec.kernel = parts[1];
    if (parts.size() > 2) {
        auto c = parseQosClass(parts[2]);
        if (!c.ok())
            return c.error();
        spec.qosClass = c.value();
    }
    const std::string field = "tenant spec '" + text + "': ";
    if (parts.size() > 3) {
        Result<double> goal = parseFinite(parts[3], field + "goal");
        if (!goal.ok())
            return goal.error();
        spec.goalFrac = goal.value();
    }
    if (parts.size() > 4) {
        Result<std::uint64_t> slo =
            parseUnsigned(parts[4], field + "slo");
        if (!slo.ok())
            return slo.error();
        spec.sloCycles = slo.value();
    }
    if (parts.size() > 5) {
        Result<std::uint64_t> queue =
            parseUnsigned(parts[5], field + "queue");
        if (!queue.ok())
            return queue.error();
        spec.queueCap = static_cast<std::size_t>(queue.value());
    }
    auto ok = spec.check();
    if (!ok.ok())
        return ok.error();
    return spec;
}

Result<std::vector<TenantSpec>>
parseTenantList(const std::string &text)
{
    std::vector<TenantSpec> out;
    for (const std::string &item : splitList(text, ';')) {
        if (item.empty())
            continue;
        auto spec = parseTenantSpec(item);
        if (!spec.ok())
            return spec.error();
        out.push_back(std::move(spec.value()));
    }
    if (out.empty()) {
        return Error(ErrorCode::InvalidArgument,
                     "tenant list is empty");
    }
    return out;
}

std::vector<TenantSpec>
defaultTenantMix()
{
    // Two protected tenants spanning the compute/memory split, one
    // degradable elastic tenant and one shed-first background feed.
    // SLOs are sized to the request-grid service times measured in
    // EXPERIMENTS.md (a few thousand cycles under healthy load).
    std::vector<TenantSpec> mix(4);
    mix[0] = {"web", "sgemm", QosClass::Guaranteed, 0.5, 30000, 16};
    mix[1] = {"video", "lbm", QosClass::Guaranteed, 0.4, 40000, 16};
    mix[2] = {"analytics", "stencil", QosClass::Elastic, 0.3, 60000,
              16};
    mix[3] = {"batch", "histo", QosClass::BestEffort, 0.0, 80000,
              16};
    for (const TenantSpec &t : mix)
        okOrDie(t.check());
    return mix;
}

Result<KernelDesc>
servingKernelDesc(const TenantSpec &spec)
{
    auto base = findParboilKernel(spec.kernel);
    if (!base.ok())
        return base.error();
    KernelDesc desc = *base.value();
    // One request = one small grid: a few TBs with short per-warp
    // instruction budgets, so a single request occupies the GPU for
    // thousands (not millions) of cycles and thousand-request traces
    // stay tractable. The behaviour model (phases, locality,
    // coalescing) is inherited unchanged from the suite kernel.
    desc.name = spec.kernel + "@" + spec.name;
    desc.gridTbs = 8;
    desc.threadsPerTb = 128;
    desc.warpInstrPerTb = 60;
    auto ok = desc.check();
    if (!ok.ok())
        return ok.error();
    return desc;
}

} // namespace gqos
