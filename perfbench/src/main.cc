/**
 * @file
 * Repository benchmark entry point.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --workdir DIR [--spans-out DIR]
 *
 * Prints human-readable lines (host fingerprint, result digest,
 * every metric with its base or sample count), then, as the last
 * line, one JSON object: {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}}. With --trace 0 the metrics
 * are the end-to-end ones, with --trace 1 the per-layer ones. Exits
 * 1 when the correctness gate fails, 2 on a usage error.
 */

#include <cinttypes>
#include <cstdio>
#include <string>

#include "common/cli.hh"
#include "telemetry/trace.hh"
#include "workloads.hh"

int
main(int argc, char **argv)
{
    gqos::CliArgs args(argc, argv);
    perfbench::RunConfig cfg;
    cfg.workload = args.getString("workload", "");
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    cfg.seconds = args.getDouble("seconds", 10.0);
    cfg.trace = args.getInt("trace", 0) != 0;
    cfg.workdir = args.getString("workdir", "");
    cfg.spansOut = args.getString("spans-out", "");
    if (cfg.workload.empty() || cfg.workdir.empty()) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 --workdir DIR "
                     "[--spans-out DIR]\n");
        return 2;
    }

    auto out = perfbench::runWorkload(cfg);
    if (!out.ok()) {
        std::fprintf(stderr, "perfbench: %s\n",
                     out.error().describe().c_str());
        return 2;
    }
    const perfbench::WorkloadOutput &w = out.value();
    for (const std::string &line : w.log)
        std::printf("%s\n", line.c_str());
    for (const perfbench::Metric &m : w.metrics) {
        std::printf("  %-32s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                w.correct ? "true" : "false", w.attempted, w.failed);
    for (std::size_t i = 0; i < w.metrics.size(); ++i) {
        const perfbench::Metric &m = w.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", gqos::jsonEscape(m.name).c_str(),
                    m.value, gqos::jsonEscape(m.unit).c_str());
    }
    std::printf("}}\n");
    return w.correct ? 0 : 1;
}
