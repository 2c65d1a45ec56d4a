/**
 * @file
 * Functional-datapath microbenchmark: runs the write-serving experiment
 * with real corpus bytes end to end (clients attach blocks, the middle
 * tier runs the real codec, storage keeps stored bytes) and measures the
 * wall-clock speedup of the corpus block codec cache against the
 * cache-off escape hatch. Simulation results must be byte-identical
 * either way — the cache changes how fast the simulator runs, never what
 * it computes — so the CSV this bench writes is independent of the cache
 * setting, `--jobs`, and the build preset.
 */

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/table.h"

namespace {

using namespace smartds;
using namespace smartds::bench;
using middletier::Design;

workload::ExperimentConfig
functional(Design design, bool cache_on)
{
    workload::ExperimentConfig config;
    config.design = design;
    config.functional = true;
    config.blockCache = cache_on;
    config.cores = 4;
    config.ports = 1;
    // High effort makes the real codec the dominant per-request cost —
    // exactly the regime the block codec cache exists for.
    config.effort = 8;
    config.warmup = (smoke() ? 1 : 2) * ticksPerMillisecond;
    config.window = (smoke() ? 2 : 8) * ticksPerMillisecond;
    return config;
}

/** Exact comparison of everything a run reports (incl. usage probes). */
bool
sameResults(const workload::ExperimentResult &a,
            const workload::ExperimentResult &b)
{
    return a.throughputGbps == b.throughputGbps &&
           a.requestsCompleted == b.requestsCompleted &&
           a.avgLatencyUs == b.avgLatencyUs &&
           a.p50LatencyUs == b.p50LatencyUs &&
           a.p99LatencyUs == b.p99LatencyUs &&
           a.p999LatencyUs == b.p999LatencyUs &&
           a.failover.corruptionsDetected ==
               b.failover.corruptionsDetected &&
           a.failover.readFailovers == b.failover.readFailovers &&
           a.usageGbps == b.usageGbps;
}

} // namespace

int
main(int argc, char **argv)
{
    Harness harness(argc, argv, "micro_functional");

    std::printf("Functional datapath: block codec cache on vs off\n\n");

    const std::vector<Design> designs = {Design::CpuOnly,
                                         Design::Accelerator,
                                         Design::SmartDs};

    // The cache-on and cache-off phases run the same queue through their
    // own SweepRunner so each phase's wall clock is cleanly attributable.
    // Cache-on goes first and pays the one-time table build, so the
    // measured speedup includes that cost honestly.
    workload::SweepRunner on_runner(harness.jobs());
    for (Design d : designs)
        on_runner.add(functional(d, true));
    const Stopwatch on_watch;
    on_runner.run();
    harness.noteSweep(on_runner);
    const double wall_on = on_watch.seconds();

    workload::SweepRunner off_runner(harness.jobs());
    for (Design d : designs)
        off_runner.add(functional(d, false));
    const Stopwatch off_watch;
    off_runner.run();
    harness.noteSweep(off_runner);
    const double wall_off = off_watch.seconds();

    Table table("Functional write serving (effort 8, 4 cores)");
    table.header({"design", "requests", "tput(Gbps)", "avg(us)", "p50(us)",
                  "p99(us)", "p999(us)"});
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const auto &on = on_runner.result(i);
        const auto &off = off_runner.result(i);
        // The cache is an optimisation, not a model change: any visible
        // difference is a bug (tier-1 tests assert the same property).
        if (!sameResults(on, off))
            fatal("cache-on and cache-off results differ for %s",
                  middletier::designName(designs[i]));
        table.row({middletier::designName(designs[i]),
                   fmt(on.requestsCompleted), fmt(on.throughputGbps, 2),
                   fmt(on.avgLatencyUs, 1), fmt(on.p50LatencyUs, 1),
                   fmt(on.p99LatencyUs, 1), fmt(on.p999LatencyUs, 1)});
    }
    table.print();
    table.writeCsv("results/micro_functional.csv");

    const double speedup = wall_on > 0.0 ? wall_off / wall_on : 0.0;
    std::printf("\nwall: cache on %.3f s, cache off %.3f s -> "
                "speedup %.2fx\n",
                wall_on, wall_off, speedup);

    // A second bench_perf record (besides the Harness events/sec line)
    // tracking the cache's wall-clock win PR-over-PR. perf_diff.py keys
    // on events_per_sec records and skips this one.
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"micro_functional\",\"metric\":"
                  "\"cache_speedup\",\"jobs\":%u,\"smoke\":%s,"
                  "\"wall_on_s\":%.3f,\"wall_off_s\":%.3f,"
                  "\"speedup\":%.2f,\"unix_time\":%lld}",
                  harness.jobs(), smoke() ? "true" : "false", wall_on,
                  wall_off, speedup, unixTime());
    appendBenchPerf(line);
    return 0;
}
