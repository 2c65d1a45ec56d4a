/**
 * @file
 * Extension: serving I/O through storage-node failures.
 *
 * The middle tier exists because storage nodes fail (Section 2.1), yet
 * the paper evaluates a healthy pool. This bench turns the fault
 * injector on and sweeps the crash rate — from a healthy pool to a node
 * crashing every half millisecond (an absurdly hostile compression of
 * real MTBF, so the failover machinery fires constantly inside the
 * measured window) — and reports goodput and tail latency for the
 * CPU-only tier and SmartDS, plus the failover counters behind them.
 * A second sweep holds the crash rate fixed and varies the ack quorum,
 * showing how 2-of-3 completion shields the VM tail from stragglers at
 * the cost of background repairs.
 */

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/table.h"

namespace {

using namespace smartds;
using namespace smartds::bench;
using namespace smartds::time_literals;
using middletier::Design;

workload::ExperimentConfig
faulty(Design design)
{
    auto config = design == Design::CpuOnly
                      ? moderate(Design::CpuOnly, 16)
                      : moderate(Design::SmartDs, 2);
    config.storageServers = 12; // headroom for re-placement
    config.readFraction = 0.2;
    config.crashOutage = 2 * ticksPerMillisecond;
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    Harness harness(argc, argv, "ext_fault_tolerance");

    std::printf("Extension: fault tolerance under storage-node crash "
                "churn (12-node pool, 2 ms outages, 20%% reads)\n\n");

    const std::vector<Design> designs = {Design::CpuOnly, Design::SmartDs};
    // interval 0 (healthy pool) leads so it survives a smoke trim: it is
    // the vs-healthy baseline.
    const std::vector<Tick> intervals =
        sweep({Tick{0}, 4 * ticksPerMillisecond, 2 * ticksPerMillisecond,
               1 * ticksPerMillisecond, Tick{500_us}});
    const std::vector<unsigned> quorums = sweep({0u, 2u});

    workload::SweepRunner runner(harness.jobs());
    std::vector<std::vector<std::size_t>> crash_indices;
    for (Design design : designs) {
        std::vector<std::size_t> per_design;
        for (const Tick interval : intervals) {
            auto config = faulty(design);
            config.crashMeanInterval = interval;
            per_design.push_back(runner.add(config));
        }
        crash_indices.push_back(std::move(per_design));
    }
    std::vector<std::vector<std::size_t>> quorum_indices;
    for (Design design : designs) {
        std::vector<std::size_t> per_design;
        for (const unsigned q : quorums) {
            auto config = faulty(design);
            config.crashMeanInterval = 1 * ticksPerMillisecond;
            config.ackQuorum = q;
            // One retry only: replicas stuck behind an outage are handed
            // to background repair rather than retried into it.
            config.replicaMaxRetries = 1;
            per_design.push_back(runner.add(config));
        }
        quorum_indices.push_back(std::move(per_design));
    }
    runner.run();
    harness.noteSweep(runner);
    harness.exportTraces(runner);
    harness.verifyDsan(runner);

    Table crash("Crash rate vs goodput and tails");
    crash.header({"design", "crash-ivl(us)", "crashes", "tput(Gbps)",
                  "vs-healthy", "p99(us)", "timeouts", "replaced",
                  "read-fo"});
    for (std::size_t di = 0; di < designs.size(); ++di) {
        const Design design = designs[di];
        double healthy = 0.0;
        for (std::size_t ii = 0; ii < intervals.size(); ++ii) {
            const Tick interval = intervals[ii];
            const auto &r = runner.result(crash_indices[di][ii]);
            if (interval == 0)
                healthy = r.throughputGbps;
            crash.row({middletier::designName(design),
                       interval ? fmt(toMicroseconds(interval), 0) : "off",
                       fmt(static_cast<double>(r.crashesInjected), 0),
                       fmt(r.throughputGbps, 1),
                       fmt(r.throughputGbps / healthy, 2),
                       fmt(r.p99LatencyUs, 1),
                       fmt(static_cast<double>(
                               r.failover.replicaTimeouts), 0),
                       fmt(static_cast<double>(
                               r.failover.replicaReplacements), 0),
                       fmt(static_cast<double>(
                               r.failover.readFailovers), 0)});
        }
        crash.separator();
    }
    crash.print();
    crash.writeCsv("results/ext_fault_tolerance.csv");

    std::printf("\n");
    Table quorum("Ack quorum vs tails under fixed churn "
                 "(1 ms crash interval)");
    quorum.header({"design", "quorum", "tput(Gbps)", "p99(us)",
                   "p999(us)", "quorum-done", "repairs"});
    for (std::size_t di = 0; di < designs.size(); ++di) {
        for (std::size_t qi = 0; qi < quorums.size(); ++qi) {
            const auto &r = runner.result(quorum_indices[di][qi]);
            quorum.row({middletier::designName(designs[di]),
                        quorums[qi] ? "2-of-3" : "all-3",
                        fmt(r.throughputGbps, 1), fmt(r.p99LatencyUs, 1),
                        fmt(r.p999LatencyUs, 1),
                        fmt(static_cast<double>(
                                r.failover.quorumCompletions), 0),
                        fmt(static_cast<double>(r.repairsCompleted), 0)});
        }
        quorum.separator();
    }
    quorum.print();
    quorum.writeCsv("results/ext_fault_tolerance_quorum.csv");

    std::printf(
        "\nCrash churn costs goodput roughly in proportion to the "
        "fraction of replicas that must time out and re-place, and the "
        "write tail absorbs one ack-timeout round trip when a crash "
        "lands mid-request. SmartDS and the CPU-only tier degrade "
        "alike - failover is control-plane work, so offloading the data "
        "plane neither helps nor hurts it. A 2-of-3 quorum detaches the "
        "VM ack from the slowest replica: the tail flattens toward the "
        "healthy case while the abandoned stragglers drain through the "
        "background repair queue instead of the latency path.\n");
    return 0;
}
