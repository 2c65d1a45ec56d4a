/**
 * @file
 * Reproduces Figure 10: the effect of the number of networking ports.
 *
 * Paper (Section 5.4): SmartDS throughput scales linearly with ports —
 * SmartDS-4 reaches ~4x the SmartDS-1 maximum (i.e. ~4.3x the CPU-only
 * middle tier) — while average and tail latencies stay flat, and the
 * host memory/PCIe footprint stays a small fraction of one link because
 * only headers cross to the host (two CPU cores per port suffice).
 */

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/table.h"

namespace {

using namespace smartds;
using namespace smartds::bench;
using middletier::Design;

} // namespace

int
main(int argc, char **argv)
{
    Harness harness(argc, argv, "fig10_multiport");

    std::printf("Figure 10: effect of the number of network ports\n\n");

    // ports=1 is the scale baseline; sweep() keeps it under --smoke.
    const std::vector<unsigned> port_counts = sweep({1u, 2u, 4u, 6u});

    workload::SweepRunner runner(harness.jobs());
    std::vector<std::size_t> indices;
    for (unsigned ports : port_counts) {
        const unsigned cores = 2 * ports; // two cores per port (5.5)
        indices.push_back(
            runner.add(saturating(Design::SmartDs, cores, ports)));
    }
    const std::size_t cpu_index =
        runner.add(saturating(Design::CpuOnly, 48));
    const std::size_t sd4_index =
        runner.add(saturating(Design::SmartDs, 8, 4));
    runner.run();
    harness.noteSweep(runner);
    harness.exportTraces(runner);

    Table table("Fig 10a-c - SmartDS port scaling");
    table.header({"ports", "cores", "tput(Gbps)", "scale", "avg(us)",
                  "p99(us)", "p999(us)", "mem(Gbps)", "pcie.h2d(Gbps)",
                  "pcie.d2h(Gbps)"});

    double base = 0.0;
    for (std::size_t i = 0; i < port_counts.size(); ++i) {
        const unsigned ports = port_counts[i];
        const unsigned cores = 2 * ports;
        const auto &r = runner.result(indices[i]);
        if (ports == 1)
            base = r.throughputGbps;
        table.row({fmt(ports), fmt(cores), fmt(r.throughputGbps, 1),
                   fmt(r.throughputGbps / base, 2),
                   fmt(r.avgLatencyUs, 1), fmt(r.p99LatencyUs, 1),
                   fmt(r.p999LatencyUs, 1),
                   fmt(usage(r, "mem.read") + usage(r, "mem.write"), 1),
                   fmt(usage(r, "pcie.smartds.h2d"), 2),
                   fmt(usage(r, "pcie.smartds.d2h"), 2)});
    }
    table.print();
    table.writeCsv("results/fig10_multiport.csv");

    const auto &cpu = runner.result(cpu_index);
    const auto &sd4 = runner.result(sd4_index);
    std::printf("\nSmartDS-4 achieves %.1fx the CPU-only middle tier "
                "(paper: up to 4.3x).\n",
                sd4.throughputGbps / cpu.throughputGbps);
    return 0;
}
