/**
 * @file
 * Reproduces Section 5.5: multiple SmartNICs per server.
 *
 * Two parts:
 *  1. A simulated cross-check that two SmartDS cards in one host scale
 *     as linearly as ports on one card do (the host-side resources they
 *     share — memory bandwidth, PCIe switch root — are nowhere near
 *     saturation).
 *  2. The fleet-sizing arithmetic of the paper: per-card measurements
 *     feed the scale-up model, which checks every host budget and
 *     reports the achievable aggregate (2.8 Tbps with 8 cards) and the
 *     reduction in middle-tier servers versus CPU-only (51.6x).
 */

#include <cstdio>

#include "bench_common.h"
#include "cluster/scale_up.h"
#include "common/table.h"

namespace {

using namespace smartds;
using namespace smartds::bench;
using middletier::Design;

} // namespace

int
main(int argc, char **argv)
{
    Harness harness(argc, argv, "sec55_multi_smartnic");

    std::printf("Section 5.5: multiple SmartNICs per server\n\n");

    workload::SweepRunner runner(harness.jobs());
    const std::size_t one_card_index =
        runner.add(saturating(Design::SmartDs, 12, 6));
    auto two_config = saturating(Design::SmartDs, 4, 2);
    two_config.cards = 2;
    const std::size_t two_cards_index = runner.add(two_config);
    const std::size_t one_of_two_index =
        runner.add(saturating(Design::SmartDs, 4, 2));
    const std::size_t cpu_index =
        runner.add(saturating(Design::CpuOnly, 48));
    runner.run();
    harness.noteSweep(runner);
    harness.exportTraces(runner);

    // --- Part 1: measure one card (SmartDS-6) in simulation -------------
    const auto &one_card = runner.result(one_card_index);
    const double per_card_gbps = one_card.throughputGbps;
    const double host_mem_gbps = usage(one_card, "mem.read") +
                                 usage(one_card, "mem.write");
    const double pcie_gbps = usage(one_card, "pcie.smartds.h2d") +
                             usage(one_card, "pcie.smartds.d2h");

    std::printf("Measured SmartDS-6 card: %.1f Gbps storage traffic, "
                "%.1f Gbps host memory, %.1f Gbps PCIe\n"
                "(paper: 348 Gbps, 49 Gbps, 12.4 Gbps)\n\n",
                per_card_gbps, host_mem_gbps, pcie_gbps);

    // Simulated cross-check: two full cards behind one PCIe switch scale
    // as linearly as ports on one card.
    const auto &two_cards = runner.result(two_cards_index);
    const auto &one_of_two = runner.result(one_of_two_index);
    std::printf("Simulated cross-check: 2 cards x 2 ports = %.1f Gbps vs "
                "1 card x 2 ports = %.1f Gbps (%.2fx)\n\n",
                two_cards.throughputGbps, one_of_two.throughputGbps,
                two_cards.throughputGbps / one_of_two.throughputGbps);

    const auto &cpu = runner.result(cpu_index);

    // --- Part 2: fleet arithmetic over the measured card ----------------
    cluster::ScaleUpInputs inputs;
    inputs.perCardGbps = per_card_gbps;
    inputs.hostMemoryPerCardGbps = host_mem_gbps;
    inputs.pciePerCardGbps = pcie_gbps;
    inputs.cpuOnlyGbps = cpu.throughputGbps;
    inputs.hostCores = 128; // "if the server has enough CPU cores" (5.5)

    Table table("Sec 5.5 - SmartDS cards per 4U server");
    table.header({"cards", "total(Gbps)", "host-mem(Gbps)",
                  "pcie/switch(Gbps)", "cores", "feasible",
                  "server-reduction"});
    for (unsigned cards : {1u, 2u, 4u, 8u}) {
        const auto r = cluster::evaluateScaleUp(inputs, cards);
        const bool ok =
            r.memoryFeasible && r.pcieFeasible && r.coresFeasible;
        table.row({fmt(cards), fmt(r.totalGbps, 0),
                   fmt(r.hostMemoryGbps, 0),
                   fmt(r.pciePerSwitchGbps, 1), fmt(r.coresNeeded),
                   ok ? "yes" : "no", fmt(r.serverReduction, 1) + "x"});
    }
    table.print();
    table.writeCsv("results/sec55_scaleup.csv");

    const auto eight = cluster::evaluateScaleUp(inputs, 8);
    std::printf("\nEight cards: %.2f Tbps aggregate, replacing %.1f "
                "CPU-only middle-tier servers (paper: 2.8 Tbps, 51.6x).\n"
                "On the stock 48-core testbed host the core budget "
                "allows %u cards (the paper notes scale-up needs "
                "\"enough CPU cores\": 2 per port).\n",
                eight.totalGbps / 1000.0, eight.serverReduction,
                cluster::maxFeasibleCards([&] {
                    auto stock = inputs;
                    stock.hostCores = 48;
                    return stock;
                }()));
    return 0;
}
