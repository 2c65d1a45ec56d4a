/**
 * @file
 * Ablation: what does the application-aware message split itself buy?
 *
 * The AAMS mechanism is isolated by comparing, at identical engine
 * throughput and identical host hardware:
 *  - SmartDS (split ON): payloads stay in device memory; only 64-byte
 *    headers cross PCIe and touch host memory.
 *  - The accelerator design (split OFF): the same 100 Gbps engine, but
 *    every payload lands in host memory and crosses PCIe to reach it —
 *    which is exactly what "SmartDS without split" degenerates to.
 *
 * The split does not change the single-port peak much (both saturate
 * the port); what it buys is the host-resource footprint — and with it
 * multi-port scaling, which the non-split design cannot have because
 * its NIC PCIe link is already at the wall.
 */

#include <cstdio>

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
    Harness harness(argc, argv, "ablation_split");

    std::printf("Ablation: application-aware message split on/off\n\n");

    workload::SweepRunner runner(harness.jobs());
    const std::size_t split_on_index =
        runner.add(saturating(Design::SmartDs, 2, 1));
    const std::size_t split_off_index =
        runner.add(saturating(Design::Accelerator, 2, 1));
    const std::size_t sd4_index =
        runner.add(saturating(Design::SmartDs, 8, 4));
    runner.run();
    harness.noteSweep(runner);
    harness.exportTraces(runner);

    const auto &split_on = runner.result(split_on_index);
    const auto &split_off = runner.result(split_off_index);

    Table table("AAMS ablation (one port, same engine rate)");
    table.header({"variant", "tput(Gbps)", "avg(us)", "mem(Gbps)",
                  "pcie-total(Gbps)"});
    table.row({"split ON (SmartDS-1)", fmt(split_on.throughputGbps, 1),
               fmt(split_on.avgLatencyUs, 1),
               fmt(usage(split_on, "mem.read") +
                       usage(split_on, "mem.write"),
                   1),
               fmt(usage(split_on, "pcie.smartds.h2d") +
                       usage(split_on, "pcie.smartds.d2h"),
                   1)});
    table.row({"split OFF (payload via host)",
               fmt(split_off.throughputGbps, 1),
               fmt(split_off.avgLatencyUs, 1),
               fmt(usage(split_off, "mem.read") +
                       usage(split_off, "mem.write"),
                   1),
               fmt(usage(split_off, "pcie.nic.h2d") +
                       usage(split_off, "pcie.nic.d2h") +
                       usage(split_off, "pcie.fpga.h2d") +
                       usage(split_off, "pcie.fpga.d2h"),
                   1)});
    table.print();
    table.writeCsv("results/ablation_split.csv");

    // The consequence: port scaling. Without the split every port's
    // traffic crosses the same PCIe link, which caps out immediately.
    const auto &sd4 = runner.result(sd4_index);
    const double pcie_per_port =
        usage(split_off, "pcie.nic.h2d") + usage(split_off, "pcie.nic.d2h");
    const double achievable = toGbps(calibration::pcieGen3x16Bandwidth);
    std::printf("\nWith the split, 4 ports reach %.0f Gbps (%.2fx of one "
                "port).\nWithout it, one port already puts %.0f Gbps on "
                "PCIe; a second port would need %.0f Gbps against the "
                "~%.0f Gbps x16 link: multi-port scaling is impossible.\n",
                sd4.throughputGbps,
                sd4.throughputGbps / split_on.throughputGbps,
                pcie_per_port, 2 * pcie_per_port, 2 * achievable);
    return 0;
}
