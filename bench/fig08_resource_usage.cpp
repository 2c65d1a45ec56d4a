/**
 * @file
 * Reproduces Figure 8: host memory bandwidth (8a) and CPU PCIe link
 * bandwidth (8b) occupied by each design while serving write requests.
 *
 * Expected shapes (paper Section 5.2):
 *  - CPU-only consumes nearly equal memory read and write bandwidth,
 *    growing with core count; its NIC's H2D PCIe direction approaches
 *    the PCIe 3.0 x16 achievable bandwidth at peak.
 *  - Acc w/ DDIO consumes mostly memory *write* bandwidth (NIC-written
 *    payloads spill from the DDIO ways; the FPGA's reads hit the LLC);
 *    disabling DDIO makes read bandwidth jump. Its NIC PCIe link
 *    saturates and the FPGA link carries the payload twice more.
 *  - SmartDS occupies only ~2% of PCIe and almost no memory bandwidth:
 *    payloads never leave the card.
 */

#include <cstdio>
#include <string>
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
    Harness harness(argc, argv, "fig08_resource_usage");

    std::printf("Figure 8: host memory and CPU PCIe link bandwidth "
                "usage\n\n");

    workload::SweepRunner runner(harness.jobs());

    std::vector<std::pair<unsigned, std::size_t>> cpu_rows;
    for (unsigned cores : sweep({8u, 16u, 24u, 32u, 48u}))
        cpu_rows.emplace_back(
            cores, runner.add(saturating(Design::CpuOnly, cores)));

    struct AccRow
    {
        std::string label;
        unsigned cores;
        std::size_t index;
    };
    std::vector<std::vector<AccRow>> acc_groups;
    for (bool ddio : {true, false}) {
        std::vector<AccRow> group;
        for (unsigned cores : sweep({1u, 2u, 4u})) {
            auto config = saturating(Design::Accelerator, cores);
            config.ddio = ddio;
            group.push_back({ddio ? "Acc w/DDIO" : "Acc w/oDDIO", cores,
                             runner.add(config)});
        }
        acc_groups.push_back(std::move(group));
    }

    const std::size_t sd_index =
        runner.add(saturating(Design::SmartDs, 2));

    runner.run();
    harness.noteSweep(runner);
    harness.exportTraces(runner);

    Table mem("Fig 8a - host memory bandwidth occupation (Gbps)");
    mem.header({"design", "cores", "tput(Gbps)", "mem.read", "mem.write"});
    Table pcie("Fig 8b - CPU PCIe link bandwidth (Gbps)");
    pcie.header({"design", "cores", "tput(Gbps)", "nic.h2d", "nic.d2h",
                 "fpga/sd.h2d", "fpga/sd.d2h"});

    for (const auto &[cores, index] : cpu_rows) {
        const auto &r = runner.result(index);
        mem.row({"CPU-only", fmt(cores), fmt(r.throughputGbps, 1),
                 fmt(usage(r, "mem.read"), 1),
                 fmt(usage(r, "mem.write"), 1)});
        pcie.row({"CPU-only", fmt(cores), fmt(r.throughputGbps, 1),
                  fmt(usage(r, "pcie.nic.h2d"), 1),
                  fmt(usage(r, "pcie.nic.d2h"), 1), "-", "-"});
    }
    mem.separator();
    pcie.separator();

    for (const auto &group : acc_groups) {
        for (const AccRow &row : group) {
            const auto &r = runner.result(row.index);
            mem.row({row.label, fmt(row.cores), fmt(r.throughputGbps, 1),
                     fmt(usage(r, "mem.read"), 1),
                     fmt(usage(r, "mem.write"), 1)});
            pcie.row({row.label, fmt(row.cores), fmt(r.throughputGbps, 1),
                      fmt(usage(r, "pcie.nic.h2d"), 1),
                      fmt(usage(r, "pcie.nic.d2h"), 1),
                      fmt(usage(r, "pcie.fpga.h2d"), 1),
                      fmt(usage(r, "pcie.fpga.d2h"), 1)});
        }
        mem.separator();
        pcie.separator();
    }

    {
        const auto &r = runner.result(sd_index);
        mem.row({"SmartDS-1", "2", fmt(r.throughputGbps, 1),
                 fmt(usage(r, "mem.read"), 1),
                 fmt(usage(r, "mem.write"), 1)});
        pcie.row({"SmartDS-1", "2", fmt(r.throughputGbps, 1), "-", "-",
                  fmt(usage(r, "pcie.smartds.h2d"), 1),
                  fmt(usage(r, "pcie.smartds.d2h"), 1)});
    }

    mem.print();
    mem.writeCsv("results/fig08a_memory.csv");
    std::printf("\n");
    pcie.print();
    pcie.writeCsv("results/fig08b_pcie.csv");

    std::printf("\nSmartDS occupies ~2%% of one PCIe 3.0 x16 direction "
                "(achievable ~104 Gbps) at full port rate; CPU-only's "
                "NIC H2D approaches the PCIe limit at peak (paper Fig "
                "8b).\n");
    return 0;
}
