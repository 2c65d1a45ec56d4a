/**
 * @file
 * Ablation: DDIO's effect on the accelerator-enhanced design.
 *
 * Extends Figure 8a's w/ vs w/o DDIO contrast: with DDIO the FPGA's
 * payload reads are served from the LLC (no DRAM read bandwidth, no
 * loaded-latency stall); without it every payload is fetched from DRAM.
 * Also shows why DDIO cannot rescue the design under memory pressure:
 * the antagonist thrashes the DDIO ways, so hits evaporate exactly when
 * they would matter (Section 3.2 + Figure 9).
 */

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "mem/mlc_injector.h"

namespace {

using namespace smartds;
using namespace smartds::bench;
using middletier::Design;

} // namespace

int
main(int argc, char **argv)
{
    Harness harness(argc, argv, "ablation_ddio");

    std::printf("Ablation: DDIO on/off for the accelerator design\n\n");

    workload::SweepRunner runner(harness.jobs());
    struct Cell
    {
        bool ddio;
        bool pressure;
        std::size_t index;
    };
    std::vector<Cell> cells;
    for (bool ddio : {true, false}) {
        for (bool pressure : {false, true}) {
            auto config = saturating(Design::Accelerator, 2);
            config.ddio = ddio;
            if (pressure) {
                config.mlcDelayCycles = 0;
                config.mlcCores = 16;
            }
            cells.push_back({ddio, pressure, runner.add(config)});
        }
    }
    runner.run();
    harness.noteSweep(runner);
    harness.exportTraces(runner);

    Table table("Acc with and without DDIO, calm vs MLC pressure");
    table.header({"ddio", "mlc", "tput(Gbps)", "avg(us)", "mem.read",
                  "mem.write"});
    for (const Cell &cell : cells) {
        const auto &r = runner.result(cell.index);
        table.row({cell.ddio ? "on" : "off", cell.pressure ? "max" : "off",
                   fmt(r.throughputGbps, 1), fmt(r.avgLatencyUs, 1),
                   fmt(usage(r, "mem.read"), 1),
                   fmt(usage(r, "mem.write"), 1)});
    }
    table.print();
    table.writeCsv("results/ablation_ddio.csv");

    std::printf("\nDDIO removes the DRAM read stream while calm, but "
                "under MLC pressure the DDIO ways are thrashed and the "
                "design degrades regardless — matching the paper's "
                "argument that DDIO cannot substitute for keeping "
                "payloads off the host (Section 3.2).\n");
    return 0;
}
