/**
 * @file
 * Extension: serving read requests (paper Figure 3b).
 *
 * The paper's evaluation concentrates on writes (5x more frequent, and
 * software decompression is ~7x faster than compression per core). This
 * bench completes the picture: read-only and mixed read/write service on
 * the CPU-only and SmartDS tiers. On reads the middle tier fetches the
 * compressed block from storage, decompresses it, and returns the
 * original block to the VM — on SmartDS the decompression engine does
 * this HBM-to-HBM.
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
    Harness harness(argc, argv, "ext_read_path");

    std::printf("Extension: read-path service (Fig 3b)\n\n");

    const std::vector<Design> designs = {Design::CpuOnly, Design::SmartDs};
    const std::vector<double> read_fractions = sweep({0.0, 0.5, 1.0});

    workload::SweepRunner runner(harness.jobs());
    std::vector<std::vector<std::size_t>> indices;
    Tick window = 0;
    for (Design design : designs) {
        std::vector<std::size_t> per_design;
        for (double reads : read_fractions) {
            auto config = design == Design::CpuOnly
                              ? saturating(Design::CpuOnly, 48)
                              : saturating(Design::SmartDs, 2);
            config.readFraction = reads;
            window = config.window;
            per_design.push_back(runner.add(config));
        }
        indices.push_back(std::move(per_design));
    }
    runner.run();
    harness.noteSweep(runner);
    harness.exportTraces(runner);
    harness.verifyDsan(runner);

    Table table("Read/write mixes (saturating load)");
    table.header({"design", "reads", "completed/s (K)", "avg(us)",
                  "p99(us)"});

    for (std::size_t di = 0; di < designs.size(); ++di) {
        for (std::size_t ri = 0; ri < read_fractions.size(); ++ri) {
            const auto &r = runner.result(indices[di][ri]);
            const double kops =
                static_cast<double>(r.requestsCompleted) /
                toSeconds(window) / 1e3;
            table.row({middletier::designName(designs[di]),
                       fmt(100.0 * read_fractions[ri], 0) + "%",
                       fmt(kops, 0), fmt(r.avgLatencyUs, 1),
                       fmt(r.p99LatencyUs, 1)});
        }
        table.separator();
    }
    table.print();
    table.writeCsv("results/ext_read_path.csv");

    std::printf("\nReads cost the CPU-only tier ~1/7th of a write's "
                "compute (decompression is fast), so its read-mostly "
                "service rate rises; SmartDS serves both directions at "
                "port rate with two cores either way.\n");
    return 0;
}
