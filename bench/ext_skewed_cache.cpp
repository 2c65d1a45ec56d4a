/**
 * @file
 * Extension: skewed YCSB-style reads + the middle-tier hot-block cache.
 *
 * Cloud block traffic is Zipfian: a small hot set absorbs most reads.
 * This bench sweeps the address skew (exact rejection-inversion Zipf
 * theta) and the middle tier's read-cache capacity across designs, and
 * reports the cache hit rate, the tail latency, and the plain bytes the
 * cache served locally (fetch round trips the fabric never saw). On
 * SmartDS and BF2 the cache lives in device memory — capacity charged
 * against the HBM budget, hits charged to a device-DRAM flow — while the
 * CPU-only tier keeps it in host DRAM.
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
base(Design design)
{
    auto config = design == Design::CpuOnly  ? moderate(Design::CpuOnly, 16)
                  : design == Design::Bf2    ? moderate(Design::Bf2, 8)
                                             : moderate(Design::SmartDs, 2);
    config.readFraction = 0.7;
    // A small virtual disk so the capacity sweep spans miss-dominated to
    // fully resident: 64 MiB = 16384 distinct 4 KiB blocks per client.
    config.virtualDiskBytes = mebibytes(64);
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    Harness harness(argc, argv, "ext_skewed_cache");

    std::printf("Extension: Zipf-skewed reads vs hot-block cache\n\n");

    const std::vector<Design> designs = {Design::CpuOnly, Design::Bf2,
                                         Design::SmartDs};
    const std::vector<double> thetas = sweep({0.6, 0.99, 1.2});
    const std::vector<Bytes> capacities =
        sweep({mebibytes(1), mebibytes(16), mebibytes(64)});

    workload::SweepRunner runner(harness.jobs());
    struct Row
    {
        Design design;
        double theta;
        Bytes capacity; ///< 0 = cache off (the baseline row)
        std::size_t run;
    };
    std::vector<Row> rows;
    for (Design design : designs) {
        for (double theta : thetas) {
            auto off = base(design);
            off.zipfTheta = theta;
            rows.push_back({design, theta, 0, runner.add(off)});
            for (Bytes capacity : capacities) {
                auto config = base(design);
                config.zipfTheta = theta;
                config.readCacheBytes = capacity;
                config.readCachePlacement =
                    design == Design::CpuOnly
                        ? middletier::ReadCachePlacement::HostDram
                        : middletier::ReadCachePlacement::DeviceHbm;
                rows.push_back({design, theta, capacity,
                                runner.add(config)});
            }
        }
    }
    runner.run();
    harness.noteSweep(runner);
    harness.exportTraces(runner);
    harness.verifyDsan(runner);

    Table table("Zipf theta x cache capacity (70% reads)");
    table.header({"design", "theta", "cache(MiB)", "hit%", "p99(us)",
                  "saved(MB)"});
    for (const Row &row : rows) {
        const auto &r = runner.result(row.run);
        const double lookups =
            static_cast<double>(r.cache.hits + r.cache.misses);
        const double hit_pct =
            lookups > 0.0
                ? 100.0 * static_cast<double>(r.cache.hits) / lookups
                : 0.0;
        table.row({middletier::designName(row.design), fmt(row.theta, 2),
                   row.capacity ? fmt(row.capacity >> 20, 0)
                                : std::string("off"),
                   fmt(hit_pct, 1), fmt(r.p99LatencyUs, 1),
                   fmt(static_cast<double>(r.cache.hitBytes) / 1e6, 1)});
    }
    table.print();
    table.writeCsv("results/ext_skewed_cache.csv");

    std::printf("\nHotter address streams (higher theta) and larger "
                "caches both raise the hit rate; every hit replaces a "
                "storage fetch + decompress round trip with one local "
                "memory read, trimming the read tail and keeping the "
                "fetched bytes off the fabric.\n");
    return 0;
}
