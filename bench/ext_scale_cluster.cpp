/**
 * @file
 * Extension: thousand-node cluster runs on the parallel PDES kernel.
 *
 * The paper's testbed stops at a handful of storage servers; production
 * disaggregated pools are thousands of nodes. This bench sweeps the
 * storage pool from 100 to 2000 nodes and, at every size, runs the same
 * experiment on 1/2/4/8 executor shards over the auto-derived
 * timing-domain partition (middle tier, clients, storage spread by
 * rack). Two questions, two columns, plus the round telemetry that
 * explains the first (rounds, events per round, and domains entered per
 * round, since a round enters only the domains with work):
 *
 *  - does sharding pay? events/sec per point, plus the speedup of each
 *    shard count against the serial run of the same topology — on a
 *    multi-core host the domains advance concurrently inside each
 *    conservative lookahead round;
 *  - does sharding lie? every sharded run must reproduce the serial
 *    run's event stream *exactly*. The bench hashes each run's
 *    dispatched events (the dsan machinery) and fatals on the first
 *    shard count whose state hash or request count diverges — the
 *    PDES determinism bar, enforced at 2000 nodes, not just in unit
 *    tests.
 *
 * Wall-clock numbers are hardware-dependent telemetry (a 1-core CI
 * container serializes the shards and reports speedup ~1x, and the
 * bench prints that caveat); the equality assertion is the part that
 * must hold everywhere. The printed table shows the timings, the
 * host-stamped bench_perf record keeps them ("scale_points"), and the
 * CSV leaves them out, so it reproduces byte for byte.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "workload/sweep_runner.h"

namespace {

using namespace smartds;
using namespace smartds::bench;
using namespace smartds::time_literals;
using middletier::Design;

struct Point
{
    unsigned nodes;
    unsigned shards;
    unsigned domains;
    double throughputGbps;
    std::uint64_t requests;
    std::uint64_t events;
    std::uint64_t crossEvents;
    std::uint64_t rounds;
    std::uint64_t domainsEntered;
    std::uint32_t stateHash;
    double wallSeconds;
};

workload::ExperimentConfig
clusterConfig(unsigned nodes)
{
    auto config = saturating(Design::SmartDs, 2);
    config.storageServers = nodes;
    // ~25 storage nodes per rack; the auto partition turns racks into
    // timing domains (capped at 16 storage domains + tier + clients).
    config.failureDomains = std::max(4u, nodes / 25);
    // Big pools amortize construction over a shorter measured window —
    // the point is topology scale, not converged throughput.
    config.warmup = (smoke() ? 1 : 2) * ticksPerMillisecond;
    config.window = (smoke() ? 2 : 6) * ticksPerMillisecond;
    // Always hash the event stream: the per-point equality assertion
    // below compares sharded runs against the serial baseline by state
    // hash, in release builds too. Uniform overhead across shard
    // counts, so the speedup column is unaffected.
    config.dsan = true;
    config.timingDomains = 0; // auto partition from the topology
    return config;
}

Point
runPoint(const Harness &harness, unsigned nodes, unsigned shards)
{
    auto config = clusterConfig(nodes);
    config.shards = shards;
    const Stopwatch watch;
    const auto r = workload::runWriteExperiment(config);
    Point p;
    p.nodes = nodes;
    p.shards = shards;
    p.domains = r.timingDomains;
    p.throughputGbps = r.throughputGbps;
    p.requests = r.requestsCompleted;
    p.events = r.eventsExecuted;
    p.crossEvents = r.crossChannelEvents;
    p.rounds = r.pdesRounds;
    p.domainsEntered = r.pdesDomainsEntered;
    p.stateHash = r.stateHash;
    p.wallSeconds = watch.seconds();
    harness.noteResult(r);
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    Harness harness(argc, argv, "ext_scale_cluster");

    std::printf("Extension: cluster scale on the PDES kernel "
                "(SmartDS, auto timing domains, shards 1/2/4/8)\n\n");

    const unsigned cores = workload::SweepRunner::defaultJobs();
    if (cores < 4)
        std::printf("note: %u hardware thread(s) — shards serialize, "
                    "expect speedup ~1x; the byte-identical check below "
                    "is hardware-independent\n\n",
                    cores);

    const std::vector<unsigned> node_counts =
        sweep({100u, 500u, 1000u, 2000u});
    const std::vector<unsigned> shard_counts = {1u, 2u, 4u, 8u};

    // Columns 8-10 are host timings: the printed table shows them, the
    // CSV drops them.
    const auto without_timings = [](std::vector<std::string> cells) {
        cells.erase(cells.begin() + 8, cells.begin() + 11);
        return cells;
    };
    const std::vector<std::string> columns = {
        "nodes",   "domains", "shards",   "events",
        "cross",   "rounds",  "ev/round", "entered/round",
        "wall(s)", "Mev/s",   "speedup",  "hash"};
    Table table("Cluster scale: events/sec and shard speedup");
    Table csv("Cluster scale");
    table.header(columns);
    csv.header(without_timings(columns));
    std::string timings;

    char buf[32];
    for (const unsigned nodes : node_counts) {
        double serial_wall = 0.0;
        Point baseline{};
        for (const unsigned shards : shard_counts) {
            const Point p = runPoint(harness, nodes, shards);
            if (shards == 1) {
                serial_wall = p.wallSeconds;
                baseline = p;
            } else if (p.stateHash != baseline.stateHash ||
                       p.requests != baseline.requests ||
                       p.events != baseline.events) {
                fatal("shards=%u diverged from the serial run at %u "
                      "nodes: hash %08x vs %08x, %llu vs %llu requests "
                      "— the PDES merge is not shard-count invariant",
                      shards, nodes, p.stateHash, baseline.stateHash,
                      static_cast<unsigned long long>(p.requests),
                      static_cast<unsigned long long>(baseline.requests));
            }
            const double evps =
                p.wallSeconds > 0.0
                    ? static_cast<double>(p.events) / p.wallSeconds
                    : 0.0;
            const double speedup =
                p.wallSeconds > 0.0 ? serial_wall / p.wallSeconds : 0.0;
            const double rounds = static_cast<double>(p.rounds);
            const double per_round =
                rounds > 0.0 ? static_cast<double>(p.events) / rounds : 0.0;
            const double entered =
                rounds > 0.0 ? static_cast<double>(p.domainsEntered) / rounds
                             : 0.0;
            std::snprintf(buf, sizeof(buf), "%08x", p.stateHash);
            const std::vector<std::string> cells = {
                std::to_string(p.nodes),  std::to_string(p.domains),
                std::to_string(p.shards), std::to_string(p.events),
                std::to_string(p.crossEvents),
                std::to_string(p.rounds), fmt(per_round, 1),
                fmt(entered, 2),          fmt(p.wallSeconds, 2),
                fmt(evps / 1e6, 2),       fmt(speedup, 2), buf};
            table.row(cells);
            csv.row(without_timings(cells));
            char point[160];
            std::snprintf(point, sizeof(point),
                          "%s{\"nodes\":%u,\"shards\":%u,\"wall_s\":%.3f,"
                          "\"mev_per_s\":%.3f,\"speedup\":%.3f}",
                          timings.empty() ? "" : ",", p.nodes, p.shards,
                          p.wallSeconds, evps / 1e6, speedup);
            timings += point;
        }
        table.separator();
    }
    table.print();
    csv.writeCsv("results/ext_scale_cluster.csv");
    harness.noteField("scale_points", "[" + timings + "]");

    std::printf("\nEvery sharded run reproduced its serial baseline's "
                "event-stream hash byte for byte; on multi-core hosts "
                "the shard columns turn that equivalence into wall-clock "
                "speedup for thousand-node topologies.\n");
    return 0;
}
