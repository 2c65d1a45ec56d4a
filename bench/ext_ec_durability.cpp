/**
 * @file
 * Extension: durability policy — 3-way replication vs Reed-Solomon.
 *
 * The paper replicates every compressed block three times (Section 2.1).
 * Erasure coding stores the same data at a fraction of that overhead:
 * RS(k, m) splits a block into k data shards plus m parity shards, any k
 * of which reconstruct it. This bench sweeps the durability policy —
 * 3-rep, RS(4, 2) and RS(8, 3) — across a 12-node pool spread over four
 * failure domains, and prices each policy in four currencies:
 *
 *  - storage overhead (bytes the pool holds per completed request),
 *  - network amplification (replica bytes pushed per request, the
 *    write-path tax the middle tier's NIC pays),
 *  - degraded-read latency once faults arrive (shards lost to a crash
 *    must be rebuilt from parity on the read path), and
 *  - reconstruction work (background re-encode of lost shards).
 *
 * Two sweeps: node-crash churn at increasing rates, then a correlated
 * domain crash (one rack loses power mid-window) — the failure mode
 * domain-aware placement exists for, and the one where RS(k, m) must
 * survive the loss of m shards of every stripe at once.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"

namespace {

using namespace smartds;
using namespace smartds::bench;
using namespace smartds::time_literals;
using middletier::Design;
using middletier::ReplicationPolicy;

struct Policy
{
    const char *name;
    ReplicationPolicy policy;
    unsigned k; ///< data shards (EC only)
    unsigned m; ///< parity shards (EC only)
};

workload::ExperimentConfig
durable(const Policy &p)
{
    auto config = moderate(Design::SmartDs, 2);
    config.storageServers = 12;
    // Four failure domains: RS(8, 3) places its 11 shards at most three
    // per domain, so one domain = at most m lost shards per stripe and
    // every policy survives a whole rack going dark.
    config.failureDomains = 4;
    config.readFraction = 0.2;
    config.replicationPolicy = p.policy;
    config.ecDataShards = p.k;
    config.ecParityShards = p.m;
    // One retry, then background repair — stragglers stuck behind an
    // outage drain through reconstruction, not the latency path.
    config.replicaMaxRetries = 1;
    return config;
}

/** Stage-breakdown lookup (tracing runs only); nullptr if absent. */
const trace::StageStats *
findStage(const workload::ExperimentResult &r, const char *name)
{
    for (const trace::StageStats &s : r.stages)
        if (std::string(s.stage) == name)
            return &s;
    return nullptr;
}

double
perRequest(std::uint64_t bytes, const workload::ExperimentResult &r)
{
    return r.requestsCompleted
               ? static_cast<double>(bytes) /
                     static_cast<double>(r.requestsCompleted)
               : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Harness harness(argc, argv, "ext_ec_durability");

    std::printf("Extension: erasure-coded durability vs 3-way "
                "replication (12-node pool, 4 failure domains, 20%% "
                "reads, SmartDS)\n\n");

    // 3-rep leads so relative columns have their baseline even under a
    // smoke trim; the policy list itself is never trimmed — the whole
    // point of the bench is the side-by-side.
    const std::vector<Policy> policies = {
        {"3-rep", ReplicationPolicy::Replicate, 0, 0},
        {"rs(4,2)", ReplicationPolicy::ErasureCode, 4, 2},
        {"rs(8,3)", ReplicationPolicy::ErasureCode, 8, 3},
    };
    const std::vector<Tick> intervals =
        sweep({Tick{0}, 2 * ticksPerMillisecond, 1 * ticksPerMillisecond});

    workload::SweepRunner runner(harness.jobs());
    std::vector<std::vector<std::size_t>> churn_indices;
    for (const Policy &p : policies) {
        std::vector<std::size_t> per_policy;
        for (const Tick interval : intervals) {
            auto config = durable(p);
            config.crashMeanInterval = interval;
            config.crashOutage = 2 * ticksPerMillisecond;
            per_policy.push_back(runner.add(config));
        }
        churn_indices.push_back(std::move(per_policy));
    }
    // Domain crash mid-window, nodes stay down for the rest of the run:
    // every stripe loses the shards that rack held, reads must decode
    // from parity, and reconstruction re-homes the lost shards. Traced
    // so the degraded-read stage has its own percentiles.
    std::vector<std::size_t> domain_indices;
    for (const Policy &p : policies) {
        auto config = durable(p);
        config.domainCrashAt = config.warmup + config.window / 4;
        config.domainCrashOutage = 0; // permanent
        config.traceSample = 1;
        domain_indices.push_back(runner.add(config));
    }
    runner.run();
    harness.noteSweep(runner);
    harness.exportTraces(runner);
    harness.verifyDsan(runner);

    Table churn("Durability policy vs crash churn (2 ms outages)");
    churn.header({"policy", "crash-ivl(us)", "tput(Gbps)", "p99(us)",
                  "net-amp", "stored-x", "degraded", "unserved",
                  "repairs"});
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
        for (std::size_t ii = 0; ii < intervals.size(); ++ii) {
            const auto &r = runner.result(churn_indices[pi][ii]);
            const auto &base = runner.result(churn_indices[0][ii]);
            // Bytes per completed request, relative to 3-rep at the
            // same crash rate: nominal 3x for replication, (k+m)/k for
            // RS, plus whatever failover resends add on top.
            const double net_amp =
                3.0 * perRequest(r.failover.replicaBytesSent, r) /
                perRequest(base.failover.replicaBytesSent, base);
            const double stored_x =
                3.0 * perRequest(r.storageBytesStored, r) /
                perRequest(base.storageBytesStored, base);
            churn.row({policies[pi].name,
                       intervals[ii]
                           ? fmt(toMicroseconds(intervals[ii]), 0)
                           : "off",
                       fmt(r.throughputGbps, 1), fmt(r.p99LatencyUs, 1),
                       fmt(net_amp, 2), fmt(stored_x, 2),
                       fmt(static_cast<double>(
                               r.failover.degradedReads), 0),
                       fmt(static_cast<double>(
                               r.failover.readsUnserved), 0),
                       fmt(static_cast<double>(r.repairsCompleted), 0)});
        }
        churn.separator();
    }
    churn.print();
    churn.writeCsv("results/ext_ec_durability.csv");

    std::printf("\n");
    Table domain("Correlated domain crash (one rack of four lost "
                 "mid-window, permanent)");
    domain.header({"policy", "tput(Gbps)", "p99(us)", "degraded",
                   "degr-p99(us)", "unserved", "reconstr",
                   "reconstr(us)", "deduped"});
    for (std::size_t pi = 0; pi < policies.size(); ++pi) {
        const auto &r = runner.result(domain_indices[pi]);
        const trace::StageStats *degr =
            findStage(r, "ec.degraded_read");
        domain.row({policies[pi].name, fmt(r.throughputGbps, 1),
                    fmt(r.p99LatencyUs, 1),
                    fmt(static_cast<double>(r.failover.degradedReads), 0),
                    degr ? fmt(degr->p99Us, 1) : "-",
                    fmt(static_cast<double>(r.failover.readsUnserved), 0),
                    fmt(static_cast<double>(r.reconstructionsCompleted),
                        0),
                    fmt(r.avgReconstructionUs, 1),
                    fmt(static_cast<double>(r.repairsDeduped), 0)});
    }
    domain.print();
    domain.writeCsv("results/ext_ec_durability_domain.csv");

    std::printf(
        "\nRS(4, 2) halves both the stored bytes and the replica "
        "traffic of 3-rep (1.5x vs 3x), and RS(8, 3) shaves further "
        "(1.375x) while tolerating a third shard loss per stripe. The "
        "bill arrives on the fault path: a degraded read must gather k "
        "shards instead of touching one replica, so its tail stretches "
        "with every crashed node the ring probe trips over, and a lost "
        "rack turns into k-way reconstruction traffic instead of a "
        "single-copy resend. Replication stays the latency-simple "
        "choice; erasure coding is the capacity-efficient one, priced "
        "in degraded-read tail and reconstruction bandwidth.\n");
    return 0;
}
