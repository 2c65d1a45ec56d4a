#include "workloads.h"

#include "common/logging.h"

namespace smartds::perfbench {

namespace {

using middletier::Design;
using workload::ExperimentConfig;

/**
 * The Fig 7 design points at their saturating configuration: client and
 * outstanding counts stay at runWriteExperiment's defaults (closed loop,
 * auto-sized clients, 8 issuers each), 4 KiB blocks, 3-way replication.
 */
std::vector<Point>
designPoints(std::uint64_t seed)
{
    struct Shape
    {
        Design design;
        unsigned cores;
        unsigned ports;
    };
    const Shape shapes[] = {
        {Design::CpuOnly, 16, 1},
        {Design::Accelerator, 2, 1},
        {Design::Bf2, 8, 2},
        {Design::SmartDs, 2, 1},
    };
    std::vector<Point> points;
    for (const Shape &s : shapes) {
        ExperimentConfig config;
        config.design = s.design;
        config.cores = s.cores;
        config.ports = s.ports;
        config.seed = seed;
        config.faultSeed = seed;
        // Exact ZipfSampler stream on every workload (0 = uniform), never
        // the legacy zipfApprox/addressSkew stream that is being retired.
        config.zipfTheta = 0.0;
        config.warmup = 2 * ticksPerMillisecond;
        config.window = 10 * ticksPerMillisecond;
        points.push_back({designKey(s.design), config});
    }
    return points;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig07_write", "skewed_rw_faults", "ec_cluster"};
    return names;
}

const char *
designKey(Design design)
{
    switch (design) {
      case Design::CpuOnly:
        return "cpu_only";
      case Design::Accelerator:
        return "acc";
      case Design::Bf2:
        return "bf2";
      case Design::SmartDs:
        return "smartds";
    }
    panic("unknown design");
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool shortRun)
{
    Workload w;
    w.name = name;
    w.points = designPoints(seed);
    for (Point &p : w.points) {
        ExperimentConfig &c = p.config;
        if (name == "fig07_write") {
            // Paper headline: 100% uniform writes, one timing domain.
        } else if (name == "skewed_rw_faults") {
            c.readFraction = 0.5;
            c.zipfTheta = 0.99;
            c.virtualDiskBytes = mebibytes(256);
            c.readCacheBytes = mebibytes(16);
            c.readCachePlacement =
                c.design == Design::CpuOnly ||
                        c.design == Design::Accelerator
                    ? middletier::ReadCachePlacement::HostDram
                    : middletier::ReadCachePlacement::DeviceHbm;
            // Every node its own failure domain. The chunk manager places
            // replicas without regard to racks: with 4 racks of 3, some
            // chunks had all 3 replicas in the rack that went down, and
            // their reads went unserved for the outage.
            c.storageServers = 12;
            c.failureDomains = 12;
            c.corruptProbability = 1e-3;
            c.replicaMaxRetries = 1;
            c.window = 20 * ticksPerMillisecond;
        } else if (name == "ec_cluster") {
            c.readFraction = 0.3;
            c.replicationPolicy = middletier::ReplicationPolicy::ErasureCode;
            c.ecDataShards = 4;
            c.ecParityShards = 2;
            c.storageServers = 500;
            c.failureDomains = 20;
            // One retry, then background repair: shards stuck behind the
            // dead rack are rebuilt by reconstruction, not retried inline.
            c.replicaMaxRetries = 1;
            c.window = 20 * ticksPerMillisecond;
            // Auto partition (tier, clients, racks: 18 domains), advanced
            // on one executor thread. At 4 shards, back-to-back passes took
            // 6-19 s on a shared 4-vCPU host: a worker descheduled for a
            // moment stalls every round's barrier. The traced run times
            // and checks the sharded kernel instead (pdes.shard_speedup).
            c.timingDomains = 0;
        } else {
            fatal("unknown workload '%s'", name.c_str());
        }
        if (shortRun) {
            c.warmup = ticksPerMillisecond / 4;
            c.window = ticksPerMillisecond / 2;
        }
        // One failure domain loses power a quarter into the window: one
        // storage node for 2 ms on skewed_rw_faults, a rack for good on
        // ec_cluster (reads decode from parity, maintenance re-homes
        // shards). A fixed outage rather than Poisson crash churn: with
        // churn at a 2 ms mean, crash timeouts hit ~1% of requests and p99
        // flipped between ~75 us and ~860 us from seed to seed.
        if (name != "fig07_write") {
            c.domainCrashAt = c.warmup + c.window / 4;
            c.domainCrashOutage =
                name == "ec_cluster" ? 0 : 2 * ticksPerMillisecond;
        }
    }
    return w;
}

} // namespace smartds::perfbench
