/**
 * @file
 * Tests for the experiment harness: the headline relationships of the
 * paper's evaluation must hold on short runs — who wins, engine limits,
 * linear port scaling, interference immunity.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "workload/experiment.h"

namespace smartds::workload {
namespace {

ExperimentConfig
quick(middletier::Design design, unsigned cores, unsigned ports = 1)
{
    ExperimentConfig config;
    config.design = design;
    config.cores = cores;
    config.ports = ports;
    config.warmup = 2 * ticksPerMillisecond;
    config.window = 6 * ticksPerMillisecond;
    return config;
}

TEST(Experiment, SmartDsOnePortNearLineLimit)
{
    const auto r = runWriteExperiment(
        quick(middletier::Design::SmartDs, 2));
    // TX-replication-limited: ~3x0.56 amplification on a ~95 Gbps port.
    EXPECT_GT(r.throughputGbps, 45.0);
    EXPECT_LT(r.throughputGbps, 62.0);
    EXPECT_GT(r.requestsCompleted, 1000u);
}

TEST(Experiment, CpuOnlyScalesWithCores)
{
    const auto few = runWriteExperiment(
        quick(middletier::Design::CpuOnly, 4));
    const auto many = runWriteExperiment(
        quick(middletier::Design::CpuOnly, 48));
    EXPECT_GT(many.throughputGbps, 4 * few.throughputGbps);
    EXPECT_GT(many.throughputGbps, 45.0);
    EXPECT_LT(many.throughputGbps, 62.0);
}

TEST(Experiment, AcceleratorPeaksWithTwoCores)
{
    const auto two = runWriteExperiment(
        quick(middletier::Design::Accelerator, 2));
    const auto four = runWriteExperiment(
        quick(middletier::Design::Accelerator, 4));
    EXPECT_GT(two.throughputGbps, 45.0);
    // More cores add nothing: the design is not CPU-bound.
    EXPECT_NEAR(four.throughputGbps, two.throughputGbps,
                0.1 * two.throughputGbps);
}

TEST(Experiment, Bf2IsEngineLimited)
{
    const auto r = runWriteExperiment(quick(middletier::Design::Bf2, 8, 2));
    // ~40 Gbps compression engine caps the design.
    EXPECT_GT(r.throughputGbps, 30.0);
    EXPECT_LT(r.throughputGbps, 44.0);
}

TEST(Experiment, SmartDsScalesLinearlyWithPorts)
{
    const auto one = runWriteExperiment(
        quick(middletier::Design::SmartDs, 2, 1));
    const auto four = runWriteExperiment(
        quick(middletier::Design::SmartDs, 8, 4));
    EXPECT_GT(four.throughputGbps, 3.6 * one.throughputGbps);
    // Latency stays roughly flat across port counts (Fig. 10b).
    EXPECT_LT(four.avgLatencyUs, 1.4 * one.avgLatencyUs);
}

TEST(Experiment, SmartDsBarelyTouchesHostMemoryAndPcie)
{
    const auto r = runWriteExperiment(
        quick(middletier::Design::SmartDs, 2));
    const auto cpu = runWriteExperiment(
        quick(middletier::Design::CpuOnly, 48));
    // Header-only traffic: a few Gbps against CPU-only's ~90 (Fig. 8).
    EXPECT_LT(r.usageGbps.at("mem.read"), 0.1 * cpu.usageGbps.at("mem.read"));
    EXPECT_LT(r.usageGbps.at("pcie.smartds.h2d"),
              0.1 * cpu.usageGbps.at("pcie.nic.h2d"));
}

TEST(Experiment, MlcPressureHurtsCpuOnlyNotSmartDs)
{
    auto with_mlc = [](middletier::Design d, unsigned cores,
                       unsigned delay) {
        auto config = quick(d, cores);
        config.mlcDelayCycles = delay;
        config.mlcCores = 16;
        return runWriteExperiment(config);
    };
    const auto cpu_calm =
        with_mlc(middletier::Design::CpuOnly, 32, mem::MlcInjector::offDelay);
    const auto cpu_loud = with_mlc(middletier::Design::CpuOnly, 32, 0);
    const auto sd_calm = with_mlc(middletier::Design::SmartDs, 2,
                                  mem::MlcInjector::offDelay);
    const auto sd_loud = with_mlc(middletier::Design::SmartDs, 2, 0);

    EXPECT_LT(cpu_loud.throughputGbps, 0.9 * cpu_calm.throughputGbps);
    EXPECT_GT(sd_loud.throughputGbps, 0.93 * sd_calm.throughputGbps);
    EXPECT_GT(cpu_loud.mlcGBps, 1.0);
}

TEST(Experiment, LatencySensitiveTrafficSkipsEngine)
{
    auto config = quick(middletier::Design::SmartDs, 2);
    config.latencySensitiveFraction = 1.0;
    const auto r = runWriteExperiment(config);
    // Uncompressed replication triples TX bytes: lower payload peak.
    EXPECT_GT(r.requestsCompleted, 1000u);
    EXPECT_LT(r.throughputGbps, 40.0);
}

TEST(Experiment, ResultFieldsConsistent)
{
    const auto r = runWriteExperiment(quick(middletier::Design::SmartDs, 2));
    EXPECT_GT(r.meanCompressionRatio, 0.4);
    EXPECT_LT(r.meanCompressionRatio, 0.7);
    EXPECT_LE(r.p50LatencyUs, r.p99LatencyUs);
    EXPECT_LE(r.p99LatencyUs, r.p999LatencyUs);
    EXPECT_GT(r.avgLatencyUs, 0.0);
}

TEST(Experiment, UsageProbeKeysPinnedPerDesign)
{
    // Each design reports its own byte counters plus the protocol's
    // failover, EC, cache and replica counters. perfbench reads three of
    // the latter: failover.read_failovers, failover.retries and
    // replica.bytes_sent.
    const std::vector<std::string> protocol = {
        "cache.evictions",        "cache.hit_bytes",
        "cache.hits",             "cache.invalidations",
        "cache.misses",           "ec.degraded_reads",
        "ec.stripes_encoded",     "failover.abandoned",
        "failover.corruptions",   "failover.quorum_completions",
        "failover.read_failovers", "failover.replacements",
        "failover.retries",       "failover.suspected",
        "failover.timeouts",      "replica.bytes_sent",
    };
    struct Point
    {
        const char *name;
        middletier::Design design;
        unsigned cores;
        unsigned cards;
        std::vector<std::string> own;
    };
    const std::vector<Point> points = {
        {"CPU-only", middletier::Design::CpuOnly, 8, 1,
         {"mem.read", "mem.write", "pcie.nic.d2h", "pcie.nic.h2d"}},
        {"Acc", middletier::Design::Accelerator, 2, 1,
         {"mem.read", "mem.write", "pcie.fpga.d2h", "pcie.fpga.h2d",
          "pcie.nic.d2h", "pcie.nic.h2d"}},
        {"BF2", middletier::Design::Bf2, 8, 1,
         {"dev.mem.read", "dev.mem.write", "mem.read", "mem.write"}},
        {"SmartDS", middletier::Design::SmartDs, 2, 1,
         {"mem.read", "mem.write", "pcie.smartds.d2h",
          "pcie.smartds.h2d"}},
        {"SmartDS x2", middletier::Design::SmartDs, 2, 2,
         {"mem.read", "mem.write", "pcie.smartds.d2h", "pcie.smartds.h2d",
          "pcie.switch0.root"}},
    };
    for (const Point &p : points) {
        ExperimentConfig config = quick(p.design, p.cores);
        config.cards = p.cards;
        config.warmup = 1 * ticksPerMillisecond;
        config.window = 1 * ticksPerMillisecond;
        const auto r = runWriteExperiment(config);
        std::set<std::string> want(p.own.begin(), p.own.end());
        want.insert(protocol.begin(), protocol.end());
        std::set<std::string> keys;
        for (const auto &[key, gbps] : r.usageGbps)
            keys.insert(key);
        EXPECT_EQ(keys, want) << p.name;
        EXPECT_GT(r.usageGbps.at("replica.bytes_sent"), 0.0) << p.name;
    }
}

TEST(Experiment, RejectsMoreFailureDomainsThanStorageNodes)
{
    // 20 racks over 12 nodes leave racks 12-19 empty, and a crash of an
    // empty rack cannot run. The run is refused whichever rack the fault
    // seed would draw.
    ExperimentConfig config = quick(middletier::Design::CpuOnly, 4);
    config.storageServers = 12;
    config.failureDomains = 20;
    config.domainCrashAt = config.warmup;
    config.domainCrashOutage = 0;
    for (const std::uint64_t seed : {1, 2}) {
        config.faultSeed = seed;
        EXPECT_DEATH(runWriteExperiment(config),
                     "20 failure domains over 12 storage nodes");
    }
}

} // namespace
} // namespace smartds::workload
