/**
 * @file
 * Tests for the workload layer: VM client behaviour, conservation
 * properties of the full system, and experiment-harness invariants
 * swept across designs and seeds (parameterized property tests).
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "mem/memory_system.h"
#include "middletier/cpu_only_server.h"
#include "middletier/protocol.h"
#include "net/fabric.h"
#include "storage/storage_server.h"
#include "workload/experiment.h"
#include "workload/sweep_runner.h"
#include "workload/vm_client.h"

namespace smartds::workload {
namespace {

using namespace smartds::time_literals;
using middletier::Design;

TEST(VmClient, ClosedLoopKeepsOutstandingBounded)
{
    // A client with N issuers never has more than N requests in flight:
    // issued - completed <= outstanding at all times (checked at end).
    sim::Simulator sim;
    net::Fabric fabric(sim);
    mem::MemorySystem memory(sim, "mem", {});
    storage::StorageServer s1(fabric, "s1"), s2(fabric, "s2"),
        s3(fabric, "s3");
    middletier::ServerConfig sc;
    sc.cores = 4;
    sc.storageNodes = {s1.nodeId(), s2.nodeId(), s3.nodeId()};
    middletier::CpuOnlyServer server(fabric, memory, sc);

    corpus::SyntheticCorpus corpus(1u << 20, 2);
    corpus::RatioSampler ratios(corpus, 4096, 1, 64, 3);
    ClientMetrics metrics;
    std::uint64_t tags = 1;
    VmClient::Config cc;
    cc.target = server.frontNode();
    cc.outstanding = 6;
    cc.ratios = &ratios;
    cc.tagCounter = &tags;
    cc.metrics = &metrics;
    VmClient client(fabric, "vm", cc);

    sim.runUntil(3 * ticksPerMillisecond);
    EXPECT_LE(metrics.issued - metrics.completed, 6u);
    client.stop();
    sim.run();
    EXPECT_EQ(metrics.issued, metrics.completed);
}

TEST(VmClient, TagsAreUniqueAcrossClients)
{
    // The shared tag counter guarantees global uniqueness; totals of two
    // clients add up to the counter's advance.
    sim::Simulator sim;
    net::Fabric fabric(sim);
    mem::MemorySystem memory(sim, "mem", {});
    storage::StorageServer s1(fabric, "s1"), s2(fabric, "s2"),
        s3(fabric, "s3");
    middletier::ServerConfig sc;
    sc.cores = 8;
    sc.storageNodes = {s1.nodeId(), s2.nodeId(), s3.nodeId()};
    middletier::CpuOnlyServer server(fabric, memory, sc);

    corpus::SyntheticCorpus corpus(1u << 20, 2);
    corpus::RatioSampler ratios(corpus, 4096, 1, 64, 3);
    ClientMetrics metrics;
    std::uint64_t tags = 1;
    auto make = [&](const std::string &name, std::uint64_t seed) {
        VmClient::Config cc;
        cc.target = server.frontNode();
        cc.outstanding = 3;
        cc.ratios = &ratios;
        cc.seed = seed;
        cc.tagCounter = &tags;
        cc.metrics = &metrics;
        return std::make_unique<VmClient>(fabric, name, cc);
    };
    auto a = make("vm-a", 1);
    auto b = make("vm-b", 2);
    sim.runUntil(2 * ticksPerMillisecond);
    a->stop();
    b->stop();
    sim.run();
    EXPECT_EQ(tags - 1, metrics.issued);
}

/**
 * The block offsets a client with @p zipf_theta and @p seed issues in its
 * first @p requests requests, in issue order. A stub middle tier records
 * each request's offset and replies at once.
 */
std::vector<std::uint64_t>
issuedOffsets(double zipf_theta, std::uint64_t seed, std::size_t requests)
{
    sim::Simulator sim;
    net::Fabric fabric(sim);
    net::Port *tier = fabric.createPort("tier");
    std::vector<std::uint64_t> offsets;
    tier->onReceive([&](net::Message &&request) {
        offsets.push_back(request.blockOffset);
        net::Message reply;
        reply.dst = request.src;
        reply.kind = net::MessageKind::WriteReply;
        reply.headerBytes = middletier::StorageHeader::wireSize;
        reply.tag = request.tag;
        tier->send(std::move(reply));
    });

    corpus::SyntheticCorpus corpus(1u << 20, 2);
    corpus::RatioSampler ratios(corpus, 4096, 1, 64, 3);
    ClientMetrics metrics;
    std::uint64_t tags = 1;
    VmClient::Config cc;
    cc.target = tier->id();
    cc.ratios = &ratios;
    cc.zipfTheta = zipf_theta;
    cc.seed = seed;
    cc.tagCounter = &tags;
    cc.metrics = &metrics;
    VmClient client(fabric, "vm", cc);
    while (offsets.size() < requests)
        sim.runUntil(sim.now() + 100_us);
    client.stop();
    sim.run();
    offsets.resize(requests);
    return offsets;
}

TEST(VmClient, AddressStreamSpreadsSkewsAndRepeats)
{
    // 16,000 draws over 16 equal bands of the default 64 GiB disk: a
    // uniform band holds 1,000 +- 31 (one sigma), so 150 is ~5 sigma.
    constexpr std::size_t draws = 16000;
    constexpr unsigned bands = 16;
    const Bytes band_bytes = gibibytes(64) / bands;
    const auto band_counts = [&](const std::vector<std::uint64_t> &offs) {
        std::vector<std::size_t> counts(bands, 0);
        for (const std::uint64_t off : offs) {
            EXPECT_EQ(off % calibration::storageBlockBytes, 0u);
            EXPECT_LT(off, gibibytes(64));
            ++counts[off / band_bytes];
        }
        return counts;
    };

    const std::vector<std::uint64_t> uniform = issuedOffsets(0.0, 7, draws);
    for (const std::size_t n : band_counts(uniform))
        EXPECT_NEAR(static_cast<double>(n), draws / bands, 150.0);

    // Zipf(0.99) puts most of its mass on the lowest ranks.
    const std::vector<std::size_t> skewed =
        band_counts(issuedOffsets(0.99, 7, draws));
    EXPECT_GT(skewed[0], draws / 2);

    // The default is uniform, and a seed fixes the stream.
    VmClient::Config defaults;
    EXPECT_EQ(defaults.zipfTheta, 0.0);
    EXPECT_EQ(issuedOffsets(0.0, 7, 1000),
              std::vector<std::uint64_t>(uniform.begin(),
                                         uniform.begin() + 1000));
    EXPECT_NE(issuedOffsets(0.0, 8, 1000),
              std::vector<std::uint64_t>(uniform.begin(),
                                         uniform.begin() + 1000));
}

// -----------------------------------------------------------------------
// Property sweep: conservation invariants across designs and seeds.
// -----------------------------------------------------------------------

using InvariantParam = std::tuple<Design, std::uint64_t>;

class ExperimentInvariants : public ::testing::TestWithParam<InvariantParam>
{
};

TEST_P(ExperimentInvariants, ConservationAndSanity)
{
    const auto [design, seed] = GetParam();
    ExperimentConfig config;
    config.design = design;
    config.cores = design == Design::CpuOnly ? 16 : 2;
    if (design == Design::Bf2)
        config.cores = 8;
    config.seed = seed;
    config.warmup = 2 * ticksPerMillisecond;
    config.window = 5 * ticksPerMillisecond;
    const auto r = runWriteExperiment(config);

    // Work happened and the books balance.
    EXPECT_GT(r.requestsCompleted, 100u);
    EXPECT_GT(r.throughputGbps, 1.0);
    // Throughput equals completed requests x block size over the window.
    const double expected =
        toGbps(static_cast<double>(r.requestsCompleted) * 4096.0 /
               toSeconds(config.window));
    EXPECT_NEAR(r.throughputGbps, expected, expected * 0.01);
    // Latency ordering.
    EXPECT_LE(r.p50LatencyUs, r.p99LatencyUs + 1e-9);
    EXPECT_LE(r.p99LatencyUs, r.p999LatencyUs + 1e-9);
    EXPECT_GT(r.avgLatencyUs, 10.0);   // at least storage + engine time
    EXPECT_LT(r.avgLatencyUs, 5000.0); // no runaway queues
    // Ratio sampled from the real codec.
    EXPECT_GT(r.meanCompressionRatio, 0.4);
    EXPECT_LT(r.meanCompressionRatio, 0.7);
}

INSTANTIATE_TEST_SUITE_P(
    DesignsAndSeeds, ExperimentInvariants,
    ::testing::Combine(::testing::Values(Design::CpuOnly,
                                         Design::Accelerator, Design::Bf2,
                                         Design::SmartDs),
                       ::testing::Values(1u, 42u, 20260706u)));

TEST(Experiment, DeterministicForFixedSeed)
{
    ExperimentConfig config;
    config.design = Design::SmartDs;
    config.cores = 2;
    config.warmup = 2 * ticksPerMillisecond;
    config.window = 4 * ticksPerMillisecond;
    const auto a = runWriteExperiment(config);
    const auto b = runWriteExperiment(config);
    EXPECT_EQ(a.requestsCompleted, b.requestsCompleted);
    EXPECT_DOUBLE_EQ(a.throughputGbps, b.throughputGbps);
    EXPECT_DOUBLE_EQ(a.p999LatencyUs, b.p999LatencyUs);
}

TEST(SweepRunner, ParallelSweepBitIdenticalToSerial)
{
    // The --jobs N parallel sweep must reproduce the serial sweep's
    // results bit-for-bit: every per-point statistic, including the
    // failover counters of fault-injected points, must match exactly.
    auto build = [](SweepRunner &runner) {
        for (const Design design :
             {Design::CpuOnly, Design::SmartDs, Design::Bf2}) {
            for (const std::uint64_t seed : {1u, 99u}) {
                ExperimentConfig config;
                config.design = design;
                config.cores = design == Design::CpuOnly ? 8 : 2;
                config.seed = seed;
                config.warmup = 1 * ticksPerMillisecond;
                config.window = 2 * ticksPerMillisecond;
                runner.add(config);
            }
        }
        // A fault-injected point exercises the failover counters.
        ExperimentConfig faulty;
        faulty.design = Design::SmartDs;
        faulty.cores = 2;
        faulty.storageServers = 12;
        faulty.warmup = 1 * ticksPerMillisecond;
        faulty.window = 2 * ticksPerMillisecond;
        faulty.crashMeanInterval = 1 * ticksPerMillisecond;
        faulty.crashOutage = 1 * ticksPerMillisecond;
        runner.add(faulty);
    };

    SweepRunner serial(1);
    build(serial);
    const auto &serial_results = serial.run();

    SweepRunner parallel(8);
    build(parallel);
    EXPECT_EQ(parallel.jobs(), 8u);
    const auto &parallel_results = parallel.run();

    ASSERT_EQ(serial_results.size(), parallel_results.size());
    for (std::size_t i = 0; i < serial_results.size(); ++i) {
        const auto &s = serial_results[i];
        const auto &p = parallel_results[i];
        EXPECT_EQ(s.requestsCompleted, p.requestsCompleted) << "point " << i;
        EXPECT_EQ(s.throughputGbps, p.throughputGbps) << "point " << i;
        EXPECT_EQ(s.avgLatencyUs, p.avgLatencyUs) << "point " << i;
        EXPECT_EQ(s.p50LatencyUs, p.p50LatencyUs) << "point " << i;
        EXPECT_EQ(s.p99LatencyUs, p.p99LatencyUs) << "point " << i;
        EXPECT_EQ(s.p999LatencyUs, p.p999LatencyUs) << "point " << i;
        EXPECT_EQ(s.meanCompressionRatio, p.meanCompressionRatio)
            << "point " << i;
        EXPECT_EQ(s.usageGbps, p.usageGbps) << "point " << i;
        EXPECT_EQ(s.crashesInjected, p.crashesInjected) << "point " << i;
        EXPECT_EQ(s.failover.replicaTimeouts, p.failover.replicaTimeouts)
            << "point " << i;
        EXPECT_EQ(s.failover.replicaReplacements,
                  p.failover.replicaReplacements)
            << "point " << i;
        EXPECT_EQ(s.failover.quorumCompletions, p.failover.quorumCompletions)
            << "point " << i;
        EXPECT_EQ(s.failover.readFailovers, p.failover.readFailovers)
            << "point " << i;
    }
}

TEST(Experiment, DifferentSeedsDifferentTimings)
{
    ExperimentConfig config;
    config.design = Design::CpuOnly;
    config.cores = 8;
    config.warmup = 2 * ticksPerMillisecond;
    config.window = 4 * ticksPerMillisecond;
    const auto a = runWriteExperiment(config);
    config.seed = 777;
    const auto b = runWriteExperiment(config);
    EXPECT_NE(a.requestsCompleted, b.requestsCompleted);
    // But the steady-state physics stays put.
    EXPECT_NEAR(a.throughputGbps, b.throughputGbps,
                0.05 * a.throughputGbps);
}

} // namespace
} // namespace smartds::workload
