/**
 * @file
 * Tests for the trace workload: the bursty synthesizer's statistics and
 * open-loop replay against a live middle tier.
 */

#include <gtest/gtest.h>

#include "mem/memory_system.h"
#include "middletier/smartds_server.h"
#include "net/fabric.h"
#include "storage/storage_server.h"
#include "workload/trace.h"

namespace smartds::workload {
namespace {

using namespace smartds::time_literals;

TEST(Trace, SynthesizerHitsMeanRate)
{
    TraceSynthesis synth;
    synth.records = 50000;
    synth.meanRatePerSecond = 1e6;
    const auto records = synthesizeTrace(synth);
    const double span_s = toSeconds(records.back().at);
    const double rate = static_cast<double>(records.size()) / span_s;
    EXPECT_NEAR(rate, 1e6, 0.1e6);
}

TEST(Trace, SynthesizerIsBursty)
{
    TraceSynthesis synth;
    synth.records = 50000;
    synth.burstFraction = 0.25;
    const auto records = synthesizeTrace(synth);
    // Coefficient of variation of inter-arrival gaps must exceed a pure
    // Poisson process's (CV = 1).
    double sum = 0.0, sum2 = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 1; i < records.size(); ++i) {
        const double gap = toSeconds(records[i].at - records[i - 1].at);
        sum += gap;
        sum2 += gap * gap;
        ++n;
    }
    const double mean = sum / static_cast<double>(n);
    const double var = sum2 / static_cast<double>(n) - mean * mean;
    const double cv = std::sqrt(var) / mean;
    EXPECT_GT(cv, 1.05);
}

TEST(Trace, OpenLoopReplayAgainstSmartDs)
{
    sim::Simulator sim;
    net::Fabric fabric(sim);
    mem::MemorySystem memory(sim, "mem", {});
    std::vector<std::unique_ptr<storage::StorageServer>> pool;
    middletier::ServerConfig sc;
    sc.cores = 2;
    for (int i = 0; i < 6; ++i) {
        pool.push_back(std::make_unique<storage::StorageServer>(
            fabric, "st" + std::to_string(i)));
        sc.storageNodes.push_back(pool.back()->nodeId());
    }
    middletier::SmartDsServer::SmartDsConfig sd;
    sd.workersPerPort = 64;
    middletier::SmartDsServer server(fabric, memory, sc, sd);

    corpus::SyntheticCorpus corpus(1u << 20, 2);
    corpus::RatioSampler ratios(corpus, 4096, 1, 64, 3);

    TraceSynthesis synth;
    synth.records = 3000;
    synth.meanRatePerSecond = 0.8e6; // ~26 Gbps: below the port limit
    const auto trace = synthesizeTrace(synth);

    ClientMetrics metrics;
    std::uint64_t tags = 1;
    TraceReplayer::Config rc;
    rc.target = server.frontNode();
    rc.targetQp = server.frontQp();
    rc.ratios = &ratios;
    rc.tagCounter = &tags;
    rc.metrics = &metrics;
    TraceReplayer replayer(fabric, "replay", trace, rc);

    sim.run();
    EXPECT_TRUE(replayer.finished());
    EXPECT_EQ(metrics.completed, 3000u);
    EXPECT_GT(metrics.latency.avgUs(), 10.0);
    // Open loop below the *average* capacity: bursts queue briefly (the
    // point of open-loop replay) but drain, so the average stays near
    // the unloaded level and the tail stays bounded.
    EXPECT_LT(metrics.latency.avgUs(), 300.0);
    EXPECT_LT(metrics.latency.p999Us(), 2000.0);
}

TEST(Trace, OverloadBurstsShowQueueing)
{
    // Replay above capacity: open-loop latency must blow past the
    // closed-loop-ish unloaded level, showing the queue build-up that
    // closed-loop clients cannot express.
    sim::Simulator sim;
    net::Fabric fabric(sim);
    mem::MemorySystem memory(sim, "mem", {});
    std::vector<std::unique_ptr<storage::StorageServer>> pool;
    middletier::ServerConfig sc;
    sc.cores = 2;
    for (int i = 0; i < 6; ++i) {
        pool.push_back(std::make_unique<storage::StorageServer>(
            fabric, "st" + std::to_string(i)));
        sc.storageNodes.push_back(pool.back()->nodeId());
    }
    middletier::SmartDsServer::SmartDsConfig sd;
    sd.workersPerPort = 64;
    middletier::SmartDsServer server(fabric, memory, sc, sd);

    corpus::SyntheticCorpus corpus(1u << 20, 2);
    corpus::RatioSampler ratios(corpus, 4096, 1, 64, 3);
    TraceSynthesis synth;
    synth.records = 6000;
    synth.meanRatePerSecond = 4e6; // ~130 Gbps into one port
    const auto trace = synthesizeTrace(synth);

    ClientMetrics metrics;
    std::uint64_t tags = 1;
    TraceReplayer::Config rc;
    rc.target = server.frontNode();
    rc.targetQp = server.frontQp();
    rc.ratios = &ratios;
    rc.tagCounter = &tags;
    rc.metrics = &metrics;
    TraceReplayer replayer(fabric, "replay", trace, rc);
    sim.run();
    EXPECT_TRUE(replayer.finished());
    EXPECT_GT(metrics.latency.p999Us(), 200.0);
}

} // namespace
} // namespace smartds::workload
