/**
 * @file
 * The placement draw (middletier/placement.h): its properties over
 * random topologies and health states, and what it buys end to end — a
 * rack lost for good under 3-way replication no longer loses reads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "middletier/node_health.h"
#include "middletier/placement.h"
#include "workload/experiment.h"
#include "workload/sweep_runner.h"

namespace smartds::middletier {
namespace {

using namespace smartds::time_literals;

/** One random storage pool with racks and a suspected set. */
struct Scenario
{
    std::vector<net::NodeId> nodes;
    /** Empty = no topology. */
    std::vector<unsigned> racks;
    std::set<net::NodeId> suspects;

    unsigned
    rackOf(net::NodeId n) const
    {
        if (racks.empty())
            return 0;
        const auto it = std::find(nodes.begin(), nodes.end(), n);
        return racks[static_cast<std::size_t>(it - nodes.begin())];
    }

    unsigned
    rackCount() const
    {
        return racks.empty() ? 1
                             : static_cast<unsigned>(
                                   std::set<unsigned>(racks.begin(),
                                                      racks.end())
                                       .size());
    }

    /**
     * The draw's pool in storage order: healthy nodes outside @p placed,
     * or every node outside it when fewer than @p count are healthy.
     */
    std::vector<net::NodeId>
    pool(unsigned count, std::span<const net::NodeId> placed = {}) const
    {
        std::vector<net::NodeId> healthy, all;
        for (const net::NodeId n : nodes) {
            if (std::find(placed.begin(), placed.end(), n) != placed.end())
                continue;
            all.push_back(n);
            if (!suspects.count(n))
                healthy.push_back(n);
        }
        return healthy.size() >= count ? healthy : all;
    }
};

/**
 * 1-24 nodes with shuffled ids. Racks: none, one per node, or 1-8 racks
 * of uneven sizes (a node's rack is drawn at random). A random subset of
 * the nodes is suspected.
 */
Scenario
randomScenario(Rng &rng)
{
    Scenario s;
    const unsigned n = 1 + static_cast<unsigned>(rng.below(24));
    for (unsigned i = 0; i < n; ++i)
        s.nodes.push_back(100 + i);
    for (std::size_t i = 0; i + 1 < n; ++i)
        std::swap(s.nodes[i], s.nodes[i + rng.below(n - i)]);
    switch (rng.below(3)) {
      case 0: // no topology
        break;
      case 1: // one node per rack
        for (unsigned i = 0; i < n; ++i)
            s.racks.push_back(7 * i + 3);
        break;
      default: {
        const unsigned racks = 1 + static_cast<unsigned>(rng.below(8));
        for (unsigned i = 0; i < n; ++i)
            s.racks.push_back(10 + static_cast<unsigned>(rng.below(racks)));
      }
    }
    const double suspect_p = rng.uniform() * 0.6;
    for (const net::NodeId node : s.nodes)
        if (rng.chance(suspect_p))
            s.suspects.insert(node);
    return s;
}

/**
 * The smallest share c >= ceil(n / racks) at which the racks of @p pool
 * can hold @p n nodes.
 */
std::size_t
smallestShare(const Scenario &s, const std::vector<net::NodeId> &pool,
              unsigned n)
{
    std::map<unsigned, std::size_t> per_rack;
    for (const net::NodeId node : pool)
        ++per_rack[s.rackOf(node)];
    for (std::size_t c = (n + s.rackCount() - 1) / s.rackCount();; ++c) {
        std::size_t room = 0;
        for (const auto &[rack, size] : per_rack)
            room += std::min(c, size);
        if (room >= n)
            return c;
    }
}

TEST(Placement, PropertiesOverRandomTopologiesAndHealth)
{
    Rng gen(2024);
    for (int trial = 0; trial < 2000; ++trial) {
        SCOPED_TRACE(trial);
        const Scenario s = randomScenario(gen);
        NodeHealthView health(1);
        for (const net::NodeId n : s.suspects)
            health.noteTimeout(n);
        Placement placement(s.nodes, s.racks);
        const bool plain = s.racks.empty() ||
                           s.rackCount() == s.nodes.size();
        const std::uint64_t seed = gen();
        Rng rng(seed), twin(seed);

        // Several fresh draws over one placement: the cached pool must
        // come back in storage order after each.
        for (int d = 0; d < 3; ++d) {
            const unsigned n = 1 + static_cast<unsigned>(gen.below(
                                       std::min<std::size_t>(
                                           8, s.nodes.size())));
            const auto got = placement.draw(rng, &health, n);
            const std::vector<net::NodeId> picks(got.begin(), got.end());
            ASSERT_EQ(picks.size(), n);
            EXPECT_EQ(std::set<net::NodeId>(picks.begin(), picks.end())
                          .size(),
                      n);
            const std::vector<net::NodeId> pool = s.pool(n);
            if (s.nodes.size() - s.suspects.size() >= n) {
                for (const net::NodeId p : picks)
                    EXPECT_FALSE(s.suspects.count(p)) << p;
            }
            std::map<unsigned, std::size_t> per_rack;
            for (const net::NodeId p : picks)
                ++per_rack[s.rackOf(p)];
            const std::size_t cap = smallestShare(s, pool, n);
            for (const auto &[rack, held] : per_rack)
                EXPECT_LE(held, cap) << "rack " << rack;
            if (plain) {
                // The reference partial Fisher-Yates over the same pool.
                std::vector<net::NodeId> ref = pool;
                for (unsigned i = 0; i < n; ++i)
                    std::swap(ref[i], ref[i + twin.below(ref.size() - i)]);
                ref.resize(n);
                EXPECT_EQ(picks, ref);
            }
        }

        // Re-placement: never a node of the placement while another
        // exists. Without racks to spread over it is today's uniform
        // pick from the spare pool.
        const std::size_t k = 1 + gen.below(std::min<std::size_t>(
                                      8, s.nodes.size()));
        const std::vector<net::NodeId> placed(s.nodes.begin(),
                                              s.nodes.begin() + k);
        const auto spare = placement.draw(rng, &health, 1, placed);
        if (s.nodes.size() > k) {
            ASSERT_EQ(spare.size(), 1u);
            EXPECT_EQ(std::find(placed.begin(), placed.end(), spare[0]),
                      placed.end());
            if (plain) {
                const std::vector<net::NodeId> pool = s.pool(1, placed);
                EXPECT_EQ(spare[0], pool[twin.below(pool.size())]);
            }
        } else {
            EXPECT_TRUE(spare.empty());
        }
        if (plain) {
            EXPECT_EQ(rng(), twin()) << "draw count differs";
        }
    }
}

TEST(Placement, FreshPlacementNeedsEnoughNodes)
{
    Placement placement({1, 2}, {});
    Rng rng(1);
    EXPECT_DEATH(placement.draw(rng, nullptr, 3),
                 "need at least 3 storage servers, have 2");
}

/**
 * 12 storage nodes in 4 racks of 3 under 3-way replication with the
 * chunk manager; 50% Zipf-0.99 reads over 256 MiB disks. One rack is
 * lost for good a quarter into the window.
 *
 * A rack-blind chunk placement can put all three replicas of a chunk in
 * one rack, and then the chunk's reads go unserved once the rack is gone
 * (2-3 of these 20 seeds per design). The rack stays down for good
 * because a 2 ms outage cannot show that: at the default 800 us fetch
 * timeout a read's probes wait 800 us and then 1600 us, which outlasts
 * it.
 */
TEST(Placement, LostRackLosesNoReads)
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
    workload::SweepRunner runner(
        std::min(4u, workload::SweepRunner::defaultJobs()));
    for (const Shape &shape : shapes) {
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
            workload::ExperimentConfig c;
            c.design = shape.design;
            c.cores = shape.cores;
            c.ports = shape.ports;
            c.seed = seed;
            c.faultSeed = seed;
            c.storageServers = 12;
            c.failureDomains = 4;
            c.readFraction = 0.5;
            c.zipfTheta = 0.99;
            c.virtualDiskBytes = mebibytes(256);
            c.replicaMaxRetries = 1;
            c.replicaAckTimeout = 100_us;
            c.warmup = 1_ms;
            c.window = 5_ms;
            c.domainCrashAt = c.warmup + c.window / 4;
            c.domainCrashOutage = 0;
            runner.add(c);
        }
    }
    runner.run();
    for (std::size_t i = 0; i < runner.size(); ++i) {
        const workload::ExperimentConfig &c = runner.config(i);
        SCOPED_TRACE(std::string(designName(c.design)) + " seed " +
                     std::to_string(c.seed));
        const workload::ExperimentResult &r = runner.result(i);
        EXPECT_GT(r.requestsCompleted, 0u);
        EXPECT_EQ(r.failover.readsUnserved, 0u);
    }
}

} // namespace
} // namespace smartds::middletier
