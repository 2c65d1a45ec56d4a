/**
 * @file
 * Per-design behaviour pin for the middle-tier datapath.
 *
 * Short fault-laden runs over every design x durability policy x datapath
 * mode, plus the failover variants (DDIO off, write quorum, latency-
 * sensitive writes, two SmartDS cards, zero replica retries, a rack
 * down) and the timing rows again over several timing domains. Each row
 * pins the run's event-stream hash, the served request count, every
 * FailoverStats counter, the hot-block cache counters and the finished
 * background repairs. A refactor that keeps behaviour leaves every row
 * unchanged; one that moves a single event, Rng draw or counter update
 * fails here and prints the new row in table form.
 *
 * Functional reads in this matrix only reach the missing-block failover
 * path: the storage functional store is keyed by request tag, so a read
 * (a fresh tag) never finds the block it asks for. Byte-level verify and
 * decode stay covered by test_ec_recovery, test_hot_block_cache and
 * test_fetch_timeout.
 */

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "workload/experiment.h"

namespace smartds::workload {
namespace {

using namespace smartds::time_literals;
using middletier::Design;
using middletier::ReplicationPolicy;

/** The pinned outcome of one matrix row. */
struct Row
{
    const char *name;
    std::uint32_t stateHash;
    std::uint64_t requests;
    /** FailoverStats, in declaration order. */
    std::array<std::uint64_t, 14> failover;
    /** hits, misses, hitBytes, insertions, evictions, invalidations. */
    std::array<std::uint64_t, 6> cache;
    std::uint64_t repairs;
};

/** One matrix row: a name and the run it pins. */
struct Case
{
    std::string name;
    ExperimentConfig config;
};

const char *
shortName(Design d)
{
    switch (d) {
      case Design::CpuOnly: return "cpu";
      case Design::Accelerator: return "acc";
      case Design::Bf2: return "bf2";
      case Design::SmartDs: return "smartds";
    }
    return "?";
}

/**
 * 50% Zipf-0.99 reads over an 8 MiB disk with a 1 MiB read cache, 12
 * storage nodes, 4 clients, ack drops, 1% bit flips and crash churn;
 * 0.5 ms warmup plus a 2 ms window.
 */
ExperimentConfig
baseConfig(Design design, bool ec, bool functional)
{
    ExperimentConfig c;
    c.design = design;
    c.cores = design == Design::CpuOnly ? 4 : 2;
    c.clients = 4;
    c.storageServers = 12;
    c.readFraction = 0.5;
    c.zipfTheta = 0.99;
    c.virtualDiskBytes = mebibytes(8);
    c.readCacheBytes = mebibytes(1);
    if (design == Design::SmartDs)
        c.readCachePlacement = middletier::ReadCachePlacement::DeviceHbm;
    c.ackDropProbability = 0.02;
    c.corruptProbability = 0.01;
    c.crashMeanInterval = 1_ms;
    c.crashOutage = 1_ms;
    c.warmup = 500_us;
    c.window = 2_ms;
    c.functional = functional;
    c.dsan = true;
    if (ec) {
        c.replicationPolicy = ReplicationPolicy::ErasureCode;
        c.failureDomains = 6;
    }
    return c;
}

std::vector<Case>
matrix()
{
    const Design designs[] = {Design::CpuOnly, Design::Accelerator,
                              Design::Bf2, Design::SmartDs};
    std::vector<Case> cases;
    for (const Design d : designs)
        for (const bool ec : {false, true})
            for (const bool functional : {false, true})
                cases.push_back(
                    {std::string(shortName(d)) + (ec ? "/rs42" : "/rep3") +
                         (functional ? "/func" : "/timing"),
                     baseConfig(d, ec, functional)});
    for (const bool ec : {false, true}) {
        Case c{std::string("acc/") + (ec ? "rs42" : "rep3") + "/no-ddio",
               baseConfig(Design::Accelerator, ec, false)};
        c.config.ddio = false;
        cases.push_back(c);
    }
    for (const Design d : designs) {
        Case c{std::string(shortName(d)) + "/rep3/quorum2",
               baseConfig(d, false, false)};
        c.config.ackQuorum = 2;
        cases.push_back(c);
    }
    {
        Case c{"smartds/rep3/ls-writes",
               baseConfig(Design::SmartDs, false, false)};
        c.config.latencySensitiveFraction = 0.5;
        c.config.readCachePlacement =
            middletier::ReadCachePlacement::HostDram;
        cases.push_back(c);
    }
    for (const bool ec : {false, true}) {
        Case c{std::string("smartds/") + (ec ? "rs42" : "rep3") + "/2cards",
               baseConfig(Design::SmartDs, ec, false)};
        c.config.cards = 2;
        c.config.readCachePlacement =
            middletier::ReadCachePlacement::HostDram;
        cases.push_back(c);
    }
    for (const Design d : designs) {
        Case c{std::string(shortName(d)) + "/rep3/no-retry",
               baseConfig(d, false, false)};
        c.config.replicaMaxRetries = 0;
        cases.push_back(c);
    }
    // Read failover across consecutive fetch timeouts: one of two racks
    // is down for 1 ms, so a read whose chunk keeps two replicas there
    // can miss two probes in a row and the fetch-timeout backoff decides
    // when it is served. No random faults.
    for (const Design d : designs) {
        Case c{std::string(shortName(d)) + "/rep3/rack-down",
               baseConfig(d, false, false)};
        c.config.ackDropProbability = 0.0;
        c.config.corruptProbability = 0.0;
        c.config.crashMeanInterval = 0;
        c.config.failureDomains = 2;
        c.config.domainCrashAt = 600_us;
        c.config.domainCrashOutage = 1_ms;
        c.config.replicaAckTimeout = 100_us;
        cases.push_back(c);
    }
    // The partitioned (PDES) kernel: the auto partition gives 4 timing
    // domains under 3-way replication and 8 under RS(4,2) over 6 racks.
    // Every message between clients, middle tier and storage crosses a
    // domain, and crash churn reaches the storage nodes through the fault
    // injector's cross-domain posts.
    for (const Design d : designs) {
        for (const bool ec : {false, true}) {
            Case c{std::string(shortName(d)) + (ec ? "/rs42" : "/rep3") +
                       "/domains",
                   baseConfig(d, ec, false)};
            c.config.timingDomains = 0;
            cases.push_back(c);
        }
    }
    return cases;
}

Row
observe(const char *name, const ExperimentResult &r)
{
    const middletier::FailoverStats &f = r.failover;
    const middletier::HotBlockCache::Stats &c = r.cache;
    return Row{name,
               r.stateHash,
               r.requestsCompleted,
               {f.replicaTimeouts, f.replicaRetries, f.replicaReplacements,
                f.replicasAbandoned, f.staleAcks, f.nodesSuspected,
                f.quorumCompletions, f.repairsScheduled,
                f.corruptionsDetected, f.readFailovers, f.readsUnserved,
                f.stripesEncoded, f.degradedReads, f.replicaBytesSent},
               {c.hits, c.misses, c.hitBytes, c.insertions, c.evictions,
                c.invalidations},
               r.repairsCompleted};
}

bool
same(const Row &a, const Row &b)
{
    return a.stateHash == b.stateHash && a.requests == b.requests &&
           a.failover == b.failover && a.cache == b.cache &&
           a.repairs == b.repairs;
}

/** @p row as a line of the kPinned table below. */
std::string
format(const Row &row)
{
    char buf[512];
    std::string out;
    std::snprintf(buf, sizeof(buf), "    {\"%s\", 0x%08" PRIx32 ", %" PRIu64
                  ",\n     {",
                  row.name, row.stateHash, row.requests);
    out += buf;
    for (std::size_t i = 0; i < row.failover.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%" PRIu64, i ? ", " : "",
                      row.failover[i]);
        out += buf;
    }
    out += "},\n     {";
    for (std::size_t i = 0; i < row.cache.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%" PRIu64, i ? ", " : "",
                      row.cache[i]);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), "},\n     %" PRIu64 "},\n", row.repairs);
    out += buf;
    return out;
}

// clang-format off
const Row kPinned[] = {
    {"cpu/rep3/timing", 0x946d3ed8, 628,
     {29, 29, 7, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2804451},
     {70, 316, 286720, 306, 0, 82},
     0},
    {"cpu/rep3/func", 0x32da459d, 555,
     {22, 22, 4, 0, 0, 1, 0, 0, 1030, 1033, 340, 0, 0, 2603982},
     {0, 351, 0, 0, 0, 0},
     0},
    {"cpu/rs42/timing", 0x0744b25e, 296,
     {38, 38, 13, 0, 0, 1, 0, 0, 0, 6, 0, 220, 6, 761644},
     {37, 175, 151552, 164, 0, 37},
     0},
    {"cpu/rs42/func", 0x3c661814, 151,
     {19, 19, 5, 0, 0, 1, 0, 0, 0, 17, 95, 118, 0, 430091},
     {0, 116, 0, 0, 0, 0},
     0},
    {"acc/rep3/timing", 0xb2079b68, 758,
     {28, 28, 6, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 3489979},
     {101, 387, 413696, 381, 0, 111},
     0},
    {"acc/rep3/func", 0xe230afa0, 561,
     {23, 23, 3, 0, 0, 1, 0, 0, 1044, 1047, 346, 0, 0, 2731544},
     {0, 358, 0, 0, 0, 0},
     0},
    {"acc/rs42/timing", 0xb1b0daba, 288,
     {37, 37, 14, 0, 0, 3, 0, 0, 0, 5, 0, 204, 5, 697252},
     {34, 181, 139264, 164, 0, 31},
     0},
    {"acc/rs42/func", 0x9537b6a2, 158,
     {18, 18, 6, 0, 0, 2, 0, 0, 0, 19, 97, 116, 0, 413859},
     {0, 118, 0, 0, 0, 0},
     0},
    {"bf2/rep3/timing", 0x2f9d147a, 920,
     {32, 32, 5, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 4363772},
     {121, 469, 495616, 461, 52, 134},
     0},
    {"bf2/rep3/func", 0x56b293b2, 643,
     {25, 25, 3, 0, 0, 1, 0, 0, 1200, 1203, 395, 0, 0, 3078660},
     {0, 414, 0, 0, 0, 0},
     0},
    {"bf2/rs42/timing", 0xb4549eb1, 321,
     {43, 43, 15, 0, 0, 1, 0, 0, 0, 2, 0, 250, 2, 848842},
     {35, 205, 143360, 191, 0, 41},
     0},
    {"bf2/rs42/func", 0x1714d2e3, 170,
     {21, 21, 7, 0, 0, 2, 0, 0, 0, 17, 103, 136, 0, 495318},
     {0, 127, 0, 0, 0, 0},
     0},
    {"smartds/rep3/timing", 0x8c0b715a, 753,
     {28, 28, 5, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 3560324},
     {95, 400, 389120, 396, 20, 109},
     0},
    {"smartds/rep3/func", 0xa8d518ef, 464,
     {19, 19, 3, 0, 0, 1, 0, 0, 872, 875, 285, 0, 0, 2277282},
     {0, 304, 0, 0, 0, 0},
     0},
    {"smartds/rs42/timing", 0xa685a124, 295,
     {35, 35, 11, 0, 0, 2, 0, 0, 0, 6, 0, 217, 6, 754177},
     {38, 165, 155648, 152, 0, 35},
     0},
    {"smartds/rs42/func", 0x8c40891d, 151,
     {23, 23, 8, 0, 0, 3, 0, 0, 0, 11, 93, 124, 0, 451092},
     {0, 115, 0, 0, 0, 0},
     0},
    {"acc/rep3/no-ddio", 0x379d88ba, 752,
     {27, 27, 5, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 3502681},
     {89, 395, 364544, 383, 6, 110},
     0},
    {"acc/rs42/no-ddio", 0xcc2ac153, 290,
     {34, 34, 10, 0, 0, 2, 0, 0, 0, 7, 0, 212, 7, 733070},
     {35, 179, 143360, 168, 0, 35},
     0},
    {"cpu/rep3/quorum2", 0x333ae2bf, 638,
     {30, 30, 10, 0, 0, 1, 415, 0, 0, 3, 0, 0, 0, 2867898},
     {71, 323, 290816, 313, 0, 84},
     0},
    {"acc/rep3/quorum2", 0xfe03920f, 1107,
     {55, 55, 24, 0, 0, 2, 714, 0, 0, 6, 0, 0, 0, 4888687},
     {135, 542, 552960, 533, 91, 161},
     0},
    {"bf2/rep3/quorum2", 0xc1dd9a8a, 1492,
     {59, 59, 18, 0, 0, 1, 953, 0, 0, 4, 0, 0, 0, 6545844},
     {199, 717, 815104, 704, 200, 219},
     0},
    {"smartds/rep3/quorum2", 0x3ec3c8e4, 1204,
     {56, 56, 22, 0, 0, 1, 779, 0, 0, 3, 0, 0, 0, 5368145},
     {149, 585, 610304, 574, 113, 183},
     0},
    {"smartds/rep3/ls-writes", 0x1730b9b7, 845,
     {30, 30, 7, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 5590981},
     {105, 434, 430080, 427, 36, 118},
     0},
    {"smartds/rep3/2cards", 0xa0675c8e, 776,
     {24, 24, 2, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3633234},
     {105, 407, 430080, 400, 0, 118},
     0},
    {"smartds/rs42/2cards", 0xb16f2a5e, 273,
     {31, 31, 7, 0, 0, 4, 0, 0, 0, 8, 0, 205, 7, 683636},
     {27, 167, 110592, 151, 0, 26},
     0},
    {"cpu/rep3/no-retry", 0x7baca049, 591,
     {29, 0, 0, 29, 27, 2, 0, 29, 0, 2, 0, 0, 0, 2641875},
     {61, 304, 249856, 294, 0, 70},
     29},
    {"acc/rep3/no-retry", 0x79be4a96, 820,
     {24, 0, 0, 24, 21, 3, 0, 24, 0, 0, 0, 0, 0, 3709422},
     {93, 412, 380928, 402, 25, 108},
     24},
    {"bf2/rep3/no-retry", 0x4dd092db, 976,
     {33, 0, 0, 33, 29, 4, 0, 33, 0, 1, 0, 0, 0, 4460958},
     {122, 497, 499712, 488, 73, 144},
     33},
    {"smartds/rep3/no-retry", 0xafbf872e, 880,
     {24, 0, 0, 24, 22, 4, 0, 24, 0, 0, 0, 0, 0, 3966045},
     {107, 447, 438272, 437, 43, 126},
     24},
    {"cpu/rep3/rack-down", 0xcfdfdd81, 562,
     {80, 80, 76, 0, 0, 6, 0, 0, 0, 9, 0, 0, 0, 2671487},
     {60, 297, 245760, 289, 0, 72},
     0},
    {"acc/rep3/rack-down", 0x68330927, 948,
     {80, 80, 78, 0, 0, 6, 0, 0, 0, 14, 0, 0, 0, 4369710},
     {122, 484, 499712, 470, 64, 136},
     0},
    {"bf2/rep3/rack-down", 0x0517e867, 1256,
     {72, 72, 67, 0, 0, 6, 0, 0, 0, 13, 0, 0, 0, 5802145},
     {168, 628, 688128, 620, 151, 191},
     0},
    {"smartds/rep3/rack-down", 0x782bfde7, 1053,
     {71, 71, 66, 0, 0, 6, 0, 0, 0, 16, 0, 0, 0, 4877783},
     {129, 535, 528384, 524, 93, 157},
     0},
    {"cpu/rep3/domains", 0x629caeaf, 628,
     {29, 29, 7, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2804451},
     {70, 316, 286720, 306, 0, 82},
     0},
    {"cpu/rs42/domains", 0x06af9920, 296,
     {38, 38, 13, 0, 0, 1, 0, 0, 0, 6, 0, 220, 6, 761644},
     {37, 175, 151552, 164, 0, 37},
     0},
    {"acc/rep3/domains", 0x43ae27c7, 758,
     {28, 28, 6, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 3489979},
     {101, 387, 413696, 381, 0, 111},
     0},
    {"acc/rs42/domains", 0xb8ceb616, 288,
     {37, 37, 14, 0, 0, 3, 0, 0, 0, 5, 0, 204, 5, 697252},
     {34, 181, 139264, 164, 0, 31},
     0},
    {"bf2/rep3/domains", 0xab2ea7a7, 920,
     {32, 32, 5, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 4363772},
     {121, 469, 495616, 461, 52, 134},
     0},
    {"bf2/rs42/domains", 0x59ceae00, 321,
     {43, 43, 15, 0, 0, 1, 0, 0, 0, 2, 0, 250, 2, 848842},
     {35, 205, 143360, 191, 0, 41},
     0},
    {"smartds/rep3/domains", 0x4ff2d05d, 753,
     {28, 28, 5, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 3560324},
     {95, 400, 389120, 396, 20, 109},
     0},
    {"smartds/rs42/domains", 0xc35fe9d2, 295,
     {35, 35, 11, 0, 0, 2, 0, 0, 0, 6, 0, 217, 6, 754177},
     {38, 165, 155648, 152, 0, 35},
     0},
};
// clang-format on

TEST(DesignHashes, MatrixMatchesPinnedTable)
{
    const std::vector<Case> cases = matrix();
    std::string moved;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const Case &c = cases[i];
        const Row got =
            observe(c.name.c_str(), runWriteExperiment(c.config));
        if (i >= std::size(kPinned) || c.name != kPinned[i].name ||
            !same(got, kPinned[i]))
            moved += format(got);
    }
    EXPECT_EQ(cases.size(), std::size(kPinned));
    EXPECT_TRUE(moved.empty())
        << "rows that moved (as they run now):\n" << moved;
}

/** Every row exercises what it is there for. */
TEST(DesignHashes, RowsCoverTheFailoverPaths)
{
    for (const Row &row : kPinned) {
        const std::string name = row.name;
        SCOPED_TRACE(name);
        EXPECT_NE(row.stateHash, 0u);
        EXPECT_GT(row.requests, 0u);
        if (name.find("/func") == std::string::npos) {
            EXPECT_GT(row.cache[0], 0u) << "cache hits";
        }
        if (name.find("/rs42/") != std::string::npos) {
            EXPECT_GT(row.failover[11], 0u) << "stripes encoded";
        }
        if (name.find("/no-retry") != std::string::npos) {
            EXPECT_GT(row.repairs, 0u) << "maintenance repairs";
        }
        if (name.find("/quorum2") != std::string::npos) {
            EXPECT_GT(row.failover[6], 0u) << "quorum completions";
        }
        if (name.find("/rack-down") != std::string::npos) {
            EXPECT_GT(row.failover[9], 0u) << "read failovers";
        }
    }
}

} // namespace
} // namespace smartds::workload
