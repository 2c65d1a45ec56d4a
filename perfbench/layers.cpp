#include "layers.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/calibration.h"
#include "common/logging.h"
#include "common/random.h"
#include "corpus/corpus.h"
#include "lz4/lz4.h"
#include "middletier/hot_block_cache.h"
#include "net/fabric.h"
#include "sim/bandwidth_server.h"
#include "sim/fair_share.h"
#include "sim/pdes.h"
#include "sim/simulator.h"

namespace smartds::perfbench {

namespace {

constexpr Bytes kBlock = calibration::storageBlockBytes;

/** Per-replay state of the kernel replay (one pointer per callback). */
struct KernelReplay
{
    sim::Simulator sim;
    std::uint64_t budget = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
};

void
kernelFire(KernelReplay *r)
{
    if (r->scheduled >= r->budget)
        return;
    ++r->scheduled;
    r->lcg = r->lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    // 0..2 us ahead: a spread of due times like the datapath's mix of
    // wire, DMA and service delays, so the heap really reorders.
    const Tick delay = ((r->lcg >> 33) % 2000) * ticksPerNanosecond;
    r->sim.schedule(delay, [r]() { kernelFire(r); });
}

/** One token of the PDES replay; posts itself to the next domain. */
struct PdesToken
{
    sim::ClusterSim *cluster;
    unsigned domain;
};

void
pdesHop(PdesToken token)
{
    sim::ClusterSim &cluster = *token.cluster;
    const unsigned next = (token.domain + 1) % cluster.domains();
    const Tick when =
        cluster.domain(token.domain).now() + cluster.lookahead();
    cluster.post(token.domain, next, when,
                 [t = PdesToken{token.cluster, next}]() { pdesHop(t); });
}

const corpus::SyntheticCorpus &
replayCorpus()
{
    // The corpus runWriteExperiment samples compression ratios from.
    static const corpus::SyntheticCorpus corpus(4u << 20, 42);
    return corpus;
}

/** Median of a non-empty sample. */
double
median(std::vector<double> values)
{
    if (values.empty())
        panic("median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // namespace

double
kernelNsPerEvent(std::uint64_t events, unsigned depth)
{
    KernelReplay replay;
    replay.budget = std::max<std::uint64_t>(events, depth);
    const Stopwatch watch;
    for (unsigned i = 0; i < depth; ++i)
        kernelFire(&replay);
    replay.sim.run();
    const double wall = watch.seconds();
    return wall * 1e9 / static_cast<double>(replay.sim.eventsExecuted());
}

double
fairShareNs(unsigned flows, unsigned batches)
{
    constexpr int kTransfers = 4000;
    std::vector<double> ns;
    for (unsigned b = 0; b < batches; ++b) {
        sim::Simulator sim;
        sim::FairShareResource res(sim, "mem", 120e9);
        std::vector<sim::FairShareResource::Flow *> fs;
        for (unsigned f = 0; f < flows; ++f)
            fs.push_back(res.createFlow("f" + std::to_string(f)));
        int done = 0;
        const Stopwatch watch;
        for (int i = 0; i < kTransfers; ++i)
            fs[static_cast<unsigned>(i) % flows]->transfer(
                kBlock, [&done]() { ++done; });
        sim.run();
        ns.push_back(watch.seconds() * 1e9 / kTransfers);
        if (done != kTransfers)
            fatal("fair-share replay completed %d of %d transfers", done,
                  kTransfers);
    }
    return median(ns);
}

double
bandwidthServerNs(unsigned batches)
{
    constexpr int kTransfers = 20000;
    std::vector<double> ns;
    for (unsigned b = 0; b < batches; ++b) {
        sim::Simulator sim;
        sim::BandwidthServer server(sim, "s", 12.5e9);
        int done = 0;
        const Stopwatch watch;
        for (int i = 0; i < kTransfers; ++i)
            server.transfer(kBlock, [&done]() { ++done; });
        sim.run();
        ns.push_back(watch.seconds() * 1e9 / kTransfers);
        if (done != kTransfers)
            fatal("bandwidth-server replay completed %d of %d transfers",
                  done, kTransfers);
    }
    return median(ns);
}

double
pdesRoundNs(unsigned domains, unsigned shards, unsigned rounds)
{
    std::vector<double> ns;
    for (int b = 0; b < 3; ++b) {
        sim::ClusterSim cluster(std::max(2u, domains),
                                calibration::networkOneWayDelay);
        cluster.setShards(shards);
        for (unsigned d = 0; d < cluster.domains(); ++d)
            cluster.domain(d).schedule(
                0, [t = PdesToken{&cluster, d}]() { pdesHop(t); });
        const Stopwatch watch;
        cluster.runUntil(static_cast<Tick>(rounds) * cluster.lookahead());
        const double wall = watch.seconds();
        if (cluster.roundsExecuted() == 0)
            fatal("PDES replay executed no rounds");
        ns.push_back(wall * 1e9 /
                     static_cast<double>(cluster.roundsExecuted()));
    }
    return median(ns);
}

double
portSendNs(unsigned batches)
{
    constexpr int kMessages = 20000;
    std::vector<double> ns;
    for (unsigned b = 0; b < batches; ++b) {
        sim::Simulator sim;
        net::Fabric fabric(sim);
        net::Port *a = fabric.createPort("a");
        net::Port *dst = fabric.createPort("b");
        int received = 0;
        dst->onReceive([&received](net::Message) { ++received; });
        const Stopwatch watch;
        for (int i = 0; i < kMessages; ++i) {
            net::Message msg;
            msg.src = a->id();
            msg.dst = dst->id();
            msg.payload.size = kBlock;
            msg.tag = static_cast<std::uint64_t>(i) + 1;
            a->send(std::move(msg));
        }
        sim.run();
        ns.push_back(watch.seconds() * 1e9 / kMessages);
        if (received != kMessages)
            fatal("port replay delivered %d of %d messages", received,
                  kMessages);
    }
    return median(ns);
}

double
cacheOpNs(Bytes capacity, Bytes diskBytes, unsigned clients, double theta,
          std::uint64_t seed, unsigned ops)
{
    // Key stream drawn up front so the timing covers the cache alone.
    Rng rng(seed);
    ZipfSampler zipf(diskBytes / kBlock, theta);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> keys(ops);
    for (auto &k : keys)
        k = {rng.below(clients), zipf.sample(rng) * kBlock};

    std::vector<double> ns;
    for (int b = 0; b < 3; ++b) {
        middletier::HotBlockCache cache(capacity);
        const Stopwatch watch;
        for (const auto &[vm, offset] : keys) {
            if (!cache.lookup(vm, offset))
                cache.insert(vm, offset, {kBlock, 0.5, nullptr});
        }
        ns.push_back(watch.seconds() * 1e9 / static_cast<double>(ops));
        if (cache.stats().hits + cache.stats().misses != ops)
            fatal("cache replay counted %llu lookups for %u ops",
                  static_cast<unsigned long long>(cache.stats().hits +
                                                  cache.stats().misses),
                  ops);
    }
    return median(ns);
}

double
ratioSamplerSeconds(unsigned batches)
{
    const corpus::SyntheticCorpus &corpus = replayCorpus();
    std::vector<double> s;
    double sink = 0.0;
    for (unsigned b = 0; b < batches; ++b) {
        const Stopwatch watch;
        const corpus::RatioSampler sampler(corpus, kBlock, 1, 512, 7);
        s.push_back(watch.seconds());
        sink += sampler.mean();
    }
    if (!(sink > 0.0))
        fatal("ratio sampler replay produced no ratios");
    return median(s);
}

double
lz4CompressNsPerBlock(unsigned batches)
{
    const corpus::SyntheticCorpus &corpus = replayCorpus();
    const std::size_t blocks = corpus.blockCount(kBlock);
    std::vector<std::uint8_t> out(lz4::maxCompressedSize(kBlock));
    std::vector<double> ns;
    std::size_t total = 0;
    for (unsigned b = 0; b < batches; ++b) {
        const Stopwatch watch;
        for (std::size_t i = 0; i < blocks; ++i) {
            const auto n = lz4::compress(corpus.blockPtr(kBlock, i), kBlock,
                                         out.data(), out.size(), 1);
            if (!n)
                fatal("lz4 replay failed to compress block %zu", i);
            total += *n;
        }
        ns.push_back(watch.seconds() * 1e9 / static_cast<double>(blocks));
    }
    if (total == 0)
        fatal("lz4 replay produced no output");
    return median(ns);
}

} // namespace smartds::perfbench
