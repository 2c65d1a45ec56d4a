#include "faults/fault_injector.h"

#include "common/check.h"

#include <utility>

namespace smartds::faults {

FaultInjector::FaultInjector(sim::Simulator &sim, std::uint64_t seed)
    : sim_(sim), seed_(seed), rng_(seed)
{
}

FaultProfile *
FaultInjector::profile(net::NodeId node)
{
    auto it = profiles_.find(node);
    if (it == profiles_.end()) {
        // Seed keyed on the node id (not on creation order) so a profile's
        // random stream is stable no matter when it is first touched.
        const std::uint64_t child =
            (seed_ ^ (node * 0x9e3779b97f4a7c15ULL)) | 1;
        it = profiles_
                 .emplace(node, std::make_unique<FaultProfile>(node, child))
                 .first;
    }
    return it->second.get();
}

void
FaultInjector::attachCluster(sim::ClusterSim &cluster,
                             std::map<net::NodeId, unsigned> node_domains)
{
    cluster_ = &cluster;
    nodeDomain_ = std::move(node_domains);
}

unsigned
FaultInjector::domainOf(net::NodeId node) const
{
    const auto it = nodeDomain_.find(node);
    return it == nodeDomain_.end() ? sim_.domainIndex() : it->second;
}

sim::Simulator &
FaultInjector::simFor(net::NodeId node)
{
    if (!cluster_)
        return sim_;
    return cluster_->domain(domainOf(node));
}

void
FaultInjector::scheduleCrash(net::NodeId node, Tick at)
{
    FaultProfile *p = profile(node);
    // Scheduled on the victim's own domain: the crash executes in the
    // victim's shard, and the profile is only ever touched by the thread
    // running that shard.
    simFor(node).scheduleAt(at, [this, p]() {
        if (!p->crashed())
            crashesInjected_.fetch_add(1, std::memory_order_relaxed);
        p->crash();
    });
}

void
FaultInjector::scheduleRecovery(net::NodeId node, Tick at)
{
    FaultProfile *p = profile(node);
    simFor(node).scheduleAt(at, [p]() { p->recover(); });
}

void
FaultInjector::startCrashChurn(std::vector<net::NodeId> nodes,
                               Tick mean_interval, Tick outage)
{
    SMARTDS_CHECK(!nodes.empty(), "crash churn over an empty pool");
    SMARTDS_CHECK(mean_interval > 0, "crash churn needs a positive interval");
    running_ = true;
    sim::spawn(sim_, churn(std::move(nodes), mean_interval, outage));
}

void
FaultInjector::scheduleDomainCrash(
    const std::vector<std::vector<net::NodeId>> &domains, Tick at,
    Tick outage)
{
    SMARTDS_CHECK(!domains.empty(), "domain crash with no domains");
    // Draw the victim domain now: the rng consumption order is fixed at
    // configuration time, not at whatever event order the run produces.
    const auto &victims = domains[rng_.below(domains.size())];
    SMARTDS_CHECK(!victims.empty(), "domain crash on an empty domain");
    for (net::NodeId node : victims) {
        scheduleCrash(node, at);
        if (outage > 0)
            scheduleRecovery(node, at + outage);
    }
}

void
FaultInjector::injectChurnCrash(FaultProfile *victim, Tick outage)
{
    if (!cluster_ || cluster_->domains() == 1) {
        // Legacy single-domain path, bit-identical to before PDES.
        victim->crash();
        crashesInjected_.fetch_add(1, std::memory_order_relaxed);
        sim_.schedule(
            outage, [victim]() { victim->recover(); },
            sim::EventTag::Maintenance);
        return;
    }
    // PDES: the churn loop runs in the injector's home domain while the
    // victim's profile belongs to another shard, so the transitions
    // travel through the cluster's deterministic channels one lookahead
    // out. Same-domain victims take the same delayed timeline so churn
    // semantics don't depend on the domain layout more than they must.
    const unsigned src = sim_.domainIndex();
    const unsigned dst = domainOf(victim->node());
    const Tick when = sim_.now() + cluster_->lookahead();
    crashesInjected_.fetch_add(1, std::memory_order_relaxed);
    auto crash = [victim]() { victim->crash(); };
    auto recover = [victim]() { victim->recover(); };
    if (dst == src) {
        sim_.scheduleAt(when, crash, sim::EventTag::Maintenance);
        sim_.scheduleAt(when + outage, recover, sim::EventTag::Maintenance);
    } else {
        cluster_->post(src, dst, when, crash, sim::EventTag::Maintenance);
        cluster_->post(src, dst, when + outage, recover,
                       sim::EventTag::Maintenance);
    }
}

sim::Process
FaultInjector::churn(std::vector<net::NodeId> nodes, Tick mean_interval,
                     Tick outage)
{
    // Materialise every profile up front so the node->profile mapping does
    // not depend on which node the churn happens to hit first.
    for (net::NodeId n : nodes)
        profile(n);
    const bool pdes = cluster_ && cluster_->domains() > 1;
    while (running_) {
        // simlint: allow(tick-float): exponential jitter from the seeded
        // Rng; identical across runs of the same binary by construction
        const auto wait = static_cast<Tick>(
            rng_.exponential(static_cast<double>(mean_interval)));
        co_await sim::delay(sim_, std::max<Tick>(1, wait));
        if (!running_)
            break;
        const net::NodeId node = nodes[rng_.below(nodes.size())];
        FaultProfile *victim = profile(node);
        if (pdes) {
            // Cross-shard crashed() would race with the victim's own
            // shard; decide from local shadow bookkeeping instead. The
            // shadow timeline is a deterministic function of the seeded
            // rng, so every run (any shard count) skips the same draws.
            const Tick recoverAt = sim_.now() + cluster_->lookahead() +
                                   outage;
            auto [it, fresh] = downUntil_.try_emplace(node, recoverAt);
            if (!fresh) {
                if (sim_.now() < it->second)
                    continue; // still down per the shadow timeline
                it->second = recoverAt;
            }
        } else if (victim->crashed()) {
            continue;
        }
        injectChurnCrash(victim, outage);
    }
}

std::size_t
FaultInjector::crashedCount() const
{
    std::size_t n = 0;
    for (const auto &[node, p] : profiles_)
        n += p->crashed() ? 1 : 0;
    return n;
}

} // namespace smartds::faults
