#include "sim/pdes.h"

#include <algorithm>
#include <cstring>

#include "common/checksum.h"

namespace smartds::sim {

ClusterSim::ClusterSim(unsigned domains, Tick lookahead)
    : lookahead_(lookahead)
{
    SMARTDS_CHECK(domains >= 1, "a cluster needs at least one domain");
    if (domains > 1 && lookahead == 0)
        fatal("pdes: zero lookahead with %u timing domains — conservative "
              "rounds could never advance; every cross-domain link needs a "
              "positive minimum latency",
              domains);
    sims_.reserve(domains);
    for (unsigned d = 0; d < domains; ++d) {
        sims_.push_back(std::make_unique<Simulator>());
        sims_.back()->setDomainIndex(d);
    }
    channels_.resize(static_cast<std::size_t>(domains) * domains);
    next_.resize(domains);
    postedTo_.resize(domains);
    sourcesOf_.resize(domains);
    for (unsigned d = 0; d < domains; ++d) {
        postedTo_[d].reserve(domains);
        sourcesOf_[d].reserve(domains);
    }
}

ClusterSim::~ClusterSim()
{
    stopWorkers();
}

void
ClusterSim::setShards(unsigned shards)
{
    SMARTDS_CHECK(!running_, "setShards() during a run");
    SMARTDS_CHECK(shards >= 1, "at least one executor shard is required");
    // More executors than domains would only idle; clamp silently so
    // callers can pass a machine-wide knob without sizing it per config.
    const unsigned count = std::min(shards, domains());
    if (count == shards_)
        return;
    // Worker w runs domains w, w + shards_, ...: a pool sized for another
    // count would leave some domains unrun or run others on two threads.
    stopWorkers();
    shards_ = count;
    if (shards_ > 1)
        startWorkers();
}

void
ClusterSim::post(unsigned src, unsigned dst, Tick when, EventCallback fn,
                 EventTag tag)
{
    SMARTDS_CHECK(running_,
                  "post() outside a run — during single-threaded setup, "
                  "schedule directly on the destination domain instead");
    SMARTDS_CHECK(src != dst, "post() within one domain (use schedule())");
    SMARTDS_SIM_INVARIANT(
        currentDomain() == src,
        "domain %u posted a cross event claiming source domain %u",
        currentDomain(), src);
    // The conservative-causality invariant: a cross event may never land
    // inside the round horizon another domain is already executing to.
    SMARTDS_CHECK(when >= sims_[src]->now() + lookahead_,
                  "cross-domain event inside the lookahead window "
                  "(when=%llu src now=%llu lookahead=%llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(sims_[src]->now()),
                  static_cast<unsigned long long>(lookahead_));
    Channel &ch = channel(src, dst);
    if (ch.buf.empty())
        postedTo_[src].push_back(dst);
    ch.buf.push_back(CrossEvent{when, ch.nextSeq++, tag, std::move(fn)});
}

void
ClusterSim::onDrain(DrainHook hook)
{
    drainHooks_.push_back(std::move(hook));
}

void
ClusterSim::drainChannels()
{
    // Gather per destination so the merge sort-key never compares events
    // bound for different queues. Only the channels posted to this round
    // are visited, and destinations drain in ascending domain order.
    for (unsigned src = 0; src < domains(); ++src) {
        for (const unsigned dst : postedTo_[src]) {
            sourcesOf_[dst].push_back(src);
            for (DrainHook &hook : drainHooks_)
                hook(src, dst);
        }
        postedTo_[src].clear();
    }
    for (unsigned dst = 0; dst < domains(); ++dst) {
        if (sourcesOf_[dst].empty())
            continue;
        // Indices into the channel buffers are sorted instead of the
        // events themselves (CrossEvent holds a callback; moving it once,
        // in final order, is enough).
        merged_.clear();
        for (const unsigned src : sourcesOf_[dst]) {
            for (CrossEvent &ev : channel(src, dst).buf)
                merged_.push_back(MergeRef{ev.when, src, ev.seq, &ev});
        }
        std::sort(merged_.begin(), merged_.end(),
                  [](const MergeRef &a, const MergeRef &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.src != b.src)
                          return a.src < b.src;
                      return a.seq < b.seq;
                  });
        // Re-scheduling in merged order hands out the destination's local
        // sequence numbers deterministically — the step that makes the
        // whole cluster's event stream independent of worker scheduling.
        for (const MergeRef &r : merged_)
            sims_[dst]->scheduleAt(r.when, std::move(r.ev->fn), r.ev->tag);
        for (const unsigned src : sourcesOf_[dst])
            channel(src, dst).buf.clear();
        sourcesOf_[dst].clear();
    }
}

void
ClusterSim::runUntil(Tick deadline)
{
    if (domains() == 1) {
        // Single-domain clusters bypass the round machinery entirely so
        // the legacy path stays bit-identical (and overhead-free).
        sims_[0]->runUntil(deadline);
        return;
    }
    running_ = true;
    while (true) {
        drainChannels();
        Tick tmin = Simulator::kNoPendingEvent;
        for (unsigned d = 0; d < domains(); ++d) {
            next_[d] = sims_[d]->nextEventTick();
            tmin = std::min(tmin, next_[d]);
        }
        if (tmin == Simulator::kNoPendingEvent || tmin > deadline)
            break;
        // Every event in [tmin, tmin + L - 1] is safe to execute: a cross
        // event sent from tick t >= tmin arrives at t + L > horizon.
        const Tick horizon =
            std::min(tmin + lookahead_ - 1, deadline);
        executeRound(horizon);
        ++rounds_;
    }
    running_ = false;
    // Advance the stragglers' clocks; no events remain at <= deadline.
    for (const auto &sim : sims_)
        sim->runUntil(deadline);
}

void
ClusterSim::executeRound(Tick horizon)
{
    // A domain with nothing due by the horizon sits the round out: what
    // other domains send it in the round lands beyond the horizon.
    for (const Tick next : next_)
        domainsEntered_ += next <= horizon;
    if (shards_ == 1) {
        for (unsigned d = 0; d < domains(); ++d)
            if (next_[d] <= horizon)
                sims_[d]->runUntil(horizon);
        return;
    }
    {
        std::unique_lock<std::mutex> lock(mu_);
        horizon_ = horizon;
        pending_ = static_cast<unsigned>(workers_.size());
        ++epoch_;
        cvWork_.notify_all();
        cvDone_.wait(lock, [this] { return pending_ == 0; });
    }
}

void
ClusterSim::workerLoop(unsigned worker, std::uint64_t seenEpoch)
{
    while (true) {
        Tick horizon;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cvWork_.wait(lock, [&] {
                return shutdown_ || epoch_ != seenEpoch;
            });
            if (shutdown_)
                return;
            seenEpoch = epoch_;
            horizon = horizon_;
        }
        // Static assignment domain -> worker (d % shards): deterministic,
        // and each domain's queue is touched by exactly one thread per
        // round. runUntil() pins currentDomain() for post()'s benefit.
        for (unsigned d = worker; d < domains(); d += shards_)
            if (next_[d] <= horizon)
                sims_[d]->runUntil(horizon);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--pending_ == 0)
                cvDone_.notify_one();
        }
    }
}

void
ClusterSim::startWorkers()
{
    // A rebuilt pool starts after the rounds its predecessor ran.
    shutdown_ = false;
    workers_.reserve(shards_);
    for (unsigned w = 0; w < shards_; ++w)
        workers_.emplace_back([this, w, e = epoch_] { workerLoop(w, e); });
}

void
ClusterSim::stopWorkers()
{
    if (workers_.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
        cvWork_.notify_all();
    }
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
}

void
ClusterSim::enableStateHash(bool on)
{
    for (const auto &sim : sims_)
        sim->enableStateHash(on);
}

void
ClusterSim::enableDsanWindows(std::uint32_t eventsPerWindow)
{
    for (const auto &sim : sims_)
        sim->enableDsanWindows(eventsPerWindow);
}

std::uint32_t
ClusterSim::stateHash() const
{
    if (domains() == 1)
        return sims_[0]->stateHash();
    // Fold per-domain digests in domain order. Domain order is part of
    // the configuration (not of execution), so the merged hash is as
    // run-stable as the per-domain hashes themselves.
    std::uint32_t merged = Simulator::kStateHashSeed;
    for (const auto &sim : sims_) {
        std::uint8_t buf[4];
        const std::uint32_t h = sim->stateHash();
        std::memcpy(buf, &h, sizeof buf);
        merged = xxhash32(buf, sizeof buf, merged);
    }
    return merged;
}

std::vector<DsanWindow>
ClusterSim::takeDsanWindows()
{
    std::vector<DsanWindow> all;
    for (const auto &sim : sims_) {
        std::vector<DsanWindow> w = sim->takeDsanWindows();
        all.insert(all.end(), std::make_move_iterator(w.begin()),
                   std::make_move_iterator(w.end()));
    }
    return all;
}

std::uint64_t
ClusterSim::eventsExecuted() const
{
    std::uint64_t total = 0;
    for (const auto &sim : sims_)
        total += sim->eventsExecuted();
    return total;
}

TagCounts
ClusterSim::tagEventsExecuted() const
{
    TagCounts total{};
    for (const auto &sim : sims_)
        for (std::size_t t = 0; t < kEventTagCount; ++t)
            total[t] += sim->tagEventsExecuted()[t];
    return total;
}

std::uint64_t
ClusterSim::crossEventsPosted() const
{
    std::uint64_t total = 0;
    for (const Channel &ch : channels_)
        total += ch.nextSeq;
    return total;
}

} // namespace smartds::sim
