/**
 * @file
 * Conservative-synchronization parallel DES: a cluster of timing domains.
 *
 * A ClusterSim partitions one experiment into D timing domains (logical
 * processes). Each domain owns a private Simulator — its own slab event
 * pool, radix event queue, clock, and determinism-sanitizer state — and
 * domains exchange events only through timestamped FIFO channels with a
 * fixed lookahead L (the fabric's minimum cross-domain link latency).
 *
 * Advancement is barrier/LBTS-style rounds rather than null messages:
 *
 *     loop:
 *       drain channels (merge by (tick, srcDomain, channelSeq))
 *       Tmin = min over domains of nextEventTick()
 *       if Tmin > deadline: break
 *       H = min(Tmin + L - 1, deadline)      // the round horizon
 *       run every domain with an event due by H up to H
 *         (in parallel when shards > 1)
 *
 * Safety: any event a domain sends during the round executes at tick
 * t in [Tmin, H], so it arrives at t + L >= Tmin + L > H — strictly
 * beyond the horizon every domain runs to. No domain can receive an
 * event in its own past, which is the conservative-PDES causality
 * invariant, and why zero-lookahead links are rejected outright. For the
 * same reason a domain whose next event lies beyond H gets nothing to do
 * during the round, so it is not entered; its clock catches up when it
 * next is, or at the end of runUntil().
 *
 * Determinism: channel buffers are drained on one thread, sorted by
 * (tick, srcDomain, channelSeq) — all three assigned deterministically —
 * and re-scheduled in that order, so the destination's local sequence
 * numbers (the dsan hash input) are identical no matter how many worker
 * threads executed the previous round. shards=N is byte-identical to
 * shards=1 by construction, and the per-domain stateHash_/DsanWindow
 * machinery (PR 8) verifies it end to end.
 */

#ifndef SMARTDS_SIM_PDES_H_
#define SMARTDS_SIM_PDES_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace smartds::sim {

/**
 * A set of timing domains advancing in conservative lookahead rounds.
 *
 * Thread contract: construction, runUntil(), and all accessors are
 * single-threaded (the experiment thread). post() may be called
 * concurrently by worker threads, but only by the thread currently
 * executing the source domain — each (src, dst) channel has exactly one
 * writer per round, and channels are drained only between rounds.
 */
class ClusterSim
{
  public:
    /**
     * @param domains   number of timing domains (>= 1).
     * @param lookahead minimum cross-domain latency L in ticks. Every
     *                  cross-domain event must be scheduled at least L
     *                  after the sender's current tick. Zero lookahead
     *                  with more than one domain is a configuration
     *                  error (the rounds could never advance) and is
     *                  rejected fatally here, at construction time.
     */
    ClusterSim(unsigned domains, Tick lookahead);
    ~ClusterSim();
    ClusterSim(const ClusterSim &) = delete;
    ClusterSim &operator=(const ClusterSim &) = delete;

    /** Number of timing domains. */
    unsigned domains() const { return static_cast<unsigned>(sims_.size()); }

    /** The per-domain simulator (stable address for the cluster's life). */
    Simulator &domain(unsigned d) { return *sims_[d]; }

    /** Configured lookahead L in ticks. */
    Tick lookahead() const { return lookahead_; }

    /**
     * Use @p shards executor threads for the parallel phase of each
     * round (domain d runs on worker d % shards). 1 — the default —
     * executes rounds inline on the calling thread; results are
     * byte-identical either way. May be called again between runs: a
     * new count replaces the worker pool.
     */
    void setShards(unsigned shards);

    /** Executor thread count (see setShards). */
    unsigned shards() const { return shards_; }

    /**
     * Enqueue a cross-domain event: @p fn runs in domain @p dst at
     * absolute tick @p when. Must be called from the thread executing
     * domain @p src during a round, with when >= src.now() + lookahead
     * (callers at fabric boundaries satisfy this by construction — the
     * link delay is >= the fabric minimum). Events with equal @p when
     * are delivered ordered by (srcDomain, post order within src).
     */
    void post(unsigned src, unsigned dst, Tick when, EventCallback fn,
              EventTag tag = EventTag::Generic);

    /**
     * A hand-over between domains: hook(src, dst) runs on the draining
     * thread for each channel that took posts in the round just run.
     */
    using DrainHook = Callback<void(unsigned src, unsigned dst)>;

    /**
     * Call @p hook at every drain, between rounds and before the posts
     * merge into their destination queues. No domain is executing then,
     * so the hook may move state from the source domain's side to the
     * destination's: net::Fabric moves the messages its posts deliver
     * from the source's parked table into the destination's. The hook's
     * owner must outlive every run.
     */
    void onDrain(DrainHook hook);

    /**
     * Advance every domain to @p deadline, executing all events with
     * tick <= deadline across the cluster in causal order. On return
     * all domain clocks equal @p deadline and all channels are empty.
     */
    void runUntil(Tick deadline);

    // ---- determinism sanitizer fan-out ----------------------------------

    /** Enable/disable the per-dispatch state hash in every domain. */
    void enableStateHash(bool on);

    /** Enable dsan window recording in every domain. */
    void enableDsanWindows(std::uint32_t eventsPerWindow = 1024);

    /**
     * Cluster state hash: the single domain's hash for domains == 1
     * (bit-compatible with a plain Simulator run), else the per-domain
     * hashes folded in domain order under the same xxHash32 family.
     */
    std::uint32_t stateHash() const;

    /** Per-domain window streams concatenated in domain order. */
    std::vector<DsanWindow> takeDsanWindows();

    // ---- telemetry ------------------------------------------------------

    /** Total events executed across all domains. */
    std::uint64_t eventsExecuted() const;

    /** Events executed by one domain. */
    std::uint64_t
    domainEventsExecuted(unsigned d) const
    {
        return sims_[d]->eventsExecuted();
    }

    /** Events executed across all domains, per stage tag. */
    TagCounts tagEventsExecuted() const;

    /** Total events that crossed a domain boundary (channel traffic). */
    std::uint64_t crossEventsPosted() const;

    /** Synchronization rounds executed so far. */
    std::uint64_t roundsExecuted() const { return rounds_; }

    /**
     * Domains entered, summed over the rounds executed so far: a round
     * enters only the domains with an event due by its horizon.
     */
    std::uint64_t domainsEntered() const { return domainsEntered_; }

  private:
    /** One buffered cross-domain event, ordered by (when, src, seq). */
    struct CrossEvent
    {
        Tick when;
        std::uint64_t seq; ///< per-channel FIFO sequence (post order)
        EventTag tag;
        EventCallback fn;
    };

    /** FIFO channel for one (src, dst) domain pair. */
    struct Channel
    {
        std::vector<CrossEvent> buf;
        std::uint64_t nextSeq = 0;   ///< also the channel's posted total
    };

    /** A buffered event's merge key, sorted instead of the event. */
    struct MergeRef
    {
        Tick when;
        unsigned src;
        std::uint64_t seq;
        CrossEvent *ev;
    };

    Channel &
    channel(unsigned src, unsigned dst)
    {
        return channels_[src * sims_.size() + dst];
    }

    /** Merge all buffered channel events into their destination queues. */
    void drainChannels();

    /**
     * Run every domain with an event due by @p horizon to it, on workers
     * when shards > 1.
     */
    void executeRound(Tick horizon);

    /**
     * Worker thread body: execute assigned domains each round after
     * round @p seenEpoch.
     */
    void workerLoop(unsigned worker, std::uint64_t seenEpoch);

    void startWorkers();
    void stopWorkers();

    std::vector<std::unique_ptr<Simulator>> sims_;
    std::vector<Channel> channels_; ///< D x D, row-major [src][dst]
    /**
     * Per source, the destinations it posted to this round, in first-post
     * order. Only the thread executing the source writes its list, so
     * post() needs no lock; the drain reads and clears them between
     * rounds. The drain therefore visits only the channels that hold
     * events, not all D x D.
     */
    std::vector<std::vector<unsigned>> postedTo_;
    /** Per destination, the sources holding events for it (drain scratch). */
    std::vector<std::vector<unsigned>> sourcesOf_;
    std::vector<MergeRef> merged_; ///< one destination's merge buffer
    std::vector<DrainHook> drainHooks_;
    /** Each domain's next event tick, peeked after the drain. */
    std::vector<Tick> next_;
    Tick lookahead_;
    unsigned shards_ = 1;
    std::uint64_t rounds_ = 0;
    std::uint64_t domainsEntered_ = 0;
    bool running_ = false; ///< inside runUntil (post() is only legal then)

    // Worker pool (only materialized when shards_ > 1). The coordinator
    // publishes a round (epoch_, horizon_) under mu_; workers run their
    // domains and decrement pending_; cvDone_ wakes the coordinator.
    // The mutex handshake gives the happens-before edges that make the
    // channel buffers safe to drain without per-channel locks.
    std::vector<std::thread> workers_;
    std::mutex mu_;
    std::condition_variable cvWork_;
    std::condition_variable cvDone_;
    std::uint64_t epoch_ = 0;
    Tick horizon_ = 0;
    unsigned pending_ = 0;
    bool shutdown_ = false;
};

} // namespace smartds::sim

#endif // SMARTDS_SIM_PDES_H_
