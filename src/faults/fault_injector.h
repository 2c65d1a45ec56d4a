/**
 * @file
 * Deterministic fault injection for the storage pool.
 *
 * The middle tier exists because storage nodes fail (Section 2.1), so the
 * simulator must be able to produce those failures on demand: full
 * crashes with a bounded outage, slow nodes (inflated append latency,
 * throttled ingest bandwidth), gray failures that store the block but
 * drop the acknowledgement, and silent bit-flip corruption of the stored
 * copy. Every decision flows from explicit seeds and the deterministic
 * event order, so a run with a fixed seed produces identical failure
 * timelines — the property the fault-tolerance tests assert on.
 *
 * A FaultProfile is the per-node knob block the StorageServer datapath
 * consults; the FaultInjector owns the profiles and schedules state
 * transitions at simulated ticks (one-shot or as a random crash/recover
 * churn over the whole pool).
 */

#ifndef SMARTDS_FAULTS_FAULT_INJECTOR_H_
#define SMARTDS_FAULTS_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/time.h"
#include "net/message.h"
#include "sim/pdes.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace smartds::faults {

/** Per-node fault state consulted on the storage-server datapath. */
class FaultProfile
{
  public:
    FaultProfile(net::NodeId node, std::uint64_t seed)
        : node_(node), rng_(seed)
    {
    }

    net::NodeId node() const { return node_; }

    // --- state queried on the datapath ---------------------------------

    /** Whether the node is down (drops every message silently). */
    bool crashed() const { return crashed_; }

    /** Extra append latency beyond the healthy baseline @p base. */
    Tick
    extraAppendLatency(Tick base) const
    {
        if (latencyFactor_ <= 1.0)
            return 0;
        // simlint: allow(tick-float): latencyFactor_ is a config-supplied
        // slowdown ratio; the product is computed identically on every
        // run of the same binary and feeds one node's delay, not ordering
        return static_cast<Tick>(static_cast<double>(base) *
                                 (latencyFactor_ - 1.0));
    }

    /**
     * Inflate @p bytes so a bandwidth-throttled disk drains the block
     * proportionally slower (the disk's rate itself stays fixed).
     */
    Bytes
    throttledBytes(Bytes bytes) const
    {
        if (bandwidthFactor_ >= 1.0 || bandwidthFactor_ <= 0.0)
            return bytes;
        return static_cast<Bytes>(static_cast<double>(bytes) /
                                  bandwidthFactor_);
    }

    /** Gray failure: store the block but drop the ack? Consumes rng. */
    bool
    dropAck()
    {
        if (ackDropProbability_ <= 0.0 || !rng_.chance(ackDropProbability_))
            return false;
        ++acksDropped_;
        return true;
    }

    /** Flip a bit in the stored copy of this block? Consumes rng. */
    bool
    corruptBlock()
    {
        if (corruptProbability_ <= 0.0 || !rng_.chance(corruptProbability_))
            return false;
        ++blocksCorrupted_;
        return true;
    }

    /** Deterministic bit to flip within a @p payload_bits -bit payload. */
    std::size_t
    corruptBitIndex(std::size_t payload_bits)
    {
        return payload_bits == 0 ? 0 : rng_.below(payload_bits);
    }

    // --- state transitions (injector, tests) ---------------------------

    void
    crash()
    {
        if (crashed_)
            return;
        crashed_ = true;
        ++crashes_;
    }

    void recover() { crashed_ = false; }

    void
    degrade(double latency_factor, double bandwidth_factor)
    {
        latencyFactor_ = latency_factor;
        bandwidthFactor_ = bandwidth_factor;
    }

    void restore() { degrade(1.0, 1.0); }

    void setAckDropProbability(double p) { ackDropProbability_ = p; }
    void setCorruptProbability(double p) { corruptProbability_ = p; }

    // --- accounting ----------------------------------------------------

    /** Messages silently dropped while crashed. */
    void noteDropped() { ++messagesDropped_; }
    std::uint64_t messagesDropped() const { return messagesDropped_; }

    std::uint64_t acksDropped() const { return acksDropped_; }
    std::uint64_t blocksCorrupted() const { return blocksCorrupted_; }
    std::uint64_t crashes() const { return crashes_; }

    double latencyFactor() const { return latencyFactor_; }
    double bandwidthFactor() const { return bandwidthFactor_; }

  private:
    net::NodeId node_;
    Rng rng_;
    bool crashed_ = false;
    double latencyFactor_ = 1.0;
    double bandwidthFactor_ = 1.0;
    double ackDropProbability_ = 0.0;
    double corruptProbability_ = 0.0;
    std::uint64_t messagesDropped_ = 0;
    std::uint64_t acksDropped_ = 0;
    std::uint64_t blocksCorrupted_ = 0;
    std::uint64_t crashes_ = 0;
};

/** Owns the per-node profiles and schedules fault timelines. */
class FaultInjector
{
  public:
    explicit FaultInjector(sim::Simulator &sim, std::uint64_t seed = 0xfa17);

    /** Get-or-create the profile for @p node. */
    FaultProfile *profile(net::NodeId node);

    /**
     * PDES mode: target a multi-domain cluster. One-shot schedules land
     * on the victim node's own domain simulator (so a crash executes in
     * the victim's shard and its profile is only ever touched by that
     * shard's thread), and the churn loop — which runs in the injector's
     * home domain — keeps shadow down/up bookkeeping locally and posts
     * the actual transitions through the cluster's channels. @p
     * node_domains maps every storage node to its timing domain (nodes
     * absent from the map are assumed to share the injector's domain).
     */
    void attachCluster(sim::ClusterSim &cluster,
                       std::map<net::NodeId, unsigned> node_domains);

    // --- one-shot schedules (absolute simulated time) ------------------

    void scheduleCrash(net::NodeId node, Tick at);
    void scheduleRecovery(net::NodeId node, Tick at);

    /**
     * Random crash/recover churn: every ~@p mean_interval (exponential),
     * crash one node of @p nodes for @p outage ticks. A node already down
     * is skipped, so the pool never loses more nodes than the draw
     * overlap allows.
     */
    void startCrashChurn(std::vector<net::NodeId> nodes, Tick mean_interval,
                         Tick outage);

    /**
     * Correlated failure-domain crash: at tick @p at, crash *every* node
     * of one domain of @p domains (chosen from the injector's seeded rng
     * at schedule time, so two runs at the same seed kill the same
     * domain), and recover them all @p outage ticks later (0 = the
     * domain stays down). This is the rack-loses-power event that
     * domain-spread placement must survive.
     */
    void scheduleDomainCrash(
        const std::vector<std::vector<net::NodeId>> &domains, Tick at,
        Tick outage);

    /** Stop the churn loop (profiles keep their current state). */
    void stop() { running_ = false; }

    std::uint64_t
    crashesInjected() const
    {
        return crashesInjected_.load(std::memory_order_relaxed);
    }
    std::size_t crashedCount() const;

  private:
    sim::Process churn(std::vector<net::NodeId> nodes, Tick mean_interval,
                       Tick outage);

    /** Timing domain @p node executes in (injector's own if unmapped). */
    unsigned domainOf(net::NodeId node) const;

    /** The simulator a one-shot fault for @p node must be scheduled on. */
    sim::Simulator &simFor(net::NodeId node);

    /** Churn-loop crash + recovery for @p victim (PDES-aware). */
    void injectChurnCrash(FaultProfile *victim, Tick outage);

    sim::Simulator &sim_;
    sim::ClusterSim *cluster_ = nullptr; ///< null outside PDES mode
    std::map<net::NodeId, unsigned> nodeDomain_;
    /** Churn shadow state: tick each node is (believed) down until. */
    std::map<net::NodeId, Tick> downUntil_;
    std::uint64_t seed_;
    Rng rng_;
    bool running_ = false;
    // Crash events execute in their victim's shard, so in PDES mode this
    // counter is bumped from several worker threads; the sum is still
    // deterministic (each crash event fires exactly once). Relaxed is
    // enough — the rounds' mutex handshake orders reads after the run.
    std::atomic<std::uint64_t> crashesInjected_{0};
    // Ordered map: iteration order (crashedCount) must be deterministic.
    std::map<net::NodeId, std::unique_ptr<FaultProfile>> profiles_;
};

} // namespace smartds::faults

#endif // SMARTDS_FAULTS_FAULT_INJECTOR_H_
