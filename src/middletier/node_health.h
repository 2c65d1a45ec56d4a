/**
 * @file
 * Middle-tier view of storage-node health.
 *
 * The tier has no failure detector besides its own datapath: a replica
 * ack that times out is a strike against the target node, an ack (or
 * fetch reply) that arrives clears it. A node with enough consecutive
 * strikes is *suspected* and excluded from new replica placement until it
 * proves itself again — the "exclude fault domains" half of Section
 * 2.1's placement policy the chunk manager previously left out.
 */

#ifndef SMARTDS_MIDDLETIER_NODE_HEALTH_H_
#define SMARTDS_MIDDLETIER_NODE_HEALTH_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/calibration.h"
#include "net/message.h"

namespace smartds::middletier {

/** Timeout-driven suspicion tracker over storage nodes. */
class NodeHealthView
{
  public:
    explicit NodeHealthView(
        unsigned suspect_threshold = calibration::nodeSuspectThreshold)
        : threshold_(suspect_threshold ? suspect_threshold : 1)
    {
    }

    void
    setSuspectThreshold(unsigned threshold)
    {
        threshold_ = threshold ? threshold : 1;
    }

    /**
     * Record an ack timeout against @p node.
     * @return whether this strike transitioned the node to suspected.
     */
    bool
    noteTimeout(net::NodeId node)
    {
        if (++strikes_[node] < threshold_ || suspected_.count(node))
            return false;
        suspected_.insert(node);
        ++version_;
        return true;
    }

    /** Record a successful round trip: the node is healthy again. */
    void
    noteAck(net::NodeId node)
    {
        strikes_.erase(node);
        if (suspected_.erase(node))
            ++version_;
    }

    bool suspected(net::NodeId node) const { return suspected_.count(node); }

    std::size_t suspectedCount() const { return suspected_.size(); }

    /**
     * @p candidates minus suspected nodes — unless that leaves fewer than
     * @p min_needed, in which case suspicion is ignored (better to write
     * to a suspect node than to fail the write). Order is preserved, so
     * the result is deterministic.
     */
    std::vector<net::NodeId>
    filterHealthy(const std::vector<net::NodeId> &candidates,
                  std::size_t min_needed) const
    {
        if (suspected_.empty())
            return candidates;
        std::vector<net::NodeId> healthy;
        healthy.reserve(candidates.size());
        for (const net::NodeId n : candidates)
            if (!suspected_.count(n))
                healthy.push_back(n);
        if (healthy.size() < min_needed)
            return candidates;
        return healthy;
    }

    /**
     * Record the failure domain (rack / ToR) @p node lives in. Domain
     * ids are dense small integers from the cluster topology; nodes
     * never registered report domain 0.
     */
    void
    setDomain(net::NodeId node, unsigned domain)
    {
        domains_[node] = domain;
        ++version_;
    }

    /** Failure domain of @p node (0 when topology is unknown). */
    unsigned
    domainOf(net::NodeId node) const
    {
        const auto it = domains_.find(node);
        return it == domains_.end() ? 0 : it->second;
    }

    /** Whether any node has a registered (nonzero-information) domain. */
    bool hasDomains() const { return !domains_.empty(); }

    /**
     * Bumped whenever the suspected set or the topology changes, i.e.
     * whenever filterHealthy() or domainOf() may answer differently.
     * Placement caches key on it.
     */
    std::uint64_t version() const { return version_; }

  private:
    unsigned threshold_;
    std::uint64_t version_ = 0;
    std::unordered_map<net::NodeId, unsigned> strikes_;
    std::unordered_set<net::NodeId> suspected_;
    std::unordered_map<net::NodeId, unsigned> domains_; // lookup only
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_NODE_HEALTH_H_
