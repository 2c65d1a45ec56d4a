/**
 * @file
 * Middle-tier view of storage-node health.
 *
 * The tier has no failure detector besides its own datapath: a replica
 * ack that times out is a strike against the target node, an ack (or
 * fetch reply) that arrives clears it. A node with enough consecutive
 * strikes is *suspected* and excluded from new replica placement until it
 * proves itself again — the "exclude fault domains" half of Section
 * 2.1's placement policy; placement.h spreads over racks.
 */

#ifndef SMARTDS_MIDDLETIER_NODE_HEALTH_H_
#define SMARTDS_MIDDLETIER_NODE_HEALTH_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

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

    /**
     * Bumped whenever the suspected set changes. Placement caches its
     * healthy pool keyed on it.
     */
    std::uint64_t version() const { return version_; }

  private:
    unsigned threshold_;
    std::uint64_t version_ = 0;
    std::unordered_map<net::NodeId, unsigned> strikes_;
    std::unordered_set<net::NodeId> suspected_;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_NODE_HEALTH_H_
