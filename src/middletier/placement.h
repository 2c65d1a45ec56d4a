/**
 * @file
 * Failure-domain-aware placement of replicas and RS shards (paper
 * Section 2.1: a chunk's replicas are placed by "distribution of
 * switches ... and disaster recovery strategy").
 *
 * One draw makes every placement decision of the middle tier: a chunk's
 * sticky replica set (ChunkManager), a write's RS stripe or per-request
 * replica set (PerRequestServer::placeWrite), and the node a failing
 * replica moves to (replicateWithFailover). It is a partial Fisher-Yates
 * over the healthy pool in storage order that sets aside a drawn node
 * whose rack already holds its share, ceil(n / racks) of the placement's
 * n nodes, and draws again. Only when every node left sits in a rack at
 * or over the share does the share go up, to one above the least-filled
 * of those racks (one step, unless nodes already placed overfill them).
 * So a rack holds more than its share only when the healthy racks cannot
 * hold n nodes otherwise. With no topology, or with one node per rack,
 * nothing is ever set aside and the draw is the plain partial
 * Fisher-Yates.
 */

#ifndef SMARTDS_MIDDLETIER_PLACEMENT_H_
#define SMARTDS_MIDDLETIER_PLACEMENT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "middletier/node_health.h"
#include "net/message.h"

namespace smartds::middletier {

/** A storage pool with its racks, and the placement draw over it. */
class Placement
{
  public:
    /**
     * @p nodes in storage order; @p racks holds the failure domain (rack
     * / ToR) of each, parallel by index. Empty @p racks means no
     * topology: every node in one rack.
     */
    Placement(const std::vector<net::NodeId> &nodes,
              const std::vector<unsigned> &racks);

    /** Storage nodes in the pool. */
    std::size_t size() const { return all_.size(); }

    /**
     * Draw @p count distinct nodes to join @p placed, the nodes already
     * holding this block (empty for a fresh placement).
     *
     * - Nodes @p health suspects are skipped unless fewer than @p count
     *   healthy nodes outside @p placed remain.
     * - Nodes of @p placed are never drawn. They count against their
     *   racks' shares of the n = |placed| + count nodes.
     *
     * The result views a buffer the next draw reuses. A fresh placement
     * always gets @p count nodes (the pool must hold them); a draw with
     * @p placed gets fewer only when fewer remain outside it.
     */
    std::span<const net::NodeId>
    draw(Rng &rng, const NodeHealthView *health, unsigned count,
         std::span<const net::NodeId> placed = {});

  private:
    struct Node
    {
        net::NodeId id;
        unsigned rack;
    };

    /** all_ minus the nodes @p health suspects, rebuilt when stale. */
    std::vector<Node> &healthy(const NodeHealthView &health);

    /**
     * The nodes outside @p placed, healthy ones unless fewer than
     * @p count remain; records the racks of @p placed in taken_.
     */
    std::vector<Node> &spare(const NodeHealthView *health, unsigned count,
                             std::span<const net::NodeId> placed);

    /** The pool in storage order; racks are dense indices. */
    std::vector<Node> all_;
    unsigned racks_ = 1;
    /** healthy()'s cache, keyed on the view and its version(). */
    std::vector<Node> healthy_;
    const NodeHealthView *healthyOf_ = nullptr;
    std::uint64_t healthyVersion_ = 0;
    // Per-draw scratch, kept for its capacity.
    std::vector<Node> spare_;
    /** Rack of each placed or drawn node. */
    std::vector<unsigned> taken_;
    std::vector<std::pair<std::size_t, std::size_t>> swaps_;
    std::vector<net::NodeId> picks_;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_PLACEMENT_H_
