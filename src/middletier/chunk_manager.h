/**
 * @file
 * Segment/chunk management (paper Section 2.1).
 *
 * VMs organise virtual-disk data in logical block addressing (LBA). LBAs
 * map to *segments* (e.g. 32 GiB), each managed by a middle-tier server,
 * which divides them into *chunks* (e.g. 64 MiB); every I/O request
 * targets a chunk. Writes to a chunk are appended (log-structured), the
 * chunk's replica placement is decided once — "according to disk usage,
 * distribution of switches, loads of storage servers, and disaster
 * recovery strategy" — and reused for every write to that chunk, and once
 * the number of writes in a chunk reaches a threshold the LSM-compaction
 * maintenance service folds it (Section 2.2.3).
 */

#ifndef SMARTDS_MIDDLETIER_CHUNK_MANAGER_H_
#define SMARTDS_MIDDLETIER_CHUNK_MANAGER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/units.h"
#include "middletier/node_health.h"
#include "middletier/placement.h"
#include "net/message.h"
#include "sim/flat_map.h"

namespace smartds::middletier {

/** Identifies one chunk of one virtual disk's segment space. */
struct ChunkRef
{
    std::uint64_t segmentId = 0;
    std::uint32_t chunkIndex = 0;

    bool
    operator==(const ChunkRef &o) const
    {
        return segmentId == o.segmentId && chunkIndex == o.chunkIndex;
    }
};

struct ChunkRefHash
{
    std::uint64_t
    operator()(const ChunkRef &c) const
    {
        return sim::mixBits(c.segmentId * 131071u + c.chunkIndex);
    }
};

/**
 * One chunk's replica set, stored inline (no allocation per chunk).
 * Reads like a small const container of node ids.
 */
class ReplicaSet
{
  public:
    /** Widest replica set a chunk may have. */
    static constexpr std::size_t kMaxReplicas = 8;

    using value_type = net::NodeId;
    using const_iterator = const net::NodeId *;

    std::size_t size() const { return size_; }
    const net::NodeId *begin() const { return nodes_.data(); }
    const net::NodeId *end() const { return nodes_.data() + size_; }
    net::NodeId operator[](std::size_t i) const { return nodes_[i]; }

    void
    push_back(net::NodeId n)
    {
        SMARTDS_CHECK(size_ < kMaxReplicas, "replica set overflow");
        nodes_[size_++] = n;
    }

    /** Replace the node at @p i (replica re-placement). */
    void set(std::size_t i, net::NodeId n) { nodes_[i] = n; }

    friend bool
    operator==(const ReplicaSet &a, const ReplicaSet &b)
    {
        if (a.size_ != b.size_)
            return false;
        for (std::size_t i = 0; i < a.size_; ++i)
            if (a.nodes_[i] != b.nodes_[i])
                return false;
        return true;
    }

  private:
    std::array<net::NodeId, kMaxReplicas> nodes_{};
    std::size_t size_ = 0;
};

/** LBA -> segment -> chunk mapping plus per-chunk placement and state. */
class ChunkManager
{
  public:
    struct Config
    {
        /** Replicas per chunk. */
        unsigned replication = 3;
        /** Writes per chunk before LSM compaction is due (2.2.3). */
        unsigned compactionThreshold = 1024;
        std::uint64_t seed = 1337;
    };

    /**
     * @p storage_racks is the failure domain of each storage node,
     * parallel by index (empty = no topology); see Placement.
     */
    ChunkManager(Config config, const std::vector<net::NodeId> &storage_nodes,
                 const std::vector<unsigned> &storage_racks = {});

    /** Map a (vm, LBA-byte-offset) to its chunk. */
    ChunkRef locate(std::uint64_t vm_id, std::uint64_t byte_offset) const;

    /**
     * Replica placement for a chunk. Decided on first use (one Placement
     * draw: spread over racks, excluding nodes @p health suspects when
     * given) and sticky thereafter — all writes of a chunk land on the
     * same three servers until a failure forces a replacement. The
     * reference is into the chunk table: copy it before the next call
     * that may place a chunk.
     */
    const ReplicaSet &replicas(const ChunkRef &chunk,
                               const NodeHealthView *health = nullptr);

    /**
     * Swap @p from for @p to in the chunk's replica set after @p from
     * failed a write. Sticky placement means every later write of the
     * chunk follows the replacement.
     *
     * @return whether @p from was present (and thus replaced).
     */
    bool replaceReplica(const ChunkRef &chunk, net::NodeId from,
                        net::NodeId to);

    /** Replica replacements performed so far (failure repairs). */
    std::uint64_t replacements() const { return replacements_; }

    /**
     * The write path's placement: replicas() plus one write counted
     * towards the chunk's compaction threshold, in one table lookup.
     * Same reference rule as replicas().
     */
    const ReplicaSet &writeReplicas(const ChunkRef &chunk,
                                    const NodeHealthView *health = nullptr);

    /** Writes currently accumulated in @p chunk since last compaction. */
    unsigned pendingWrites(const ChunkRef &chunk) const;

    /** Mark @p chunk compacted (resets its write counter). */
    void compacted(const ChunkRef &chunk);

    /** Chunks whose compaction is due but not yet performed. */
    std::uint64_t compactionsDue() const { return compactionsDue_; }

    /** Distinct chunks touched so far. */
    std::size_t chunksTracked() const { return chunks_.size(); }

    const Config &config() const { return config_; }

  private:
    struct ChunkState
    {
        ReplicaSet replicas;
        unsigned writesSinceCompaction = 0;
        bool compactionQueued = false;
    };

    ChunkState &state(const ChunkRef &chunk, const NodeHealthView *health);

    Config config_;
    Placement placement_;
    Rng rng_;
    sim::FlatMap<ChunkRef, ChunkState, ChunkRefHash> chunks_;
    std::uint64_t compactionsDue_ = 0;
    std::uint64_t replacements_ = 0;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_CHUNK_MANAGER_H_
