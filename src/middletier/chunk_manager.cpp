#include "middletier/chunk_manager.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace smartds::middletier {

namespace {

/** Segment and chunk sizes (the paper's Section 2.1 example). */
constexpr Bytes segmentBytes = gibibytes(32);
constexpr Bytes chunkBytes = mebibytes(64);
static_assert(chunkBytes > 0 && segmentBytes >= chunkBytes,
              "segment must hold at least one chunk");

} // namespace

ChunkManager::ChunkManager(Config config,
                           const std::vector<net::NodeId> &storage_nodes,
                           const std::vector<unsigned> &storage_racks)
    : config_(config), placement_(storage_nodes, storage_racks),
      rng_(config.seed)
{
    SMARTDS_CHECK(placement_.size() >= config_.replication,
                   "need at least %u storage servers", config_.replication);
    SMARTDS_CHECK(config_.replication <= ReplicaSet::kMaxReplicas,
                  "at most %zu replicas per chunk, asked for %u",
                  ReplicaSet::kMaxReplicas, config_.replication);
}

ChunkRef
ChunkManager::locate(std::uint64_t vm_id, std::uint64_t byte_offset) const
{
    ChunkRef ref;
    // Each VM's LBA space is carved into segments; the segment id folds
    // in the owning VM so distinct disks never share a segment.
    const std::uint64_t segment_index = byte_offset / segmentBytes;
    ref.segmentId = vm_id * 1000003ULL + segment_index;
    ref.chunkIndex = static_cast<std::uint32_t>(
        (byte_offset % segmentBytes) / chunkBytes);
    return ref;
}

ChunkManager::ChunkState &
ChunkManager::state(const ChunkRef &chunk, const NodeHealthView *health)
{
    if (ChunkState *known = chunks_.find(chunk))
        return *known;
    ChunkState fresh;
    for (const net::NodeId n :
         placement_.draw(rng_, health, config_.replication))
        fresh.replicas.push_back(n);
    return *chunks_.tryEmplace(chunk, fresh).first;
}

const ReplicaSet &
ChunkManager::replicas(const ChunkRef &chunk, const NodeHealthView *health)
{
    return state(chunk, health).replicas;
}

bool
ChunkManager::replaceReplica(const ChunkRef &chunk, net::NodeId from,
                             net::NodeId to)
{
    ChunkState *s = chunks_.find(chunk);
    if (!s)
        return false;
    ReplicaSet &nodes = s->replicas;
    const auto pos = std::find(nodes.begin(), nodes.end(), from);
    if (pos == nodes.end() ||
        std::find(nodes.begin(), nodes.end(), to) != nodes.end())
        return false;
    nodes.set(static_cast<std::size_t>(pos - nodes.begin()), to);
    ++replacements_;
    return true;
}

const ReplicaSet &
ChunkManager::writeReplicas(const ChunkRef &chunk,
                            const NodeHealthView *health)
{
    ChunkState &s = state(chunk, health);
    ++s.writesSinceCompaction;
    if (!s.compactionQueued &&
        s.writesSinceCompaction >= config_.compactionThreshold) {
        s.compactionQueued = true;
        ++compactionsDue_;
    }
    return s.replicas;
}

unsigned
ChunkManager::pendingWrites(const ChunkRef &chunk) const
{
    const ChunkState *s = chunks_.find(chunk);
    return s ? s->writesSinceCompaction : 0;
}

void
ChunkManager::compacted(const ChunkRef &chunk)
{
    ChunkState *s = chunks_.find(chunk);
    if (!s)
        return;
    if (s->compactionQueued) {
        SMARTDS_CHECK(compactionsDue_ > 0, "compaction accounting");
        --compactionsDue_;
    }
    s->writesSinceCompaction = 0;
    s->compactionQueued = false;
}

} // namespace smartds::middletier
