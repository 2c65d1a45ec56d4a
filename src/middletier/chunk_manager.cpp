#include "middletier/chunk_manager.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace smartds::middletier {

ChunkManager::ChunkManager(Config config,
                           std::vector<net::NodeId> storage_nodes)
    : config_(config), storageNodes_(std::move(storage_nodes)),
      rng_(config.seed)
{
    SMARTDS_CHECK(config_.chunkBytes > 0 &&
                       config_.segmentBytes >= config_.chunkBytes,
                   "segment must hold at least one chunk");
    SMARTDS_CHECK(storageNodes_.size() >= config_.replication,
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
    const std::uint64_t segment_index = byte_offset / config_.segmentBytes;
    ref.segmentId = vm_id * 1000003ULL + segment_index;
    ref.chunkIndex = static_cast<std::uint32_t>(
        (byte_offset % config_.segmentBytes) / config_.chunkBytes);
    return ref;
}

ChunkManager::ChunkState &
ChunkManager::state(const ChunkRef &chunk, const NodeHealthView *health)
{
    if (ChunkState *known = chunks_.find(chunk))
        return *known;
    ChunkState fresh;
    // Partial Fisher-Yates pick of `replication` distinct servers,
    // steering clear of suspected nodes when a health view is given
    // (and there are enough healthy nodes to satisfy replication).
    if (health)
        pool_ = health->filterHealthy(storageNodes_, config_.replication);
    else
        pool_.assign(storageNodes_.begin(), storageNodes_.end());
    for (unsigned i = 0; i < config_.replication; ++i) {
        const std::size_t j = i + rng_.below(pool_.size() - i);
        std::swap(pool_[i], pool_[j]);
        fresh.replicas.push_back(pool_[i]);
    }
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

bool
ChunkManager::countWrite(ChunkState &s)
{
    ++s.writesSinceCompaction;
    if (!s.compactionQueued &&
        s.writesSinceCompaction >= config_.compactionThreshold) {
        s.compactionQueued = true;
        ++compactionsDue_;
        return true;
    }
    return false;
}

bool
ChunkManager::recordWrite(const ChunkRef &chunk)
{
    return countWrite(state(chunk, nullptr));
}

const ReplicaSet &
ChunkManager::writeReplicas(const ChunkRef &chunk)
{
    ChunkState &s = state(chunk, nullptr);
    countWrite(s);
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
