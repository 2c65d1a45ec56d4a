/**
 * @file
 * Tests for the segment/chunk manager: LBA mapping, sticky placement,
 * compaction bookkeeping, and its integration with the serving path.
 */

#include <gtest/gtest.h>

#include <set>

#include "middletier/chunk_manager.h"
#include "workload/experiment.h"

namespace smartds::middletier {
namespace {

using namespace smartds::size_literals;

ChunkManager
makeManager(unsigned threshold = 4)
{
    ChunkManager::Config config;
    config.compactionThreshold = threshold;
    return ChunkManager(config, {11, 12, 13, 14, 15, 16});
}

TEST(ChunkManager, LbaMapsToSegmentAndChunk)
{
    auto cm = makeManager();
    // Offsets within the same 64 MiB land in the same chunk...
    const ChunkRef a = cm.locate(1, 0);
    const ChunkRef b = cm.locate(1, mebibytes(63));
    EXPECT_EQ(a, b);
    // ...the next chunk starts at 64 MiB...
    const ChunkRef c = cm.locate(1, mebibytes(64));
    EXPECT_EQ(c.segmentId, a.segmentId);
    EXPECT_EQ(c.chunkIndex, a.chunkIndex + 1);
    // ...and a new segment starts at 32 GiB.
    const ChunkRef d = cm.locate(1, gibibytes(32));
    EXPECT_NE(d.segmentId, a.segmentId);
    EXPECT_EQ(d.chunkIndex, 0u);
}

TEST(ChunkManager, DistinctVmsNeverShareSegments)
{
    auto cm = makeManager();
    EXPECT_NE(cm.locate(1, 0).segmentId, cm.locate(2, 0).segmentId);
}

TEST(ChunkManager, PlacementIsStickyPerChunk)
{
    auto cm = makeManager();
    const ChunkRef chunk = cm.locate(1, 4096);
    const auto first = cm.replicas(chunk);
    ASSERT_EQ(first.size(), 3u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(cm.replicas(chunk), first);
    // Replicas are distinct servers.
    const std::set<net::NodeId> unique(first.begin(), first.end());
    EXPECT_EQ(unique.size(), 3u);
}

TEST(ChunkManager, DifferentChunksSpreadAcrossThePool)
{
    auto cm = makeManager();
    std::set<net::NodeId> used;
    for (std::uint64_t i = 0; i < 64; ++i) {
        const auto reps =
            cm.replicas(cm.locate(7, i * mebibytes(64)));
        used.insert(reps.begin(), reps.end());
    }
    // All six servers should appear somewhere.
    EXPECT_EQ(used.size(), 6u);
}

TEST(ChunkManager, CompactionTriggersAtThreshold)
{
    auto cm = makeManager(4);
    const ChunkRef chunk = cm.locate(1, 0);
    for (int i = 0; i < 3; ++i)
        cm.writeReplicas(chunk);
    EXPECT_EQ(cm.compactionsDue(), 0u);
    cm.writeReplicas(chunk); // 4th write crosses the threshold
    EXPECT_EQ(cm.compactionsDue(), 1u);
    // Further writes do not re-queue until compacted.
    cm.writeReplicas(chunk);
    EXPECT_EQ(cm.compactionsDue(), 1u);
    EXPECT_EQ(cm.pendingWrites(chunk), 5u);

    cm.compacted(chunk);
    EXPECT_EQ(cm.compactionsDue(), 0u);
    EXPECT_EQ(cm.pendingWrites(chunk), 0u);
    // The cycle restarts.
    for (int i = 0; i < 3; ++i)
        cm.writeReplicas(chunk);
    EXPECT_EQ(cm.compactionsDue(), 0u);
    cm.writeReplicas(chunk);
    EXPECT_EQ(cm.compactionsDue(), 1u);
}

TEST(ChunkManager, CompactedUnknownChunkIsHarmless)
{
    auto cm = makeManager();
    cm.compacted(ChunkRef{999, 999});
    EXPECT_EQ(cm.compactionsDue(), 0u);
}

TEST(ChunkManager, ExperimentTracksChunksAndCompactions)
{
    workload::ExperimentConfig config;
    config.design = Design::SmartDs;
    config.cores = 2;
    config.warmup = 2 * ticksPerMillisecond;
    config.window = 6 * ticksPerMillisecond;
    config.compactionThreshold = 8; // low threshold: compactions happen
    // A hot set: uniform writes over a 64 GiB disk spread so thin that
    // no chunk reaches 8 writes in the window, so nothing would be due.
    config.zipfTheta = 0.99;
    const auto r = workload::runWriteExperiment(config);
    EXPECT_GT(r.chunksTracked, 10u);
    EXPECT_GT(r.compactionsDue, 0u);
}

} // namespace
} // namespace smartds::middletier
