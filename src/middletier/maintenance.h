/**
 * @file
 * Middle-tier maintenance services (paper Section 2.2.3).
 *
 * Besides serving I/O, every middle-tier server runs maintenance: LSM-tree
 * compaction over the write buffers it retains (~32 ms intermediate-buffer
 * lifetime), disk garbage collection, fail-over handling and snapshots.
 * These services periodically seize CPU cores and stream large buffers
 * through host memory — the co-located interference that motivates the
 * paper's performance-isolation argument (Section 5.3): on a CPU-only
 * middle tier, maintenance competes with serving for both cores and
 * memory bandwidth; with SmartDS, payloads are not in host memory and the
 * serving path uses two cores, so maintenance runs beside it harmlessly.
 */

#ifndef SMARTDS_MIDDLETIER_MAINTENANCE_H_
#define SMARTDS_MIDDLETIER_MAINTENANCE_H_

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/calibration.h"
#include "common/random.h"
#include "host/core_pool.h"
#include "mem/memory_system.h"
#include "sim/process.h"
#include "trace/trace.h"

namespace smartds::middletier {

/**
 * Identity of one replica/shard repair: the write's tag plus the
 * replica slot (or EC shard index) being re-homed. Keyed so a flapping
 * node that abandons the same shard repeatedly cannot enqueue duplicate
 * reconstructions.
 */
struct RepairKey
{
    std::uint64_t tag = 0;
    std::uint32_t slot = 0;

    bool
    operator<(const RepairKey &o) const
    {
        return std::tie(tag, slot) < std::tie(o.tag, o.slot);
    }
};

/** Periodic compaction/scrubbing bursts on a middle-tier host. */
class MaintenanceService
{
  public:
    struct Config
    {
        /** Mean interval between bursts (exponentially distributed). */
        Tick meanInterval = 2 * ticksPerMillisecond;
        /** Bytes compacted per burst (read + rewritten). */
        Bytes burstBytes = 8u << 20;
        /** Cores a burst occupies. */
        unsigned cores = 4;
        std::uint64_t seed = 99;
    };

    /**
     * @param sim    simulator
     * @param name   diagnostic name
     * @param pool   core pool the bursts run on (share the serving pool
     *               to model co-located maintenance, or a dedicated pool
     *               to model partitioned cores)
     * @param memory host memory the compaction streams through
     */
    MaintenanceService(sim::Simulator &sim, const std::string &name,
                       host::CorePool &pool, mem::MemorySystem &memory);
    MaintenanceService(sim::Simulator &sim, const std::string &name,
                       host::CorePool &pool, mem::MemorySystem &memory,
                       Config config);

    /** Bursts completed so far. */
    std::uint64_t burstsCompleted() const { return bursts_; }

    /** Bytes compacted so far. */
    Bytes bytesCompacted() const { return bytesCompacted_; }

    /**
     * Queue a background replica/shard repair (Section 2.2.3's
     * fail-over handling): re-reading the source data and pushing it to
     * its new home costs a core and memory traffic like any maintenance
     * work, then @p resend re-issues the replica on the wire.
     * Fire-and-forget from the serving path's point of view.
     *
     * @p key identifies the (block, replica/shard) being repaired;
     * while one repair for a key is in flight, further requests for the
     * same key are dropped (returns false) so a flapping node cannot
     * enqueue duplicate reconstructions.
     *
     * @p read_fan_in models the recovery read: 1 for plain replication
     * (re-read the block), k for an RS(k, m) shard reconstruction
     * (stream k surviving shards of @p bytes each through the host and
     * re-encode). Fan-in > 1 repairs are counted as reconstructions and
     * traced as Reconstruct spans.
     */
    bool scheduleRepair(RepairKey key, Bytes bytes, unsigned read_fan_in,
                        sim::EventCallback resend);

    /** Background replica repairs finished so far. */
    std::uint64_t repairsCompleted() const { return repairs_; }

    /** Repair requests dropped because the key was already queued. */
    std::uint64_t repairsDeduped() const { return deduped_; }

    /** EC shard reconstructions (fan-in > 1 repairs) finished so far. */
    std::uint64_t reconstructionsCompleted() const { return reconstructions_; }

    /** Total ticks spent inside finished reconstructions. */
    Tick reconstructionTicks() const { return reconstructionTicks_; }

    /** Attach the run's tracer so reconstructions emit Reconstruct spans. */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    /** Stop after the current burst. */
    void stop() { running_ = false; }

  private:
    sim::Process loop();
    sim::Process repair(RepairKey key, Bytes bytes, unsigned read_fan_in,
                        sim::EventCallback resend);

    sim::Simulator &sim_;
    host::CorePool &pool_;
    Config config_;
    Rng rng_;
    sim::FairShareResource::Flow *readFlow_;
    sim::FairShareResource::Flow *writeFlow_;
    bool running_ = true;
    std::uint64_t bursts_ = 0;
    Bytes bytesCompacted_ = 0;
    std::uint64_t repairs_ = 0;
    std::uint64_t deduped_ = 0;
    std::uint64_t reconstructions_ = 0;
    Tick reconstructionTicks_ = 0;
    trace::Tracer *tracer_ = nullptr;
    std::set<RepairKey> inFlight_; // ordered: deterministic, lookup-only
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_MAINTENANCE_H_
