#include "middletier/maintenance.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"
#include "sim/awaitables.h"

namespace smartds::middletier {

namespace {

/** Fraction of a burst that compaction writes back out. */
constexpr double compactionRewriteFraction = 0.55;

} // namespace

MaintenanceService::MaintenanceService(sim::Simulator &sim,
                                       const std::string &name,
                                       host::CorePool &pool,
                                       mem::MemorySystem &memory)
    : MaintenanceService(sim, name, pool, memory, Config{})
{
}

MaintenanceService::MaintenanceService(sim::Simulator &sim,
                                       const std::string &name,
                                       host::CorePool &pool,
                                       mem::MemorySystem &memory,
                                       Config config)
    : sim_(sim), pool_(pool), config_(config), rng_(config.seed),
      readFlow_(memory.createFlow(name + ".compact-read")),
      writeFlow_(memory.createFlow(name + ".compact-write"))
{
    SMARTDS_CHECK(config_.cores >= 1, "maintenance needs a core");
    sim::spawn(sim_, loop());
}

sim::Process
MaintenanceService::loop()
{
    while (running_) {
        // simlint: allow(tick-float): exponential jitter from the seeded
        // Rng; identical across runs of the same binary by construction
        const Tick wait = static_cast<Tick>(rng_.exponential(
            static_cast<double>(config_.meanInterval)));
        co_await sim::delay(sim_, wait, sim::EventTag::Maintenance);
        if (!running_)
            break;

        // Seize the burst's cores (they queue behind serving work when
        // the pool is shared — and serving work then queues behind them).
        const unsigned cores = std::min(config_.cores, pool_.cores());
        for (unsigned c = 0; c < cores; ++c)
            co_await pool_.acquire();

        // Compaction streams the burst through memory: read the retained
        // write buffers, merge, and write the compacted output. The
        // cores are held for the processing time; the memory traffic
        // shares bandwidth with the serving datapath.
        const Tick processing = transferTicks(
            config_.burstBytes,
            calibration::hostCompactionPerCore * static_cast<double>(cores));
        auto compute = sim::timerAsync(sim_, processing);
        auto mem_read =
            sim::transferAsync(sim_, *readFlow_, config_.burstBytes);
        auto mem_write = sim::transferAsync(
            sim_, *writeFlow_,
            static_cast<Bytes>(static_cast<double>(config_.burstBytes) *
                               compactionRewriteFraction));
        co_await compute;
        co_await mem_read;
        co_await mem_write;

        for (unsigned c = 0; c < cores; ++c)
            pool_.release();

        ++bursts_;
        bytesCompacted_ += config_.burstBytes;
    }
}

bool
MaintenanceService::scheduleRepair(RepairKey key, Bytes bytes,
                                   unsigned read_fan_in,
                                   sim::EventCallback resend)
{
    if (!inFlight_.insert(key).second) {
        ++deduped_;
        return false;
    }
    sim::spawn(sim_, repair(key, bytes, read_fan_in, std::move(resend)));
    return true;
}

sim::Process
MaintenanceService::repair(RepairKey key, Bytes bytes, unsigned read_fan_in,
                           sim::EventCallback resend)
{
    // A repair behaves like a miniature compaction burst: one core
    // streams the recovery source back through host memory and re-issues
    // the replica to its new home. Plain replication reads the block
    // once (fan-in 1); an RS(k, m) shard reconstruction reads k
    // surviving shards and re-encodes the lost one (fan-in k).
    const unsigned fan_in = std::max(1u, read_fan_in);
    const Tick start = sim_.now();
    co_await pool_.acquire();
    const Bytes read_bytes = bytes * fan_in;
    const Tick processing =
        transferTicks(read_bytes, calibration::hostCompactionPerCore);
    auto compute = sim::timerAsync(sim_, processing);
    auto mem_read = sim::transferAsync(sim_, *readFlow_, read_bytes);
    co_await compute;
    co_await mem_read;
    pool_.release();
    if (resend)
        resend();
    ++repairs_;
    inFlight_.erase(key);
    if (fan_in > 1) {
        ++reconstructions_;
        reconstructionTicks_ += sim_.now() - start;
        if (tracer_) {
            const trace::TraceContext tctx = tracer_->admit(key.tag);
            if (tctx)
                tracer_->record(tctx, trace::Stage::Reconstruct, start,
                                sim_.now());
        }
    }
}

} // namespace smartds::middletier
