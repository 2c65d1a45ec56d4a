/**
 * @file
 * Write-serving experiment harness.
 *
 * Builds the full testbed of the paper's Section 5.1 in simulation — VM
 * clients, one middle-tier server of the chosen design, a pool of storage
 * servers, the host memory system, and optionally the MLC pressure
 * injector — runs warmup plus a measured window, and reports throughput,
 * latency percentiles and per-resource bandwidth usage. Every figure
 * benchmark is a parameter sweep over this harness.
 */

#ifndef SMARTDS_WORKLOAD_EXPERIMENT_H_
#define SMARTDS_WORKLOAD_EXPERIMENT_H_

#include <map>
#include <string>

#include <vector>

#include "common/calibration.h"
#include "common/time.h"
#include "common/units.h"
#include "mem/mlc_injector.h"
#include "middletier/server_base.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace smartds::workload {

/** Configuration of one experiment run. */
struct ExperimentConfig
{
    middletier::Design design = middletier::Design::SmartDs;

    /** Middle-tier cores (host cores; Arm cores for BF2). */
    unsigned cores = 2;

    /** SmartDS/BF2 networking ports. */
    unsigned ports = 1;

    /** DDIO enabled (accelerator design). */
    bool ddio = true;

    /** VM clients (0 = scale with the design's expected capacity). */
    unsigned clients = 0;

    /** Closed-loop issuers per client. */
    unsigned outstandingPerClient = 8;

    /** Storage servers (0 = scale with ports). */
    unsigned storageServers = 0;

    /** Warmup before measurement starts. */
    Tick warmup = 5 * ticksPerMillisecond;

    /** Measured window length. */
    Tick window = 20 * ticksPerMillisecond;

    // --- Parallel simulation (PDES) ---------------------------------------

    /**
     * Timing domains the cluster is partitioned into for conservative
     * PDES: 1 (default) is the legacy single-heap kernel, byte-identical
     * to every run before this knob existed; 0 derives a partition from
     * the topology (middle tier, clients, storage spread by failure
     * domain); N >= 2 asks for exactly N domains. Results are
     * byte-identical for a fixed domain count regardless of `shards`.
     */
    unsigned timingDomains = 1;

    /**
     * Executor threads that advance the timing domains each lookahead
     * round. Purely a wall-clock knob: shards = 1 runs the same rounds
     * inline, and any value yields bit-identical results (the bar
     * SweepRunner set; verified by the dsan state hash). Clamped to the
     * domain count.
     */
    unsigned shards = 1;

    /** MLC injector inter-request delay in cycles (offDelay = no MLC). */
    unsigned mlcDelayCycles = mem::MlcInjector::offDelay;

    /** Cores dedicated to the MLC injector. */
    unsigned mlcCores = 16;

    /** Compression effort. */
    int effort = 1;

    /** Fraction of latency-sensitive requests. */
    double latencySensitiveFraction = 0.0;

    /** Fraction of read requests. */
    double readFraction = 0.0;

    /** Block size per request. */
    Bytes blockBytes = calibration::storageBlockBytes;

    // --- Workload skew and shape (YCSB-style) ----------------------------

    /** Virtual-disk size each client addresses (LBA space). */
    Bytes virtualDiskBytes = gibibytes(64);

    /**
     * Zipfian address skew: every client draws block indices from
     * Zipf(zipfTheta) over virtualDiskBytes / blockBytes blocks (0 =
     * uniform, the paper's workload; YCSB's default is 0.99).
     */
    double zipfTheta = 0.0;

    // --- Middle-tier hot-block read cache --------------------------------

    /** Read-cache capacity at the middle tier (0 = cache off). */
    Bytes readCacheBytes = 0;

    /** Memory the cache capacity and hit bandwidth are charged to. */
    middletier::ReadCachePlacement readCachePlacement =
        middletier::ReadCachePlacement::HostDram;

    /** Replication factor. */
    unsigned replication = calibration::replicationFactor;

    // --- Durability policy ------------------------------------------------

    /** Full-copy replication (default) or RS(k, m) erasure coding. */
    middletier::ReplicationPolicy replicationPolicy =
        middletier::ReplicationPolicy::Replicate;

    /** RS data shards (k) when erasure coding. */
    unsigned ecDataShards = 4;

    /** RS parity shards (m) when erasure coding. */
    unsigned ecParityShards = 2;

    /**
     * Failure domains (racks) the storage pool is spread over: node i
     * lives in domain i % failureDomains, so at most one per storage
     * node (runWriteExperiment rejects more). Placement spreads every
     * chunk's replicas and every stripe's shards over them. 0 = no
     * topology: the pool is one rack.
     */
    unsigned failureDomains = 0;

    /** RNG seed. */
    std::uint64_t seed = 42;

    /** SmartDS worker pipelines per port. */
    unsigned workersPerPort = 128;

    /** SmartDS cards in the host (>1 simulates Section 5.5 scale-up). */
    unsigned cards = 1;

    /** Co-located maintenance services (Section 2.2.3). */
    enum class Maintenance
    {
        Off,            ///< no maintenance (the paper's Fig 7 setup)
        SharedCores,    ///< compaction shares the serving cores
        DedicatedCores, ///< compaction on its own cores (memory shared)
    };
    Maintenance maintenance = Maintenance::Off;

    /** Writes per chunk before compaction is due (Section 2.2.3). */
    unsigned compactionThreshold = 1024;

    // --- Fault injection (all zero = healthy pool, the default) ---------

    /** Mean interval between injected node crashes (0 = no churn). */
    Tick crashMeanInterval = 0;

    /** Outage length of each injected crash. */
    Tick crashOutage = 2 * ticksPerMillisecond;

    /** Gray failure: probability a node stores a block but drops the ack. */
    double ackDropProbability = 0.0;

    /** Probability a stored copy gets a bit flipped (checksums catch it). */
    double corruptProbability = 0.0;

    /**
     * Correlated domain crash: at this tick every node of one failure
     * domain (drawn from the fault seed) goes down together (0 = off).
     */
    Tick domainCrashAt = 0;

    /** How long the crashed domain stays down (0 = permanently). */
    Tick domainCrashOutage = 2 * ticksPerMillisecond;

    /** Replica acks that complete the VM write (0 = all replicas). */
    unsigned ackQuorum = 0;

    /** Per-replica ack timeout (0 disables write-path timeouts). */
    Tick replicaAckTimeout = calibration::replicaAckTimeout;

    /** Retries per replica before handing it to background repair. */
    unsigned replicaMaxRetries = calibration::replicaMaxRetries;

    /** Seed of the fault timeline (separate from the workload seed). */
    std::uint64_t faultSeed = 0xfa17;

    // --- Tracing (0 = off: no tracer attached, zero datapath overhead) --

    /** Trace every Nth request (1 = all, 0 = tracing off). */
    unsigned traceSample = 0;

    /** Keep raw spans for Perfetto export (breakdown only otherwise). */
    bool traceEvents = false;

    // --- Determinism sanitizer ------------------------------------------

    /**
     * Fold every dispatched event's (tick, seq, stage tag) into a rolling
     * state hash and keep per-window digests so two runs of the same
     * config can pinpoint their first diverging event window. Checked
     * builds hash unconditionally; this knob additionally records the
     * window stream for --dsan reruns.
     */
    bool dsan = false;

    // --- Functional datapath --------------------------------------------

    /**
     * Carry and transform real corpus bytes end to end (clients attach
     * blocks, servers run the real codec, storage keeps stored bytes,
     * checksums are verified) instead of the timing-only ratio model.
     */
    bool functional = false;

    /**
     * Use the corpus block codec cache on the functional datapath
     * (precomputed compress/decompress/checksum results, zero-copy block
     * handout). Results are byte-identical either way — `false` is the
     * escape hatch that forces the real codec on every request. Ignored
     * in timing mode.
     */
    bool blockCache = true;

    /** Whether any fault-injection knob is active. */
    bool
    faultsEnabled() const
    {
        return crashMeanInterval > 0 || ackDropProbability > 0.0 ||
               corruptProbability > 0.0 || domainCrashAt > 0;
    }
};

/** Results of one run. */
struct ExperimentResult
{
    /** Served write throughput (uncompressed payload), Gbit/s. */
    double throughputGbps = 0.0;

    std::uint64_t requestsCompleted = 0;

    double avgLatencyUs = 0.0;
    double p50LatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double p999LatencyUs = 0.0;

    /** Bandwidth over the window per named probe, Gbit/s. */
    std::map<std::string, double> usageGbps;

    /** MLC injector achieved bandwidth, GB/s (0 when off). */
    double mlcGBps = 0.0;

    /** Mean compression ratio of the corpus the run used. */
    double meanCompressionRatio = 0.0;

    /** Distinct chunks the run touched (0 when the manager is off). */
    std::uint64_t chunksTracked = 0;

    /** Chunks whose LSM compaction became due during the run. */
    std::uint64_t compactionsDue = 0;

    /** Failure-handling counters of the middle tier (whole run). */
    middletier::FailoverStats failover;

    /** Hot-block read-cache counters of the middle tier (whole run). */
    middletier::HotBlockCache::Stats cache;

    /** Node crashes the injector produced (whole run). */
    std::uint64_t crashesInjected = 0;

    /** Background replica repairs that finished (whole run). */
    std::uint64_t repairsCompleted = 0;

    /** Repair requests dropped as duplicates of an in-flight repair. */
    std::uint64_t repairsDeduped = 0;

    /** EC shard reconstructions (k-way re-encode repairs) finished. */
    std::uint64_t reconstructionsCompleted = 0;

    /** Mean wall time of a finished reconstruction, microseconds. */
    double avgReconstructionUs = 0.0;

    /** Blocks/bytes the storage pool holds at the end of the run (the
     * durability policy's storage overhead, incl. repaired copies). */
    std::uint64_t storageBlocksStored = 0;
    Bytes storageBytesStored = 0;

    /** Acks dropped by gray-failing storage nodes (whole run). */
    std::uint64_t acksDropped = 0;

    /** Stored copies the injector bit-flipped (whole run). */
    std::uint64_t blocksCorrupted = 0;

    /** Per-stage latency breakdown (empty when tracing is off). */
    std::vector<trace::StageStats> stages;

    /** Raw spans of the measured window (when traceEvents was set). */
    std::vector<trace::Span> spans;

    /** Named module counters/gauges/histograms (when tracing is on). */
    std::vector<trace::MetricsRegistry::Row> metrics;

    /**
     * Rolling xxHash32 over every dispatched event's (tick, seq, stage
     * tag). Identical configs must produce identical hashes regardless of
     * process layout; 0 when event hashing was off (non-checked build
     * without the dsan knob). Multi-domain runs report the fold-merge of
     * the per-domain hashes (in domain order) — still a pure function of
     * the config, never of the shard count.
     */
    std::uint32_t stateHash = 0;

    /** Per-window digests of the event stream (when config.dsan). */
    std::vector<sim::DsanWindow> dsanWindows;

    // --- PDES telemetry ---------------------------------------------------

    /** Timing domains the run actually used (>= 1). */
    unsigned timingDomains = 1;

    /** Total simulator events executed (all domains). */
    std::uint64_t eventsExecuted = 0;

    /** Events executed per timing domain, in domain order. */
    std::vector<std::uint64_t> domainEvents;

    /** Events that crossed a domain boundary (merge-channel traffic). */
    std::uint64_t crossChannelEvents = 0;

    /** Events executed per stage tag (all domains), indexed by tag. */
    sim::TagCounts tagEvents{};

    /** PDES synchronization rounds (0 for a single-domain run). */
    std::uint64_t pdesRounds = 0;

    /**
     * Timing domains those rounds entered, summed over the rounds: a
     * round enters only the domains with an event due by its horizon.
     */
    std::uint64_t pdesDomainsEntered = 0;
};

/** Run one write-serving experiment. */
ExperimentResult runWriteExperiment(const ExperimentConfig &config);

} // namespace smartds::workload

#endif // SMARTDS_WORKLOAD_EXPERIMENT_H_
