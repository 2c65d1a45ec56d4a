#include "workload/experiment.h"

#include <memory>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "corpus/block_cache.h"
#include "corpus/corpus.h"
#include "faults/fault_injector.h"
#include "mem/memory_system.h"
#include "middletier/accelerator_server.h"
#include "middletier/bf2_server.h"
#include "middletier/cpu_only_server.h"
#include "middletier/maintenance.h"
#include "middletier/multi_card_server.h"
#include "middletier/smartds_server.h"
#include "net/fabric.h"
#include "sim/pdes.h"
#include "sim/simulator.h"
#include "storage/storage_server.h"
#include "workload/vm_client.h"

namespace smartds::workload {

namespace {

/**
 * Corpus + ratio distribution, cached per (effort, block size). The
 * mutex makes the cache safe for concurrent experiments (SweepRunner);
 * the returned sampler itself is immutable and shared freely.
 */
const corpus::RatioSampler &
cachedRatios(int effort, Bytes block_bytes)
{
    static const corpus::SyntheticCorpus corpus(4u << 20, 42);
    // simlint: allow(shared-sim-state): guards the cache below; audited
    // in the PR 2 global-state sweep, safe under concurrent SweepRunner
    // jobs and genuinely per-process (deterministic content, so PDES
    // shards may share it read-mostly)
    static std::mutex mutex;
    // simlint: allow(shared-sim-state): keyed by (effort, block size)
    // with a fixed seed, so every thread reads identical samplers;
    // protected by the mutex above and never iterated
    static std::map<std::pair<int, Bytes>,
                    std::unique_ptr<corpus::RatioSampler>>
        cache;
    const auto key = std::make_pair(effort, block_bytes);
    const std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(key);
    if (it == cache.end()) {
        it = cache
                 .emplace(key, std::make_unique<corpus::RatioSampler>(
                                   corpus, block_bytes, effort, 512, 7))
                 .first;
    }
    return *it->second;
}

/**
 * Corpus for the functional datapath: 8 MiB of synthetic Silesia-like
 * data = 2048 distinct 4 KiB blocks, built once per process. Separate
 * from the (smaller) ratio-sampling corpus so enabling functional mode
 * does not perturb the timing-mode ratio distribution.
 */
const corpus::SyntheticCorpus &
functionalCorpus()
{
    static const corpus::SyntheticCorpus corpus(8u << 20, 42);
    return corpus;
}

/** Default client count that saturates the given design configuration. */
unsigned
autoClients(const ExperimentConfig &config)
{
    switch (config.design) {
      case middletier::Design::CpuOnly:
        // Throughput scales with cores; a couple of issuers per core.
        return 4 + config.cores / 2;
      case middletier::Design::Accelerator:
        return 12;
      case middletier::Design::Bf2:
        return 10;
      case middletier::Design::SmartDs:
        return 14 * config.ports * config.cards;
    }
    panic("unknown design");
}

/**
 * Resolve the timing-domain count: 1 = legacy single-heap kernel, an
 * explicit N >= 2, or (0 = auto) a topology-derived partition — domain 0
 * for the middle tier and its services, domain 1 for the clients, and
 * one domain per storage rack (capped so tiny pools do not fragment
 * into one-node domains).
 */
unsigned
resolveTimingDomains(const ExperimentConfig &config, unsigned n_storage)
{
    if (config.timingDomains == 1)
        return 1;
    if (config.timingDomains != 0)
        return config.timingDomains;
    const unsigned racks = config.failureDomains
                               ? config.failureDomains
                               : (n_storage + 7) / 8;
    return 2 + std::min(racks, 16u);
}

/**
 * Timing domain of storage node @p i under @p n_domains. Storage is
 * spread by rack (failure domain) when a topology is configured, so a
 * correlated rack crash lands in one shard; by node index otherwise.
 */
unsigned
storageDomain(const ExperimentConfig &config, unsigned i,
              unsigned n_domains)
{
    if (n_domains <= 1)
        return 0;
    if (n_domains == 2)
        return 1;
    const unsigned slots = n_domains - 2;
    const unsigned rack =
        config.failureDomains ? i % config.failureDomains : i;
    return 2 + rack % slots;
}

/**
 * Register the protocol counters every design keeps — failover, EC,
 * replica bytes and the read cache — read through @p server's interface,
 * so a multi-card host reports the sums over its cards.
 */
void
addProtocolProbes(const middletier::MiddleTierServer &server,
                  middletier::UsageProbes &probes)
{
    using middletier::FailoverStats;
    using middletier::HotBlockCache;
    const auto counter = [&server](std::uint64_t FailoverStats::*field) {
        return [&server, field]() {
            return static_cast<double>(server.failoverStats().*field);
        };
    };
    probes.add("failover.timeouts", counter(&FailoverStats::replicaTimeouts));
    probes.add("failover.retries", counter(&FailoverStats::replicaRetries));
    probes.add("failover.replacements",
               counter(&FailoverStats::replicaReplacements));
    probes.add("failover.abandoned",
               counter(&FailoverStats::replicasAbandoned));
    probes.add("failover.suspected", counter(&FailoverStats::nodesSuspected));
    probes.add("failover.quorum_completions",
               counter(&FailoverStats::quorumCompletions));
    probes.add("failover.corruptions",
               counter(&FailoverStats::corruptionsDetected));
    probes.add("failover.read_failovers",
               counter(&FailoverStats::readFailovers));
    probes.add("ec.stripes_encoded", counter(&FailoverStats::stripesEncoded));
    probes.add("ec.degraded_reads", counter(&FailoverStats::degradedReads));
    probes.add("replica.bytes_sent",
               counter(&FailoverStats::replicaBytesSent));
    const auto cache = [&server](std::uint64_t HotBlockCache::Stats::*field) {
        return [&server, field]() {
            return static_cast<double>(server.readCacheStats().*field);
        };
    };
    probes.add("cache.hits", cache(&HotBlockCache::Stats::hits));
    probes.add("cache.misses", cache(&HotBlockCache::Stats::misses));
    probes.add("cache.hit_bytes", cache(&HotBlockCache::Stats::hitBytes));
    probes.add("cache.evictions", cache(&HotBlockCache::Stats::evictions));
    probes.add("cache.invalidations",
               cache(&HotBlockCache::Stats::invalidations));
}

} // namespace

ExperimentResult
runWriteExperiment(const ExperimentConfig &config)
{
    const bool ec = config.replicationPolicy ==
                    middletier::ReplicationPolicy::ErasureCode;

    // Storage-pool size is needed up front: the auto timing-domain
    // partition is derived from the topology.
    unsigned n_storage = config.storageServers;
    if (n_storage == 0)
        n_storage = std::max<unsigned>(6, 6 * config.ports * config.cards);
    if (ec)
        n_storage = std::max(n_storage,
                             config.ecDataShards + config.ecParityShards);
    SMARTDS_CHECK(config.failureDomains <= n_storage,
                  "%u failure domains over %u storage nodes would leave "
                  "racks empty",
                  config.failureDomains, n_storage);

    // --- Simulation kernel ------------------------------------------------
    // One timing domain is the legacy serial kernel (ClusterSim
    // delegates straight to its single Simulator, bit-identically);
    // more partition the run into conservatively-synchronized shards
    // whose lookahead is the fabric's one-way delay.
    const unsigned n_domains = resolveTimingDomains(config, n_storage);
    sim::ClusterSim cluster(n_domains, calibration::networkOneWayDelay);
    cluster.setShards(std::max(1u, config.shards));
    sim::Simulator &sim = cluster.domain(0);
    if (config.dsan) {
        cluster.enableStateHash(true);
        cluster.enableDsanWindows();
    }
    net::Fabric fabric(cluster);
    mem::MemorySystem memory(sim, "host-mem", {});

    // Tracer + metrics are owned by this run and discovered through the
    // fabric; when traceSample is 0 no tracer is attached and the whole
    // datapath instrumentation reduces to one null-pointer check. One
    // instance per timing domain, so recording never crosses a shard;
    // domain 0's pair doubles as the post-run merge target.
    std::vector<std::unique_ptr<trace::Tracer>> tracers;
    std::vector<std::unique_ptr<trace::MetricsRegistry>> registries;
    if (config.traceSample > 0) {
        trace::Tracer::Config tc;
        tc.sampleEvery = config.traceSample;
        tc.keepEvents = config.traceEvents;
        for (unsigned d = 0; d < n_domains; ++d) {
            tracers.push_back(std::make_unique<trace::Tracer>(tc));
            registries.push_back(
                std::make_unique<trace::MetricsRegistry>());
            fabric.setDomainTracer(d, tracers.back().get());
            fabric.setDomainMetrics(d, registries.back().get());
        }
    }
    trace::Tracer *const tracer = tracers.empty() ? nullptr
                                                  : tracers.front().get();

    const corpus::RatioSampler &ratios =
        cachedRatios(config.effort, config.blockBytes);

    // Functional mode: real corpus bytes flow end to end; the codec
    // cache (on by default, `blockCache = false` to force the real codec
    // per request) only changes wall-clock cost, never results.
    const corpus::BlockCodecCache *block_cache = nullptr;
    if (config.functional && config.blockCache) {
        block_cache = &corpus::sharedBlockCache(
            functionalCorpus(), config.blockBytes, config.effort);
    }

    // --- Storage pool ----------------------------------------------------
    storage::StorageServer::Config storage_config;
    storage_config.functionalStore = config.functional;
    std::vector<std::unique_ptr<storage::StorageServer>> storage_pool;
    std::vector<net::NodeId> storage_nodes;
    for (unsigned i = 0; i < n_storage; ++i) {
        // Constructed under the node's own timing domain, so its port
        // (and every event it will ever schedule) lives in that shard.
        const sim::DomainScope scope(storageDomain(config, i, n_domains));
        storage_pool.push_back(std::make_unique<storage::StorageServer>(
            fabric, "storage" + std::to_string(i), storage_config));
        storage_nodes.push_back(storage_pool.back()->nodeId());
    }

    // --- Fault injection over the pool ------------------------------------
    std::unique_ptr<faults::FaultInjector> injector;
    if (config.faultsEnabled()) {
        injector = std::make_unique<faults::FaultInjector>(sim,
                                                           config.faultSeed);
        if (n_domains > 1) {
            // Route each node's fault events to its own shard (and the
            // churn loop's transitions through the cluster channels).
            std::map<net::NodeId, unsigned> node_domains;
            for (unsigned i = 0; i < n_storage; ++i)
                node_domains[storage_nodes[i]] =
                    storageDomain(config, i, n_domains);
            injector->attachCluster(cluster, std::move(node_domains));
        }
        for (unsigned i = 0; i < n_storage; ++i) {
            auto *profile = injector->profile(storage_nodes[i]);
            profile->setAckDropProbability(config.ackDropProbability);
            profile->setCorruptProbability(config.corruptProbability);
            storage_pool[i]->attachFaults(profile);
        }
        if (config.crashMeanInterval > 0)
            injector->startCrashChurn(storage_nodes,
                                      config.crashMeanInterval,
                                      config.crashOutage);
        if (config.domainCrashAt > 0) {
            // One rack loses power: group the pool by failure domain
            // (each node its own domain when no topology is configured).
            const unsigned n_racks =
                config.failureDomains ? config.failureDomains : n_storage;
            std::vector<std::vector<net::NodeId>> racks(n_racks);
            for (unsigned i = 0; i < n_storage; ++i)
                racks[i % n_racks].push_back(storage_nodes[i]);
            injector->scheduleDomainCrash(racks, config.domainCrashAt,
                                          config.domainCrashOutage);
        }
    }

    // --- Middle-tier server ----------------------------------------------
    // Node i's rack (no topology: empty, one rack for the whole pool).
    std::vector<unsigned> storage_racks;
    if (config.failureDomains > 0)
        for (unsigned i = 0; i < n_storage; ++i)
            storage_racks.push_back(i % config.failureDomains);

    // Replicated writes go through the Section 2.1 chunk manager (sticky
    // per-chunk replica sets, compaction bookkeeping). EC stripes are
    // placed per request, so it does not apply to them.
    std::unique_ptr<middletier::ChunkManager> chunk_manager;
    if (!ec) {
        middletier::ChunkManager::Config cm;
        cm.replication = config.replication;
        cm.compactionThreshold = config.compactionThreshold;
        cm.seed = config.seed * 31 + 5;
        chunk_manager = std::make_unique<middletier::ChunkManager>(
            cm, storage_nodes, storage_racks);
    }

    middletier::ServerConfig server_config;
    server_config.cores = config.cores;
    server_config.storageNodes = storage_nodes;
    server_config.replication = config.replication;
    server_config.effort = config.effort;
    server_config.seed = config.seed;
    server_config.chunkManager = chunk_manager.get();
    server_config.policy = config.replicationPolicy;
    server_config.ec.dataShards = config.ecDataShards;
    server_config.ec.parityShards = config.ecParityShards;
    server_config.storageDomains = storage_racks;
    server_config.failover.ackQuorum = config.ackQuorum;
    server_config.failover.ackTimeout = config.replicaAckTimeout;
    server_config.failover.ackTimeoutCap =
        std::max(calibration::replicaAckTimeoutCap,
                 config.replicaAckTimeout * 8);
    server_config.failover.maxRetries = config.replicaMaxRetries;
    server_config.blockCache = block_cache;
    server_config.readCache.capacityBytes = config.readCacheBytes;
    server_config.readCache.placement = config.readCachePlacement;

    std::unique_ptr<middletier::MiddleTierServer> server;
    switch (config.design) {
      case middletier::Design::CpuOnly:
        server = std::make_unique<middletier::CpuOnlyServer>(fabric, memory,
                                                             server_config);
        break;
      case middletier::Design::Accelerator:
        server = std::make_unique<middletier::AcceleratorServer>(
            fabric, memory, server_config, config.ddio);
        break;
      case middletier::Design::Bf2:
        server = std::make_unique<middletier::Bf2Server>(
            fabric, server_config,
            std::max(1u, std::min(config.ports, calibration::bf2Ports)));
        break;
      case middletier::Design::SmartDs: {
        middletier::SmartDsServer::SmartDsConfig sd;
        sd.ports = config.ports;
        sd.workersPerPort = config.workersPerPort;
        sd.maxBlockBytes = config.blockBytes;
        sd.device.functional = config.functional;
        sd.device.blockCache = block_cache;
        if (config.cards > 1) {
            middletier::MultiCardSmartDsServer::MultiCardConfig multi;
            multi.cards = config.cards;
            multi.card = sd;
            server = std::make_unique<middletier::MultiCardSmartDsServer>(
                fabric, memory, server_config, multi);
        } else {
            server = std::make_unique<middletier::SmartDsServer>(
                fabric, memory, server_config, sd);
        }
        break;
      }
    }

    // --- Co-located maintenance services (Section 2.2.3) -----------------
    std::unique_ptr<host::CorePool> maintenance_pool;
    std::unique_ptr<middletier::MaintenanceService> maintenance;
    if (config.maintenance != ExperimentConfig::Maintenance::Off) {
        // LSM compaction bursts: 8 cores, 8 MiB every ~2 ms (the
        // figures ext_maintenance's banner prints).
        middletier::MaintenanceService::Config mc;
        mc.cores = 8;
        mc.burstBytes = 8u << 20;
        mc.meanInterval = 2 * ticksPerMillisecond;
        mc.seed = config.seed + 17;
        // Shared cores: maintenance contends with the serving path.
        host::CorePool *pool =
            config.maintenance == ExperimentConfig::Maintenance::SharedCores
                ? server->servingCores()
                : nullptr;
        if (!pool) {
            maintenance_pool = std::make_unique<host::CorePool>(
                sim, "maintenance.cores", mc.cores);
            pool = maintenance_pool.get();
        }
        maintenance = std::make_unique<middletier::MaintenanceService>(
            sim, "maintenance", *pool, memory, mc);
    } else if (config.faultsEnabled()) {
        // Faults need the background repair queue even when compaction is
        // off: a service with no burst loop, used only for repairs.
        middletier::MaintenanceService::Config mc;
        mc.cores = 2;
        mc.seed = config.seed + 17;
        maintenance_pool = std::make_unique<host::CorePool>(
            sim, "maintenance.cores", mc.cores);
        maintenance = std::make_unique<middletier::MaintenanceService>(
            sim, "maintenance", *maintenance_pool, memory, mc);
        maintenance->stop();
    }
    if (maintenance) {
        if (tracer)
            maintenance->setTracer(tracer);
        server->setMaintenanceService(maintenance.get());
    }

    // --- MLC pressure injector --------------------------------------------
    std::unique_ptr<mem::MlcInjector> mlc;
    if (config.mlcDelayCycles != mem::MlcInjector::offDelay) {
        mem::MlcInjector::Config mlc_config;
        mlc_config.cores = config.mlcCores;
        mlc = std::make_unique<mem::MlcInjector>(memory, mlc_config);
        mlc->setDelayCycles(config.mlcDelayCycles);
    }

    // --- Clients ------------------------------------------------------------
    ClientMetrics metrics;
    std::uint64_t tag_counter = 1;
    unsigned n_clients = config.clients ? config.clients
                                        : autoClients(config);
    std::vector<std::unique_ptr<VmClient>> clients;
    // All clients share the tag counter and metrics block, so they must
    // live in one timing domain: domain 1 when the partition has a
    // dedicated client domain, the middle tier's otherwise.
    const sim::DomainScope client_scope(n_domains >= 3 ? 1u : 0u);
    for (unsigned i = 0; i < n_clients; ++i) {
        VmClient::Config cc;
        const unsigned port = i % server->frontPorts();
        cc.target = server->frontNode(port);
        cc.targetQp = server->frontQp(port);
        cc.outstanding = config.outstandingPerClient;
        cc.blockBytes = config.blockBytes;
        cc.ratios = &ratios;
        if (config.functional) {
            cc.corpus = &functionalCorpus();
            cc.blockCache = block_cache;
        }
        cc.effort = config.effort;
        cc.latencySensitiveFraction = config.latencySensitiveFraction;
        cc.readFraction = config.readFraction;
        cc.virtualDiskBytes = config.virtualDiskBytes;
        cc.zipfTheta = config.zipfTheta;
        cc.seed = config.seed * 7919 + i;
        cc.tagCounter = &tag_counter;
        cc.metrics = &metrics;
        clients.push_back(std::make_unique<VmClient>(
            fabric, "vm" + std::to_string(i), cc));
    }

    // --- Run: warmup, snapshot, window, collect -----------------------------
    middletier::UsageProbes probes;
    server->addUsageProbes(probes);
    addProtocolProbes(*server, probes);

    cluster.runUntil(config.warmup);
    metrics.latency.reset();
    for (auto &t : tracers)
        t->reset(); // only the measured window feeds the breakdown
    metrics.served.open(sim.now());
    std::vector<double> usage_start;
    usage_start.reserve(probes.probes.size());
    for (const auto &p : probes.probes)
        usage_start.push_back(p.cumulativeBytes());
    const double mlc_start = mlc ? mlc->deliveredBytes() : 0.0;

    cluster.runUntil(config.warmup + config.window);
    metrics.served.close(sim.now());

    ExperimentResult result;
    result.throughputGbps = metrics.served.rateGbps();
    result.requestsCompleted = metrics.latency.count();
    result.avgLatencyUs = metrics.latency.avgUs();
    result.p50LatencyUs = metrics.latency.p50Us();
    result.p99LatencyUs = metrics.latency.p99Us();
    result.p999LatencyUs = metrics.latency.p999Us();
    result.meanCompressionRatio = ratios.mean();

    const double window_s = toSeconds(config.window);
    for (std::size_t i = 0; i < probes.probes.size(); ++i) {
        const double delta = probes.probes[i].cumulativeBytes() -
                             usage_start[i];
        result.usageGbps[probes.probes[i].name] =
            toGbps(delta / window_s);
    }
    if (mlc) {
        result.mlcGBps =
            (mlc->deliveredBytes() - mlc_start) / window_s / 1e9;
    }
    if (chunk_manager) {
        result.chunksTracked = chunk_manager->chunksTracked();
        result.compactionsDue = chunk_manager->compactionsDue();
    }
    result.failover = server->failoverStats();
    result.cache = server->readCacheStats();
    for (const auto &s : storage_pool) {
        result.storageBlocksStored += s->blocksStored();
        result.storageBytesStored += s->bytesStored();
    }
    if (maintenance) {
        result.repairsCompleted = maintenance->repairsCompleted();
        result.repairsDeduped = maintenance->repairsDeduped();
        result.reconstructionsCompleted =
            maintenance->reconstructionsCompleted();
        if (result.reconstructionsCompleted > 0) {
            // simlint: allow(tick-float): post-run reporting only
            result.avgReconstructionUs =
                static_cast<double>(maintenance->reconstructionTicks()) /
                static_cast<double>(result.reconstructionsCompleted) /
                static_cast<double>(ticksPerMicrosecond);
        }
    }
    if (injector) {
        result.crashesInjected = injector->crashesInjected();
        for (const net::NodeId node : storage_nodes) {
            result.acksDropped += injector->profile(node)->acksDropped();
            result.blocksCorrupted +=
                injector->profile(node)->blocksCorrupted();
        }
        injector->stop();
    }

    if (tracer) {
        // Fold the other domains' recordings into domain 0's pair, in
        // domain order — a deterministic reduction, so the merged
        // breakdown/spans/metrics are byte-stable across shard counts.
        for (unsigned d = 1; d < n_domains; ++d) {
            tracer->mergeFrom(*tracers[d]);
            registries.front()->mergeFrom(*registries[d]);
        }
        result.stages = tracer->breakdown();
        if (config.traceEvents)
            result.spans = tracer->takeSpans();
        result.metrics = registries.front()->rows();
        // Detach before teardown: clients/server die after the tracer.
        fabric.setTracer(nullptr);
        fabric.setMetrics(nullptr);
    }

    result.stateHash = sim.stateHashEnabled() ? cluster.stateHash() : 0;
    if (config.dsan)
        result.dsanWindows = cluster.takeDsanWindows();

    result.timingDomains = n_domains;
    result.eventsExecuted = cluster.eventsExecuted();
    result.domainEvents.reserve(n_domains);
    for (unsigned d = 0; d < n_domains; ++d)
        result.domainEvents.push_back(cluster.domainEventsExecuted(d));
    result.crossChannelEvents = cluster.crossEventsPosted();
    result.tagEvents = cluster.tagEventsExecuted();
    result.pdesRounds = cluster.roundsExecuted();
    result.pdesDomainsEntered = cluster.domainsEntered();

    // Stop the clients so the event queue can drain promptly.
    for (auto &c : clients)
        c->stop();
    return result;
}

} // namespace smartds::workload
