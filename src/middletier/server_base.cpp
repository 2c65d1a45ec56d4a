#include "middletier/server_base.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/checksum.h"
#include "common/logging.h"
#include "ec/reed_solomon.h"
#include "middletier/maintenance.h"

namespace smartds::middletier {

const char *
designName(Design d)
{
    switch (d) {
      case Design::CpuOnly:
        return "CPU-only";
      case Design::Accelerator:
        return "Acc";
      case Design::Bf2:
        return "BF2";
      case Design::SmartDs:
        return "SmartDS";
    }
    panic("unknown design");
}

FailoverStats &
FailoverStats::operator+=(const FailoverStats &o)
{
    replicaTimeouts += o.replicaTimeouts;
    replicaRetries += o.replicaRetries;
    replicaReplacements += o.replicaReplacements;
    replicasAbandoned += o.replicasAbandoned;
    staleAcks += o.staleAcks;
    nodesSuspected += o.nodesSuspected;
    quorumCompletions += o.quorumCompletions;
    repairsScheduled += o.repairsScheduled;
    corruptionsDetected += o.corruptionsDetected;
    readFailovers += o.readFailovers;
    readsUnserved += o.readsUnserved;
    stripesEncoded += o.stripesEncoded;
    degradedReads += o.degradedReads;
    replicaBytesSent += o.replicaBytesSent;
    return *this;
}

void
MiddleTierServer::placeWrite(const ServerConfig &config,
                             const net::Message &msg, Rng &rng,
                             WriteFanout &f)
{
    // EC stripes are placed per request: the chunk manager's sticky
    // whole-chunk replica sets do not apply to shard placement.
    f.chunked = config.chunkManager &&
                config.policy == ReplicationPolicy::Replicate;
    if (!f.chunked) {
        f.chunk = {};
        const std::span<const net::NodeId> picked =
            placement_.draw(rng, &health_, config.writeFanout());
        f.nodes.assign(picked.begin(), picked.end());
        return;
    }
    f.chunk = config.chunkManager->locate(msg.vmId, msg.blockOffset);
    const ReplicaSet &set =
        config.chunkManager->writeReplicas(f.chunk, &health_);
    f.nodes.assign(set.begin(), set.end());
}

MiddleTierServer::WriteFanout &
MiddleTierServer::openFanout(sim::Simulator &sim, const ServerConfig &config,
                             const net::Message &msg, Rng &rng,
                             unsigned owner)
{
    if (freeFanouts_.empty()) {
        fanouts_.push_back(std::make_unique<WriteFanout>());
        freeFanouts_.push_back(fanouts_.back().get());
    }
    WriteFanout &f = *freeFanouts_.back();
    freeFanouts_.pop_back();
    placeWrite(config, msg, rng, f);
    const unsigned n = static_cast<unsigned>(f.nodes.size());
    f.quorum.emplace(sim, writeQuorum(config, n));
    f.all.emplace(sim, n);
    f.owner = owner;
    f.holders = 1 + n;
    return f;
}

void
MiddleTierServer::releaseFanout(WriteFanout &f)
{
    SMARTDS_CHECK(f.holders > 0, "fan-out record released too often");
    if (--f.holders > 0)
        return;
    // Keep the vectors' capacity for the next write; drop the payloads.
    f.messages.clear();
    f.quorum.reset();
    f.all.reset();
    freeFanouts_.push_back(&f);
}

void
MiddleTierServer::sendReplica(const ReplicaTask &, net::NodeId, bool)
{
    panic("%s server sends no replicas", designName(design()));
}

sim::EventCallback
MiddleTierServer::repairSend(const ReplicaTask &, net::NodeId)
{
    return nullptr;
}

std::span<const net::NodeId>
MiddleTierServer::readCandidates(const ServerConfig &config,
                                 const net::Message &msg, ReplicaSet &set)
{
    if (!config.chunkManager)
        return config.storageNodes;
    const ChunkRef chunk =
        config.chunkManager->locate(msg.vmId, msg.blockOffset);
    set = config.chunkManager->replicas(chunk, &health_);
    return {set.begin(), set.end()};
}

sim::Completion
MiddleTierServer::expectAck(sim::Simulator &sim, std::uint64_t tag,
                            net::NodeId node, Tick timeout)
{
    sim::Completion ack(sim);
    const AckKey key{tag, node};
    const auto [entry, fresh] =
        pendingAcks_.tryEmplace(key, AckEntry{ack, {}});
    SMARTDS_CHECK(fresh, "duplicate ack expectation for tag %llu",
                   static_cast<unsigned long long>(tag));
    if (timeout > 0) {
        // The timer completes the same completion the waiter holds, so a
        // lost ack needs no watcher coroutine and cannot leak one.
        entry->timer = sim.schedule(
            timeout,
            [this, key]() {
                AckEntry *pending = pendingAcks_.find(key);
                if (!pending)
                    return;
                sim::Completion waiter = pending->completion;
                pendingAcks_.erase(key);
                ++failover_.replicaTimeouts;
                waiter.complete(0);
            },
            sim::EventTag::Nic);
    }
    return ack;
}

void
MiddleTierServer::deliverAck(std::uint64_t tag, net::NodeId node)
{
    const AckKey key{tag, node};
    AckEntry *pending = pendingAcks_.find(key);
    if (!pending) {
        // Late ack from a retired wait (the replica was retried or the
        // block repaired in the background). Expected under failover.
        ++failover_.staleAcks;
        return;
    }
    sim::Completion waiter = pending->completion;
    pending->timer.cancel();
    pendingAcks_.erase(key);
    waiter.complete(1);
}

sim::Completion
MiddleTierServer::expectFetch(sim::Simulator &sim, std::uint64_t tag,
                              Tick timeout)
{
    sim::Completion fetched(sim);
    const auto [entry, fresh] =
        pendingFetches_.tryEmplace(tag, FetchEntry{fetched, {}});
    SMARTDS_CHECK(fresh, "duplicate pending fetch for tag %llu",
                  static_cast<unsigned long long>(tag));
    if (timeout > 0) {
        // Holding the timer per-entry (and cancelling it on delivery)
        // is load-bearing: with a bare schedule(), a timer armed for an
        // earlier probe of the same tag would fire into a later probe's
        // wait and fail it spuriously.
        entry->timer = sim.schedule(
            timeout,
            [this, tag]() {
                FetchEntry *pending = pendingFetches_.find(tag);
                if (!pending)
                    return;
                sim::Completion waiter = pending->completion;
                pendingFetches_.erase(tag);
                waiter.complete(0);
            },
            sim::EventTag::Nic);
    }
    return fetched;
}

void
MiddleTierServer::deliverFetch(net::Message &&msg)
{
    FetchEntry *pending = pendingFetches_.find(msg.tag);
    if (!pending) {
        // The fetch timed out and moved on; late data is dropped.
        ++failover_.staleAcks;
        return;
    }
    sim::Completion done = pending->completion;
    pending->timer.cancel();
    pendingFetches_.erase(msg.tag);
    const std::uint64_t tag = msg.tag;
    fetchReplies_[tag] = std::move(msg);
    done.complete(1);
}

net::Message
MiddleTierServer::takeFetchReply(std::uint64_t tag)
{
    net::Message *stashed = fetchReplies_.find(tag);
    SMARTDS_CHECK(stashed, "lost fetch reply");
    net::Message reply = std::move(*stashed);
    fetchReplies_.erase(tag);
    return reply;
}

net::NodeId
MiddleTierServer::moveReplica(const ServerConfig &config, Rng &rng,
                              const ReplicaTask &task, net::NodeId bad)
{
    WriteFanout &f = *task.fanout;
    const std::span<const net::NodeId> spare =
        placement_.draw(rng, &health_, 1, f.nodes);
    if (spare.empty())
        return bad;
    f.nodes[task.slot] = spare[0];
    if (f.chunked)
        config.chunkManager->replaceReplica(f.chunk, bad, spare[0]);
    return spare[0];
}

sim::Process
MiddleTierServer::replicateWithFailover(sim::Simulator &sim, Rng &rng,
                                        const ServerConfig &config,
                                        ReplicaTask task)
{
    WriteFanout &f = *task.fanout;
    Tick timeout = config.failover.ackTimeout;
    net::NodeId target = task.target;
    bool durable = false;
    bool first = task.slot == 0;
    for (unsigned attempt = 0;; ++attempt) {
        sim::Completion ack = expectAck(sim, task.tag, target, timeout);
        sendReplica(task, target, std::exchange(first, false));
        failover_.replicaBytesSent += task.blockBytes;
        if (co_await ack != 0) {
            health_.noteAck(target);
            durable = true;
            break;
        }
        if (health_.noteTimeout(target))
            ++failover_.nodesSuspected;
        if (attempt >= config.failover.maxRetries)
            break;
        ++failover_.replicaRetries;
        // First retry stays on the same node (a single timeout is often
        // transient); repeat offenders — or nodes already suspected —
        // get the replica moved to a healthy peer.
        if (attempt > 0 || health_.suspected(target)) {
            const net::NodeId next = moveReplica(config, rng, task, target);
            if (next != target) {
                ++failover_.replicaReplacements;
                target = next;
            }
        }
        timeout = std::min(timeout * 2, config.failover.ackTimeoutCap);
    }
    if (!durable) {
        ++failover_.replicasAbandoned;
        // The block is about to be rewritten by a background repair /
        // reconstruction; the cached copy must not outlive it.
        cacheInvalidate(task.vmId, task.blockOffset);
        if (maintenance_) {
            // Move the replica off the failing node for good and hand the
            // resend to the background repair queue; the serving path
            // stops waiting on it.
            const net::NodeId repair_target =
                moveReplica(config, rng, task, target);
            // An abandoned EC shard is reconstructed from k surviving
            // shards; a whole-block replica is simply re-read and
            // re-sent. Keyed by (tag, slot) so a flapping node cannot
            // enqueue the same shard twice.
            const unsigned fan_in = task.ec ? config.ec.dataShards : 1;
            if (sim::EventCallback resend = repairSend(task, repair_target);
                resend &&
                maintenance_->scheduleRepair({task.tag, task.slot},
                                             task.blockBytes, fan_in,
                                             std::move(resend)))
                ++failover_.repairsScheduled;
        }
    }
    if (task.ec)
        ecLedgerArrive(task.tag, task.slot);
    f.quorum->tryArrive();
    f.all->arrive();
    releaseFanout(f);
}

const ec::RsCodec &
MiddleTierServer::ecCodec(const ServerConfig &config)
{
    if (!codec_)
        codec_ = std::make_unique<ec::RsCodec>(config.ec.dataShards,
                                               config.ec.parityShards);
    SMARTDS_CHECK(codec_->k() == config.ec.dataShards &&
                      codec_->m() == config.ec.parityShards,
                  "EC geometry changed mid-run: RS(%u, %u) vs RS(%u, %u)",
                  codec_->k(), codec_->m(), config.ec.dataShards,
                  config.ec.parityShards);
    return *codec_;
}

std::vector<net::Payload>
MiddleTierServer::encodeShards(const ServerConfig &config, std::uint64_t tag,
                               const net::Payload &block)
{
    const ec::RsCodec &codec = ecCodec(config);
    const unsigned n = codec.n();
    const Bytes shard_bytes = ec::RsCodec::shardSize(block.size, codec.k());
    std::vector<std::vector<std::uint8_t>> encoded;
    if (block.data)
        encoded = codec.encode(block.data->data(), block.data->size());
    std::vector<net::Payload> shards(n);
    for (unsigned s = 0; s < n; ++s) {
        net::Payload &p = shards[s];
        p.size = shard_bytes;
        p.compressibility = block.compressibility;
        p.compressed = block.compressed;
        p.originalSize = block.originalSize;
        p.ecK = static_cast<std::uint8_t>(codec.k());
        p.ecM = static_cast<std::uint8_t>(codec.m());
        p.ecShard = static_cast<std::uint8_t>(s);
        p.ecStripeBytes = block.size;
        if (!encoded.empty()) {
            auto bytes = std::make_shared<std::vector<std::uint8_t>>(
                std::move(encoded[s]));
            p.ecShardChecksum = xxhash32(*bytes);
            p.data = std::move(bytes);
        }
    }
    openStripe(tag, n);
    return shards;
}

void
MiddleTierServer::addFailoverProbes(UsageProbes &probes)
{
    const auto counter = [this](std::uint64_t FailoverStats::*field) {
        return [this, field]() {
            return static_cast<double>(failoverStats().*field);
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
    const auto cache = [this](std::uint64_t HotBlockCache::Stats::*field) {
        return [this, field]() {
            return static_cast<double>(readCacheStats().*field);
        };
    };
    probes.add("cache.hits", cache(&HotBlockCache::Stats::hits));
    probes.add("cache.misses", cache(&HotBlockCache::Stats::misses));
    probes.add("cache.hit_bytes", cache(&HotBlockCache::Stats::hitBytes));
    probes.add("cache.evictions", cache(&HotBlockCache::Stats::evictions));
    probes.add("cache.invalidations",
               cache(&HotBlockCache::Stats::invalidations));
}

} // namespace smartds::middletier
