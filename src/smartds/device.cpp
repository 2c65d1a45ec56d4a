#include "smartds/device.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/checksum.h"
#include "common/check.h"
#include "common/logging.h"
#include "corpus/block_cache.h"
#include "ec/reed_solomon.h"
#include "lz4/lz4.h"

namespace smartds::device {

SmartDsDevice::SmartDsDevice(net::Fabric &fabric, const std::string &name,
                             mem::MemorySystem *host_memory, Config config)
    : fabric_(fabric), sim_(fabric.simulator()), name_(name),
      config_(config), hostMemory_(host_memory),
      hbm_(sim_, name, config.hbmCapacity, config.functional),
      pcie_(sim_, name + ".pcie"),
      // SmartDS crosses PCIe only with 64-byte headers and descriptors;
      // the engine's default byte windows (128 KiB read, 64 KiB write)
      // let six ports' header DMAs pipeline freely.
      dma_(sim_, name + ".dma", host_memory,
           [this, &config] {
               std::vector<sim::BandwidthServer *> path{&pcie_.h2d()};
               path.insert(path.end(), config.h2dTail.begin(),
                           config.h2dTail.end());
               return path;
           }(),
           [this, &config] {
               std::vector<sim::BandwidthServer *> path{&pcie_.d2h()};
               path.insert(path.end(), config.d2hTail.begin(),
                           config.d2hTail.end());
               return path;
           }())
{
    SMARTDS_CHECK(config.ports >= 1 &&
                       config.ports <= calibration::smartdsMaxPorts,
                   "SmartDS supports 1..%u ports, got %u",
                   calibration::smartdsMaxPorts, config.ports);
    if (hostMemory_) {
        hdrWrite_ = hostMemory_->createFlow(name + ".hdr-write");
        hdrRead_ = hostMemory_->createFlow(name + ".hdr-read");
    }
    for (unsigned i = 0; i < config.ports; ++i) {
        auto state = std::make_unique<PortState>();
        const std::string pname = name + ".p" + std::to_string(i);
        state->port = fabric.createPort(pname);
        state->compressEngine = std::make_unique<sim::BandwidthServer>(
            sim_, pname + ".comp", config.engineRate, config.engineLatency);
        state->decompressEngine = std::make_unique<sim::BandwidthServer>(
            sim_, pname + ".decomp", config.engineRate,
            config.engineLatency);
        if (config.ecEngine)
            state->ecEngine = std::make_unique<sim::BandwidthServer>(
                sim_, pname + ".ec", calibration::smartdsEcEnginePerPort,
                calibration::smartdsEcEngineLatency);
        state->qps.emplace_back(); // QpId 0 is never handed out
        state->splitWrite = hbm_.createFlow(pname + ".split-w");
        state->assembleRead = hbm_.createFlow(pname + ".assemble-r");
        state->engineRead = hbm_.createFlow(pname + ".engine-r");
        state->engineWrite = hbm_.createFlow(pname + ".engine-w");
        state->port->onReceive([this, i](net::Message &&msg) {
            onPortReceive(i, std::move(msg));
        });
        portStates_.push_back(std::move(state));
    }
}

BufferRef
SmartDsDevice::hostAlloc(Bytes size)
{
    const std::uint64_t addr = nextHostAddr_;
    nextHostAddr_ += size;
    return std::make_shared<Buffer>(MemorySpace::Host, addr, size,
                                    config_.functional);
}

BufferRef
SmartDsDevice::devAlloc(Bytes size)
{
    return hbm_.alloc(size);
}

net::NodeId
SmartDsDevice::nodeId(unsigned port) const
{
    SMARTDS_CHECK(port < portStates_.size(), "port index out of range");
    return portStates_[port]->port->id();
}

SmartDsDevice::Qp
SmartDsDevice::createQp(unsigned port)
{
    SMARTDS_CHECK(port < portStates_.size(), "port index out of range");
    auto &qps = portStates_[port]->qps;
    Qp qp;
    qp.port = port;
    qp.local = static_cast<net::QpId>(qps.size());
    qps.emplace_back();
    return qp;
}

void
SmartDsDevice::connect(Qp &qp, net::NodeId remote_node, net::QpId remote_qp)
{
    qp.remoteNode = remote_node;
    qp.remoteQp = remote_qp;
}

SmartDsDevice::QpState &
SmartDsDevice::qpState(unsigned port, net::QpId qp)
{
    SMARTDS_CHECK(port < portStates_.size(), "bad qp port");
    auto &qps = portStates_[port]->qps;
    SMARTDS_CHECK(qp > 0 && qp < qps.size(),
                  "%s port %u has no queue pair %u (it created %zu)",
                  name_.c_str(), port, static_cast<unsigned>(qp),
                  qps.size() - 1);
    return qps[qp];
}

void
SmartDsDevice::resetQp(const Qp &qp)
{
    QpState &q = qpState(qp.port, qp.local);
    // Flush-with-error: complete each posted descriptor with 0 and its
    // message still at kind Raw, like an RDMA flush error WQE. Completing
    // only schedules wake-ups, so nothing can post to this QP mid-flush.
    while (!q.recvs.empty())
        q.recvs.pop().event.completion.complete(0);
    while (!q.pending.empty())
        q.pending.pop();
}

net::Port &
SmartDsDevice::port(unsigned i)
{
    SMARTDS_CHECK(i < portStates_.size(), "port index out of range");
    return *portStates_[i]->port;
}

sim::BandwidthServer &
SmartDsDevice::compressEngine(unsigned i)
{
    SMARTDS_CHECK(i < portStates_.size(), "port index out of range");
    return *portStates_[i]->compressEngine;
}

std::size_t
SmartDsDevice::pendingMessages() const
{
    std::size_t n = 0;
    for (const auto &state : portStates_)
        for (const QpState &q : state->qps)
            n += q.pending.size();
    return n;
}

void
SmartDsDevice::onPortReceive(unsigned port_index, net::Message &&msg)
{
    QpState &q = qpState(port_index, msg.dstQp);
    if (q.recvs.empty()) {
        // No descriptor posted yet: the message waits in device memory
        // (the RoCE stack has already landed it in HBM).
        q.pending.push(std::move(msg));
        return;
    }
    performSplit(port_index, q.recvs.pop(), std::move(msg));
}

std::uint32_t
SmartDsDevice::openJoin(unsigned legs, sim::Completion done)
{
    return joins_.park(Join{legs, std::move(done)});
}

void
SmartDsDevice::JoinLeg::operator()(Tick) const
{
    Join &j = device->joins_[join];
    SMARTDS_CHECK(j.legs > 0, "join arrival past zero");
    if (--j.legs == 0)
        device->joins_.take(join).done->complete(0);
}

void
SmartDsDevice::performSplit(unsigned port_index, RecvDescriptor desc,
                            net::Message &&msg)
{
    const Bytes total = msg.wireBytes();
    const Bytes host_part = std::min(desc.hSize, total);
    const Bytes dev_part = total - host_part;
    SMARTDS_CHECK(dev_part <= desc.dSize,
                   "split overflow: %llu payload bytes into %llu-byte "
                   "device buffer",
                   static_cast<unsigned long long>(dev_part),
                   static_cast<unsigned long long>(desc.dSize));

    // Functional data movement: header bytes into the host buffer,
    // payload bytes into the device buffer.
    if (config_.functional) {
        if (desc.h && desc.h->bytes() && msg.headerData) {
            const Bytes n = std::min<Bytes>(msg.headerData->size(),
                                            desc.h->capacity());
            if (n > 0)
                std::memcpy(desc.h->bytes()->data(),
                            msg.headerData->data(), n);
            desc.h->content.size = n;
        }
        if (desc.d && desc.d->bytes() && msg.payload.data) {
            const Bytes n = std::min<Bytes>(msg.payload.data->size(),
                                            desc.d->capacity());
            if (n > 0)
                std::memcpy(desc.d->bytes()->data(),
                            msg.payload.data->data(), n);
        }
    }
    if (desc.d) {
        desc.d->content.size = dev_part;
        desc.d->content.compressed = msg.payload.compressed;
        desc.d->content.originalSize = msg.payload.originalSize;
        desc.d->content.compressibility = msg.payload.compressibility;
        desc.d->content.corrupted = msg.payload.corrupted;
        desc.d->content.blockId = msg.payload.blockId;
        desc.d->content.ecK = msg.payload.ecK;
        desc.d->content.ecM = msg.payload.ecM;
        desc.d->content.ecShard = msg.payload.ecShard;
        desc.d->content.ecShardChecksum = msg.payload.ecShardChecksum;
        desc.d->content.ecStripeBytes = msg.payload.ecStripeBytes;
    }

    // Timing: fixed split latency, then the header DMA to host memory and
    // the payload write into HBM proceed in parallel.
    sim::Completion both_done(sim_);
    const std::uint32_t join = openJoin(2, both_done);
    // The event's message was allocated with the descriptor, so every
    // Event copy the application holds observes the filled-in message.
    const std::uint32_t split_depth = static_cast<std::uint32_t>(
        portStates_[port_index]->qps[msg.dstQp].pending.size());
    *desc.event.message = std::move(msg);
    trace::Tracer *tracer = fabric_.tracer();
    const Tick split_start = sim_.now();
    sim::spawn(sim_, [](sim::Simulator &sim, sim::Completion both_done,
                        Event ev, Bytes dev_part, trace::Tracer *tracer,
                        Tick start, std::uint32_t depth) -> sim::Process {
        co_await both_done;
        if (tracer && ev.message->trace) {
            tracer->record(ev.message->trace, trace::Stage::Split, start,
                           sim.now(), depth);
        }
        ev.completion.complete(dev_part);
    }(sim_, both_done, std::move(desc.event), dev_part, tracer, split_start,
      split_depth));

    sim_.schedule(
        calibration::smartdsSplitLatency,
        [this, port_index, host_part, dev_part, join]() {
            splitLegs(port_index, host_part, dev_part, join);
        },
        sim::EventTag::Device);
}

void
SmartDsDevice::splitLegs(unsigned port_index, Bytes host_part,
                         Bytes dev_part, std::uint32_t join)
{
    pcie::DmaEngine::Options options;
    options.memFlow = config_.headerLlcSteering ? nullptr : hdrWrite_;
    options.stallOnMemory = false;
    dma_.write(host_part, options, JoinLeg{this, join});
    portStates_[port_index]->splitWrite->transfer(dev_part,
                                                  JoinLeg{this, join});
}

SmartDsDevice::Event
SmartDsDevice::mixedRecv(const Qp &qp, BufferRef h, Bytes h_size,
                         BufferRef d, Bytes d_size)
{
    QpState &q = qpState(qp.port, qp.local);
    RecvDescriptor desc{std::move(h), h_size, std::move(d), d_size,
                        Event{sim::Completion(sim_), MessageRef::make()}};
    Event event = desc.event;
    if (!q.pending.empty())
        performSplit(qp.port, std::move(desc), q.pending.pop());
    else
        q.recvs.push(std::move(desc));
    return event;
}

SmartDsDevice::Event
SmartDsDevice::mixedSend(const Qp &qp, BufferRef h, Bytes h_size,
                         BufferRef d, Bytes d_size, net::MessageKind kind,
                         std::uint64_t tag, Tick issue_tick,
                         trace::TraceContext tctx)
{
    SMARTDS_CHECK(qp.port < portStates_.size(), "bad qp port");
    SMARTDS_CHECK(qp.remoteNode != 0, "sending on an unconnected qp");
    auto &state = *portStates_[qp.port];

    net::Message msg;
    msg.dst = qp.remoteNode;
    msg.dstQp = qp.remoteQp;
    msg.srcQp = qp.local;
    msg.kind = kind;
    msg.headerBytes = h_size;
    msg.tag = tag;
    msg.issueTick = issue_tick;
    msg.trace = tctx;
    msg.payload.size = d_size;
    if (d) {
        msg.payload.compressed = d->content.compressed;
        msg.payload.originalSize = d->content.originalSize;
        msg.payload.compressibility = d->content.compressibility;
        msg.payload.corrupted = d->content.corrupted;
        msg.payload.blockId = d->content.blockId;
        msg.payload.ecK = d->content.ecK;
        msg.payload.ecM = d->content.ecM;
        msg.payload.ecShard = d->content.ecShard;
        msg.payload.ecShardChecksum = d->content.ecShardChecksum;
        msg.payload.ecStripeBytes = d->content.ecStripeBytes;
        if (config_.functional && d->bytes()) {
            // Corpus-backed payloads are sent as aliases of the cache's
            // immutable buffer instead of copying out of the (reusable)
            // HBM buffer. The hash guard proves the bytes are identical,
            // so the message is byte-for-byte what the copy would carry.
            const corpus::BlockCodecCache::Entry *cached = nullptr;
            if (config_.blockCache) {
                cached = d->content.compressed
                             ? config_.blockCache->lookupCompressed(
                                   d->content.blockId, d->bytes()->data(),
                                   d_size)
                             : config_.blockCache->lookupPlain(
                                   d->content.blockId, d->bytes()->data(),
                                   d_size);
            }
            if (cached) {
                msg.payload.data =
                    d->content.compressed ? cached->compressed : cached->plain;
            } else {
                msg.payload.data =
                    std::make_shared<const std::vector<std::uint8_t>>(
                        d->bytes()->begin(),
                        d->bytes()->begin() +
                            static_cast<std::ptrdiff_t>(d_size));
            }
        }
    }
    if (config_.functional && h && h->bytes()) {
        msg.headerData = std::make_shared<const std::vector<std::uint8_t>>(
            h->bytes()->begin(),
            h->bytes()->begin() +
                static_cast<std::ptrdiff_t>(std::min(h_size, h->capacity())));
    }

    Event event{sim::Completion(sim_), nullptr};

    // Gather: header DMA read from host and payload read from HBM run in
    // parallel; the assembled message then serialises onto the wire.
    sim::Completion gathered(sim_);
    const std::uint32_t join = openJoin(2, gathered);
    pcie::DmaEngine::Options options;
    options.memFlow = hdrRead_;
    options.stallOnMemory = true;
    dma_.read(h_size, options, JoinLeg{this, join});
    state.assembleRead->transfer(d_size, JoinLeg{this, join});

    auto *port = state.port;
    const Tick assemble_latency = calibration::smartdsSplitLatency;
    trace::Tracer *tracer = tctx ? fabric_.tracer() : nullptr;
    const Tick assemble_start = sim_.now();
    sim::spawn(sim_, [](sim::Simulator &sim, sim::Completion gathered,
                        net::Port *port, net::Message m, Event ev, Tick lat,
                        trace::Tracer *tracer, Tick start) -> sim::Process {
        co_await gathered;
        co_await sim::delay(sim, lat);
        if (tracer)
            tracer->record(m.trace, trace::Stage::Assemble, start,
                           sim.now());
        const Bytes sent = m.wireBytes();
        sim::Completion on_sent(sim);
        port->send(std::move(m),
                   [on_sent]() mutable { on_sent.complete(0); });
        co_await on_sent;
        ev.completion.complete(sent);
    }(sim_, std::move(gathered), port, std::move(msg), event,
      assemble_latency, tracer, assemble_start));
    return event;
}

SmartDsDevice::Event
SmartDsDevice::devFunc(BufferRef src, Bytes src_size, BufferRef dst,
                       Bytes dst_cap, unsigned port, EngineOp op,
                       trace::TraceContext tctx)
{
    SMARTDS_CHECK(port < portStates_.size(), "engine index out of range");
    SMARTDS_CHECK(src && dst, "devFunc needs source and destination");
    auto &state = *portStates_[port];

    // Determine the functional result (and its size) up front; the timing
    // below charges HBM and engine time for it.
    Bytes result_size = 0;
    bool result_compressed = false;
    Bytes result_original = 0;
    bool result_corrupted = src->content.corrupted;
    double compressibility = src->content.compressibility;
    std::vector<std::uint8_t> result_bytes;
    // Cache hit: the result is a shared immutable buffer instead of
    // freshly coded bytes (the writeback below reads from either).
    std::shared_ptr<const std::vector<std::uint8_t>> result_shared;
    const std::uint32_t block_id = src->content.blockId;

    std::uint64_t completion_value = 0;
    if (op == EngineOp::Checksum) {
        // Scrubbing engine: stream the buffer, emit its checksum, write
        // nothing back. Timing mode completes with 0. (No cache lookup:
        // the lookup's own hash guard would cost exactly the checksum.)
        result_size = 0;
        result_compressed = src->content.compressed;
        result_original = src->content.originalSize;
        if (config_.functional && src->bytes()) {
            completion_value =
                xxhash32(src->bytes()->data(), src_size);
        }
    } else if (op == EngineOp::Compress) {
        if (config_.functional && src->bytes()) {
            const corpus::BlockCodecCache::Entry *cached =
                config_.blockCache
                    ? config_.blockCache->lookupPlain(
                          block_id, src->bytes()->data(), src_size)
                    : nullptr;
            if (cached) {
                result_shared = cached->compressed;
                result_size = cached->compressed->size();
                compressibility = cached->ratio;
            } else {
                result_bytes.resize(lz4::maxCompressedSize(src_size));
                const auto n = lz4::compress(src->bytes()->data(), src_size,
                                             result_bytes.data(),
                                             result_bytes.size(),
                                             config_.effort);
                SMARTDS_CHECK(n.has_value(), "engine compression failed");
                result_size = *n;
                compressibility =
                    std::min(1.0, static_cast<double>(*n) /
                                      static_cast<double>(src_size));
            }
        } else {
            result_size = static_cast<Bytes>(
                static_cast<double>(src_size) * compressibility);
            if (result_size == 0)
                result_size = 1;
        }
        result_compressed = true;
        result_original = src_size;
    } else {
        if (config_.functional && src->bytes()) {
            const corpus::BlockCodecCache::Entry *cached =
                config_.blockCache
                    ? config_.blockCache->lookupCompressed(
                          block_id, src->bytes()->data(), src_size)
                    : nullptr;
            if (cached && cached->plain->size() <= dst_cap) {
                // Guarded hit: these bytes decode to exactly the cached
                // plain block. Mutated (bit-flipped) copies hash
                // differently and take the real decoder below, keeping
                // corruption detection intact.
                result_shared = cached->plain;
                result_size = cached->plain->size();
            } else {
                result_bytes.resize(dst_cap);
                const auto n = lz4::decompress(src->bytes()->data(),
                                               src_size, result_bytes.data(),
                                               dst_cap);
                if (n.has_value()) {
                    result_size = *n;
                } else {
                    // A corrupt frame the engine cannot decode: surface
                    // it as detected corruption rather than crashing;
                    // charge timing for the advertised original size.
                    result_size = std::min<Bytes>(
                        dst_cap, src->content.originalSize
                                     ? src->content.originalSize
                                     : src_size);
                    result_bytes.clear();
                    result_corrupted = true;
                }
            }
        } else {
            result_size = src->content.originalSize
                              ? src->content.originalSize
                              : static_cast<Bytes>(
                                    static_cast<double>(src_size) /
                                    std::max(compressibility, 1e-6));
        }
        result_compressed = false;
        result_original = 0;
    }
    SMARTDS_CHECK(result_size <= dst_cap,
                   "engine output %llu exceeds destination capacity %llu",
                   static_cast<unsigned long long>(result_size),
                   static_cast<unsigned long long>(dst_cap));

    Event event{sim::Completion(sim_), nullptr};
    EngineJob job;
    job.engine = op == EngineOp::Decompress ? state.decompressEngine.get()
                                            : state.compressEngine.get();
    job.writeFlow = state.engineWrite;
    job.srcSize = src_size;
    job.dst = std::move(dst);
    // Engine outputs are whole blocks, never RS shards: the ec* fields
    // stay zero, clearing any stale shard identity left in the buffer.
    job.result.size = result_size;
    job.result.compressed = result_compressed;
    job.result.originalSize = result_original;
    job.result.compressibility = compressibility;
    job.result.corrupted = result_corrupted;
    job.result.blockId = block_id;
    job.isChecksum = op == EngineOp::Checksum;
    job.completionValue = completion_value;
    job.resultBytes = std::move(result_bytes);
    job.resultShared = std::move(result_shared);
    job.tracer = tctx ? fabric_.tracer() : nullptr;
    job.tctx = tctx;
    job.start = sim_.now();
    const std::uint32_t parked = engineJobs_.park(std::move(job));

    // Pipeline: HBM read -> engine -> HBM write (nothing written back
    // for the scrubbing engine).
    state.engineRead->transfer(src_size,
                               [this, parked, done = event.completion]() {
                                   engineStage(parked, done);
                               });
    return event;
}

void
SmartDsDevice::engineStage(std::uint32_t job, sim::Completion done)
{
    EngineJob &j = engineJobs_[job];
    j.engine->transfer(j.srcSize, [this, job, done = std::move(done)]() {
        EngineJob &jj = engineJobs_[job];
        jj.writeFlow->transfer(jj.result.size,
                               [this, job, done]() { engineDone(job, done); });
    });
}

void
SmartDsDevice::engineDone(std::uint32_t job, sim::Completion done)
{
    EngineJob j = engineJobs_.take(job);
    if (j.tracer)
        j.tracer->record(j.tctx, trace::Stage::Engine, j.start, sim_.now());
    if (j.isChecksum) {
        done.complete(j.completionValue);
        return;
    }
    const std::uint8_t *result_src =
        j.resultShared ? j.resultShared->data() : j.resultBytes.data();
    if (j.dst->bytes() && (j.resultShared || !j.resultBytes.empty())) {
        const Bytes n = std::min<Bytes>(j.result.size, j.dst->capacity());
        std::memcpy(j.dst->bytes()->data(), result_src, n);
    }
    j.dst->content = j.result;
    done.complete(j.result.size);
}

SmartDsDevice::Event
SmartDsDevice::ecEncode(BufferRef src, Bytes src_size,
                        const std::vector<BufferRef> &shards, unsigned port,
                        unsigned k, unsigned m, trace::TraceContext tctx)
{
    SMARTDS_CHECK(config_.ecEngine, "device built without the EC engine");
    SMARTDS_CHECK(port < portStates_.size(), "engine index out of range");
    SMARTDS_CHECK(src, "ecEncode needs a source buffer");
    SMARTDS_CHECK(shards.size() == static_cast<std::size_t>(k) + m,
                   "ecEncode wants k + m shard buffers, got %zu for "
                   "RS(%u, %u)",
                   shards.size(), k, m);
    const Bytes shard_bytes = ec::RsCodec::shardSize(src_size, k);
    for (const auto &shard : shards)
        SMARTDS_CHECK(shard && shard->capacity() >= shard_bytes,
                       "EC shard buffer smaller than the shard");

    // Functional encode up front; the pipeline below charges time for it
    // and writes the results back when the HBM write lands.
    std::vector<std::vector<std::uint8_t>> encoded;
    if (config_.functional && src->bytes()) {
        ec::RsCodec codec(k, m);
        encoded = codec.encode(src->bytes()->data(), src_size);
    }

    Event event{sim::Completion(sim_), nullptr};
    EcJob job;
    job.port = port;
    job.engineBytes = src_size;
    job.writeBytes = shard_bytes * static_cast<Bytes>(shards.size());
    job.encode = true;
    job.src = std::move(src);
    job.shards = shards;
    job.encoded = std::move(encoded);
    job.k = k;
    job.m = m;
    job.srcSize = src_size;
    job.shardBytes = shard_bytes;
    job.tracer = tctx ? fabric_.tracer() : nullptr;
    job.tctx = tctx;
    job.start = sim_.now();
    // Pipeline: HBM read -> GF(256) MAC array -> HBM write of all shards.
    runEcJob(ecJobs_.park(std::move(job)), src_size, event.completion);
    return event;
}

void
SmartDsDevice::runEcJob(std::uint32_t job, Bytes read_bytes,
                        sim::Completion done)
{
    PortState &state = *portStates_[ecJobs_[job].port];
    state.engineRead->transfer(read_bytes, [this, &state, job,
                                            done = std::move(done)]() {
        state.ecEngine->transfer(
            ecJobs_[job].engineBytes, [this, &state, job, done]() {
                state.engineWrite->transfer(
                    ecJobs_[job].writeBytes,
                    [this, job, done]() { ecDone(job, done); });
            });
    });
}

void
SmartDsDevice::ecDone(std::uint32_t job, sim::Completion done)
{
    EcJob j = ecJobs_.take(job);
    if (j.encode) {
        const BufferContent &src = j.src->content;
        for (unsigned s = 0; s < j.shards.size(); ++s) {
            auto &shard = *j.shards[s];
            std::uint32_t checksum = 0;
            if (!j.encoded.empty() && shard.bytes()) {
                std::memcpy(shard.bytes()->data(), j.encoded[s].data(),
                            j.shardBytes);
                checksum = xxhash32(j.encoded[s].data(), j.shardBytes);
            }
            shard.content.size = j.shardBytes;
            shard.content.compressed = src.compressed;
            shard.content.originalSize = src.originalSize;
            shard.content.compressibility = src.compressibility;
            shard.content.corrupted = src.corrupted;
            shard.content.blockId = src.blockId;
            shard.content.ecK = static_cast<std::uint8_t>(j.k);
            shard.content.ecM = static_cast<std::uint8_t>(j.m);
            shard.content.ecShard = static_cast<std::uint8_t>(s);
            shard.content.ecShardChecksum = checksum;
            shard.content.ecStripeBytes = j.srcSize;
        }
        if (j.tracer)
            j.tracer->record(j.tctx, trace::Stage::EcEncode, j.start,
                             sim_.now());
        done.complete(j.shardBytes);
        return;
    }
    if (j.dst->bytes() && !j.result.empty()) {
        const Bytes n = std::min<Bytes>(j.result.size(), j.dst->capacity());
        std::memcpy(j.dst->bytes()->data(), j.result.data(), n);
    }
    j.dst->content.size = j.stripeBytes;
    j.dst->content.compressed = j.meta.compressed;
    j.dst->content.originalSize = j.meta.originalSize;
    j.dst->content.compressibility = j.meta.compressibility;
    j.dst->content.corrupted = j.corrupted;
    j.dst->content.blockId = j.meta.blockId;
    j.dst->content.ecK = 0;
    j.dst->content.ecM = 0;
    j.dst->content.ecShard = 0;
    j.dst->content.ecShardChecksum = 0;
    j.dst->content.ecStripeBytes = 0;
    if (j.tracer)
        j.tracer->record(j.tctx, trace::Stage::EcDecode, j.start,
                         sim_.now());
    done.complete(j.stripeBytes);
}

SmartDsDevice::Event
SmartDsDevice::ecDecode(
    const std::vector<std::pair<unsigned, BufferRef>> &shards,
    Bytes stripe_bytes, BufferRef dst, unsigned port, unsigned k, unsigned m,
    trace::TraceContext tctx)
{
    SMARTDS_CHECK(config_.ecEngine, "device built without the EC engine");
    SMARTDS_CHECK(port < portStates_.size(), "engine index out of range");
    SMARTDS_CHECK(dst, "ecDecode needs a destination buffer");
    SMARTDS_CHECK(dst->capacity() >= stripe_bytes,
                   "EC destination smaller than the stripe");
    SMARTDS_CHECK(!shards.empty(), "ecDecode with no shards");
    const Bytes shard_bytes = ec::RsCodec::shardSize(stripe_bytes, k);

    // Metadata travels on every shard; take it from the first.
    const Buffer &exemplar = *shards.front().second;
    bool corrupted = exemplar.content.corrupted;

    std::vector<std::uint8_t> result;
    if (config_.functional) {
        // Copy each shard out of its (reusable) HBM buffer, then decode.
        std::vector<std::vector<std::uint8_t>> staged;
        staged.reserve(shards.size());
        std::vector<std::pair<unsigned, const std::vector<std::uint8_t> *>>
            present;
        for (const auto &[index, buf] : shards) {
            if (!buf || !buf->bytes() ||
                buf->bytes()->size() < shard_bytes)
                continue;
            staged.emplace_back(
                buf->bytes()->begin(),
                buf->bytes()->begin() +
                    static_cast<std::ptrdiff_t>(shard_bytes));
            present.emplace_back(index, &staged.back());
        }
        ec::RsCodec codec(k, m);
        auto stripe = codec.decode(present, stripe_bytes);
        if (stripe)
            result = std::move(*stripe);
        else
            corrupted = true;
    } else if (shards.size() < k) {
        corrupted = true;
    }

    Event event{sim::Completion(sim_), nullptr};
    EcJob job;
    job.port = port;
    job.engineBytes = stripe_bytes;
    job.writeBytes = stripe_bytes;
    job.dst = std::move(dst);
    job.stripeBytes = stripe_bytes;
    job.corrupted = corrupted;
    job.meta = exemplar.content;
    job.result = std::move(result);
    job.tracer = tctx ? fabric_.tracer() : nullptr;
    job.tctx = tctx;
    job.start = sim_.now();
    // Pipeline: read k shards from HBM -> MAC array -> write the stripe.
    runEcJob(ecJobs_.park(std::move(job)),
             shard_bytes * static_cast<Bytes>(k), event.completion);
    return event;
}

} // namespace smartds::device
