/**
 * @file
 * The SmartDS device: the paper's primary contribution.
 *
 * A SmartDS card exposes up to six 100 GbE ports. Each port instantiates
 * an *extended RoCE stack* — the RoCE transport plus the Split and
 * Assemble modules of Section 4.1 — and a hardware engine. The card
 * carries a large HBM device memory and connects to the host over one
 * PCIe link.
 *
 * Application-aware message split (AAMS): for every received RDMA message
 * the Split module looks up the recv descriptor posted by host software
 * and writes the first h_size bytes into host memory (the header, which
 * needs flexible CPU processing) while the remaining bytes stay in device
 * memory (the payload, which needs fixed heavy computation). The Assemble
 * module performs the inverse gather on send. Hardware engines transform
 * payloads HBM-to-HBM. Only descriptors and headers ever cross PCIe,
 * which is why one host drives many ports and many cards (Sections 4.2,
 * 5.4, 5.5).
 *
 * Bookkeeping. Each port keeps a per-QP table, a vector indexed by QpId:
 * createQp() hands ids out densely per port from 1, and each entry holds
 * two FIFO rings, the posted recv descriptors and the messages that
 * arrived before a descriptor. A message addressed to an id the port
 * never created is a checked error rather than a silently created queue.
 * In-flight split/assemble joins and engine jobs are parked in slot
 * tables, so every stage's closure is a pointer plus a slot and fits the
 * kernel's inline callback buffer; once warm, a request through the
 * device allocates nothing.
 */

#ifndef SMARTDS_SMARTDS_DEVICE_H_
#define SMARTDS_SMARTDS_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/calibration.h"
#include "mem/memory_system.h"
#include "net/fabric.h"
#include "pcie/pcie.h"
#include "sim/bandwidth_server.h"
#include "sim/parking.h"
#include "sim/process.h"
#include "smartds/buffers.h"
#include "smartds/device_memory.h"
#include "smartds/resource_model.h"

namespace smartds::corpus {
class BlockCodecCache;
}

namespace smartds::device {

/**
 * Which fixed-function engine a dev_func call invokes. The paper notes
 * SmartDS "provides a simple interface to deploy different hardware
 * engines according to the application scenario" — besides the LZ4
 * pair, a scrubbing/checksum engine demonstrates that interface: it
 * streams a buffer at line rate and completes with its xxHash32
 * (functional mode) without producing output data.
 */
enum class EngineOp : std::uint8_t
{
    Compress,
    Decompress,
    Checksum,
};

/**
 * Handle to a received message, as Event::message carries it: shared by
 * every copy of the Event, read like a pointer (`if (e.message)`,
 * `e.message->tag`, `*e.message`). mixedRecv() creates the message empty
 * (kind Raw) with its descriptor; the Split fills it in when a message
 * is matched, and a QP flush leaves it empty. The message lives as long
 * as any handle does, in a block of the per-thread sim pool
 * (sim::detail::BlockPool) counted with a plain integer — the same
 * locality rule as sim::Completion: a handle never leaves the timing
 * domain of the device that made it.
 */
class MessageRef
{
  public:
    MessageRef() = default;
    MessageRef(std::nullptr_t) {} // NOLINT: implicit, like a pointer

    /** A handle to a fresh, empty message. */
    static MessageRef
    make()
    {
        MessageRef ref;
        ref.box_ = ::new (sim::detail::blockPool().allocate(sizeof(Box)))
            Box{};
        return ref;
    }

    MessageRef(const MessageRef &other) noexcept : box_(other.box_)
    {
        if (box_)
            ++box_->refs;
    }
    MessageRef(MessageRef &&other) noexcept
        : box_(std::exchange(other.box_, nullptr))
    {
    }
    MessageRef &
    operator=(MessageRef other) noexcept
    {
        std::swap(box_, other.box_);
        return *this;
    }
    ~MessageRef()
    {
        if (box_ && --box_->refs == 0) {
            box_->~Box();
            sim::detail::blockPool().deallocate(box_, sizeof(Box));
        }
    }

    explicit operator bool() const { return box_ != nullptr; }
    net::Message *get() const { return box_ ? &box_->msg : nullptr; }
    net::Message *operator->() const { return &box_->msg; }
    net::Message &operator*() const { return box_->msg; }

  private:
    struct Box
    {
        net::Message msg;
        unsigned refs = 1;
    };

    Box *box_ = nullptr;
};

/** The SmartDS SmartNIC. */
class SmartDsDevice
{
  public:
    struct Config
    {
        /** Networking ports to instantiate (1..smartdsMaxPorts). */
        unsigned ports = 1;
        /** Per-port engine throughput. */
        BytesPerSecond engineRate = calibration::smartdsEnginePerPort;
        /** Engine fixed pipeline latency per invocation. */
        Tick engineLatency = calibration::fpgaEngineBlockLatency;
        /** HBM capacity. */
        Bytes hbmCapacity = calibration::smartdsHbmBytes;
        /**
         * Additional PCIe hops between this card's own link and the
         * host (e.g. a PCIe switch's root port when several cards share
         * one socket, Section 5.5). Appended after the card link, in
         * card-to-host order.
         */
        std::vector<sim::BandwidthServer *> h2dTail;
        std::vector<sim::BandwidthServer *> d2hTail;
        /** Functional mode: buffers carry and transform real bytes. */
        bool functional = false;
        /** LZ4 effort used by functional engines. */
        int effort = 1;
        /**
         * Optional corpus codec cache for functional engines: compress /
         * decompress of corpus-backed buffers become hash-guarded
         * lookups. Wall-clock only; simulated timing and results are
         * unchanged.
         */
        const corpus::BlockCodecCache *blockCache = nullptr;
        /**
         * CacheDirector-style header steering (the related-work
         * combination the paper points out): header DMA writes land in
         * the LLC slice next to the consuming core instead of DRAM,
         * shaving the memory access off the header path.
         */
        bool headerLlcSteering = false;
        /**
         * Instantiate the optional per-port RS(k, m) erasure-coding
         * engine (ecEncode/ecDecode below). Adds its Table 3 component
         * per port; the baseline bitstream rows are unchanged when off.
         */
        bool ecEngine = false;
    };

    /** A connected queue pair on one of the device's RoCE instances. */
    struct Qp
    {
        unsigned port = 0;
        net::QpId local = 0;
        net::NodeId remoteNode = 0;
        net::QpId remoteQp = 0;
    };

    /**
     * An asynchronous completion event, as returned by the Table 2 API
     * calls. size() is the completion's byte count (received payload
     * size, engine output size, or bytes sent); message points at the
     * matched network message on receive paths (see MessageRef for its
     * lifetime) and is null on the others.
     */
    struct Event
    {
        sim::Completion completion;
        MessageRef message;

        Bytes size() const { return completion.value(); }
    };

    SmartDsDevice(net::Fabric &fabric, const std::string &name,
                  mem::MemorySystem *host_memory, Config config);

    // ----------------------------------------------------- memory (API)

    /** Allocate a host-memory buffer (Table 2: host_alloc). */
    BufferRef hostAlloc(Bytes size);

    /** Allocate a device-memory buffer (Table 2: dev_alloc). */
    BufferRef devAlloc(Bytes size);

    // ------------------------------------------------- connections (API)

    /** Node id of RoCE instance @p port (what remote peers address). */
    net::NodeId nodeId(unsigned port) const;

    /** Create a queue pair on RoCE instance @p port. */
    Qp createQp(unsigned port);

    /** Connect a queue pair to a remote endpoint. */
    void connect(Qp &qp, net::NodeId remote_node, net::QpId remote_qp);

    /**
     * Flush a queue pair (RDMA QP reset semantics): every posted recv
     * descriptor completes with 0 and its message left at kind Raw so
     * consumers can tell a flush from real traffic, and messages queued
     * for the QP are dropped. The failover paths reset a QP before
     * re-targeting it so a late ack from the old peer cannot be matched
     * against the new attempt's descriptor.
     */
    void resetQp(const Qp &qp);

    // --------------------------------------------------- datapath (API)

    /**
     * Post a split receive (Table 2: dev_mixed_recv): the next message on
     * @p qp has its first @p h_size bytes written to host buffer @p h and
     * the remainder to device buffer @p d. The event completes with the
     * device-part size once both writes have landed.
     */
    Event mixedRecv(const Qp &qp, BufferRef h, Bytes h_size, BufferRef d,
                    Bytes d_size);

    /**
     * Post an assembled send (Table 2: dev_mixed_send): gather @p h_size
     * bytes from host buffer @p h and @p d_size bytes from device buffer
     * @p d into one RDMA message on @p qp. @p kind/@p tag/@p issue_tick
     * describe the storage-protocol message (in hardware these live in
     * the header bytes; the model also carries them out-of-band so the
     * timing path need not parse bytes). Completes when the message has
     * left the port. @p tctx (optional) is the originating request's
     * trace context: it rides out on the assembled message and an
     * Assemble span is recorded over the gather + serialisation.
     */
    Event mixedSend(const Qp &qp, BufferRef h, Bytes h_size, BufferRef d,
                    Bytes d_size, net::MessageKind kind, std::uint64_t tag,
                    Tick issue_tick, trace::TraceContext tctx = {});

    /**
     * Invoke the fixed-function engine of port @p port (Table 2:
     * dev_func): read @p src_size bytes from device buffer @p src,
     * transform, write the result into @p dst. Completes with the result
     * size. @p tctx (optional) attributes an Engine span covering the
     * HBM read -> engine -> HBM write pipeline to the traced request.
     */
    Event devFunc(BufferRef src, Bytes src_size, BufferRef dst,
                  Bytes dst_cap, unsigned port, EngineOp op,
                  trace::TraceContext tctx = {});

    /**
     * RS(k, m)-encode a device buffer (the EC-engine extension of the
     * Table 2 dev_func interface; requires Config::ecEngine): read
     * @p src_size bytes from @p src, split into k data shards, compute
     * m parity shards over GF(256), and write each shard into the
     * matching entry of @p shards (k data shards first, then m parity).
     * Every shard buffer's content records the stripe geometry
     * (ecK/ecM/ecShard/ecStripeBytes) and, in functional mode, the
     * shard's xxHash32, so mixedSend carries them on the wire.
     * Completes with the per-shard size.
     */
    Event ecEncode(BufferRef src, Bytes src_size,
                   const std::vector<BufferRef> &shards, unsigned port,
                   unsigned k, unsigned m, trace::TraceContext tctx = {});

    /**
     * Reconstruct a stripe from any k shards (inverse of ecEncode;
     * requires Config::ecEngine): read each (shard index, buffer) pair
     * in @p shards, invert the generator submatrix, and write the
     * @p stripe_bytes stripe into @p dst. Marks @p dst corrupted if
     * fewer than k distinct valid shards were supplied. Completes with
     * the stripe size.
     */
    Event ecDecode(const std::vector<std::pair<unsigned, BufferRef>> &shards,
                   Bytes stripe_bytes, BufferRef dst, unsigned port,
                   unsigned k, unsigned m, trace::TraceContext tctx = {});

    // ------------------------------------------------------ inspection

    unsigned ports() const { return config_.ports; }
    const Config &config() const { return config_; }
    DeviceMemory &hbm() { return hbm_; }
    pcie::PcieLink &pcieLink() { return pcie_; }
    net::Port &port(unsigned i);
    sim::BandwidthServer &compressEngine(unsigned i);

    /** FPGA resource consumption of this configuration (Table 3). */
    ResourceVec
    resources() const
    {
        ResourceVec r = smartdsResources(config_.ports);
        if (config_.ecEngine)
            r = r + ecEngineComponent().cost *
                        static_cast<double>(config_.ports);
        return r;
    }

    /** Host-memory flows carrying header traffic (for Fig 8a meters). */
    sim::FairShareResource::Flow *headerWriteFlow() { return hdrWrite_; }
    sim::FairShareResource::Flow *headerReadFlow() { return hdrRead_; }

    /** Messages queued in device memory awaiting a recv descriptor. */
    std::size_t pendingMessages() const;

  private:
    struct RecvDescriptor
    {
        BufferRef h;
        Bytes hSize;
        BufferRef d;
        Bytes dSize;
        Event event;
    };

    /** One queue pair's receive side. */
    struct QpState
    {
        /** Posted recv descriptors, oldest first. */
        sim::Ring<RecvDescriptor> recvs;
        /** Messages landed in HBM before a descriptor was posted. */
        sim::Ring<net::Message> pending;
    };

    struct PortState
    {
        net::Port *port = nullptr;
        std::unique_ptr<sim::BandwidthServer> compressEngine;
        std::unique_ptr<sim::BandwidthServer> decompressEngine;
        std::unique_ptr<sim::BandwidthServer> ecEngine; // when configured
        sim::FairShareResource::Flow *splitWrite = nullptr;
        sim::FairShareResource::Flow *assembleRead = nullptr;
        sim::FairShareResource::Flow *engineRead = nullptr;
        sim::FairShareResource::Flow *engineWrite = nullptr;
        /** Indexed by QpId; entry 0 is never handed out. */
        std::vector<QpState> qps;
    };

    /**
     * A join of parallel legs (split: header DMA + HBM write; assemble:
     * header DMA + HBM read): the last leg to arrive completes @ref done.
     */
    struct Join
    {
        unsigned legs = 0;
        std::optional<sim::Completion> done;
    };

    /** One leg of join @ref join: a DMA or a transfer completion. */
    struct JoinLeg
    {
        SmartDsDevice *device;
        std::uint32_t join;

        void operator()(Tick = 0) const;
    };

    /** A dev_func call between its HBM read and its HBM write. */
    struct EngineJob
    {
        sim::BandwidthServer *engine = nullptr;
        sim::FairShareResource::Flow *writeFlow = nullptr;
        Bytes srcSize = 0;
        BufferRef dst;
        BufferContent result;
        bool isChecksum = false;
        std::uint64_t completionValue = 0;
        std::vector<std::uint8_t> resultBytes;
        /** Cache hit: the result is a shared immutable buffer instead. */
        std::shared_ptr<const std::vector<std::uint8_t>> resultShared;
        trace::Tracer *tracer = nullptr;
        trace::TraceContext tctx;
        Tick start = 0;
    };

    /** An ecEncode/ecDecode call between its HBM read and write. */
    struct EcJob
    {
        unsigned port = 0;
        Bytes engineBytes = 0;
        Bytes writeBytes = 0;
        bool encode = false;
        // encode
        BufferRef src;
        std::vector<BufferRef> shards;
        std::vector<std::vector<std::uint8_t>> encoded;
        unsigned k = 0;
        unsigned m = 0;
        Bytes srcSize = 0;
        Bytes shardBytes = 0;
        // decode
        BufferRef dst;
        Bytes stripeBytes = 0;
        bool corrupted = false;
        BufferContent meta;
        std::vector<std::uint8_t> result;
        trace::Tracer *tracer = nullptr;
        trace::TraceContext tctx;
        Tick start = 0;
    };

    /** The receive state of @p qp (checked: the port must have made it). */
    QpState &qpState(unsigned port, net::QpId qp);

    void onPortReceive(unsigned port_index, net::Message &&msg);
    void performSplit(unsigned port_index, RecvDescriptor desc,
                      net::Message &&msg);

    /** Open a join of @p legs legs that completes @p done. */
    std::uint32_t openJoin(unsigned legs, sim::Completion done);

    /** The split's parallel legs, after the split latency. */
    void splitLegs(unsigned port_index, Bytes host_part, Bytes dev_part,
                   std::uint32_t join);

    /** Engine stage of devFunc job @p job; then its HBM write. */
    void engineStage(std::uint32_t job, sim::Completion done);
    /** devFunc job @p job's result has landed in HBM. */
    void engineDone(std::uint32_t job, sim::Completion done);

    /** Run EC job @p job through read -> MAC array -> write. */
    void runEcJob(std::uint32_t job, Bytes read_bytes, sim::Completion done);
    /** EC job @p job's shards (or stripe) have landed in HBM. */
    void ecDone(std::uint32_t job, sim::Completion done);

    net::Fabric &fabric_;
    sim::Simulator &sim_;
    std::string name_;
    Config config_;
    mem::MemorySystem *hostMemory_;
    DeviceMemory hbm_;
    pcie::PcieLink pcie_;
    pcie::DmaEngine dma_;
    sim::FairShareResource::Flow *hdrWrite_ = nullptr;
    sim::FairShareResource::Flow *hdrRead_ = nullptr;
    std::uint64_t nextHostAddr_ = 0;
    std::vector<std::unique_ptr<PortState>> portStates_;
    sim::SlotTable<Join> joins_;
    sim::SlotTable<EngineJob> engineJobs_;
    sim::SlotTable<EcJob> ecJobs_;
};

} // namespace smartds::device

#endif // SMARTDS_SMARTDS_DEVICE_H_
