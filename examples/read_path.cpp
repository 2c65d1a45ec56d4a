/**
 * @file
 * Example: the read path (paper Figure 3b), byte-verified end to end.
 *
 * A VM writes blocks through the SmartDS middle tier (compressed on the
 * card, stored compressed), then reads them back: the middle tier
 * fetches the compressed block from the storage server, decompresses it
 * with the on-card engine — the payload never touches the host — and
 * returns the original 4 KiB block to the VM. The example checks every
 * returned block byte-for-byte against what was written.
 */

#include <cstdio>
#include <map>
#include <utility>

#include "corpus/corpus.h"
#include "lz4/lz4.h"
#include "mem/memory_system.h"
#include "middletier/protocol.h"
#include "net/fabric.h"
#include "sim/process.h"
#include "smartds/device.h"
#include "storage/storage_server.h"

using namespace smartds;
using namespace smartds::time_literals;
using device::SmartDsDevice;
using middletier::StorageHeader;

namespace {

constexpr Bytes kMaxSize = 8192;
constexpr Bytes kHeadSize = StorageHeader::wireSize;
constexpr unsigned kBlocks = 32;

/** Middle tier serving both writes (Fig 3a) and reads (Fig 3b). */
sim::Process
serve(sim::Simulator &sim, SmartDsDevice &dev, SmartDsDevice::Qp qp_front,
      net::NodeId storage_node, unsigned *writes, unsigned *reads)
{
    auto h_recv = dev.hostAlloc(kMaxSize);
    auto h_send = dev.hostAlloc(kMaxSize);
    auto d_recv = dev.devAlloc(kMaxSize);
    auto d_work = dev.devAlloc(kMaxSize);
    SmartDsDevice::Qp qp_storage = dev.createQp(0);
    SmartDsDevice::Qp qp_reply = dev.createQp(0);
    dev.connect(qp_storage, storage_node, 0);

    while (*writes + *reads < 2 * kBlocks) {
        auto e = dev.mixedRecv(qp_front, h_recv, kHeadSize, d_recv,
                               kMaxSize);
        co_await e.completion;
        const StorageHeader parsed =
            StorageHeader::decode(h_recv->bytes()->data());
        const auto encoded = parsed.encode();
        std::copy(encoded.begin(), encoded.end(),
                  h_send->bytes()->begin());
        dev.connect(qp_reply, e.message->src, e.message->srcQp);

        if (e.message->kind == net::MessageKind::WriteRequest) {
            // Fig 3a: compress on the card, persist, acknowledge.
            auto ce = dev.devFunc(d_recv, e.size(), d_work, kMaxSize, 0,
                                  device::EngineOp::Compress);
            co_await ce.completion;
            auto ack = dev.mixedRecv(qp_storage, h_recv, kHeadSize,
                                     nullptr, 0);
            auto se = dev.mixedSend(qp_storage, h_send, kHeadSize, d_work,
                                    ce.size(),
                                    net::MessageKind::WriteReplica,
                                    parsed.tag, sim.now());
            co_await se.completion;
            co_await ack.completion;
            auto re = dev.mixedSend(qp_reply, h_send, kHeadSize, nullptr,
                                    0, net::MessageKind::WriteReply,
                                    parsed.tag, sim.now());
            co_await re.completion;
            ++*writes;
        } else {
            // Fig 3b: fetch compressed block, decompress on the card,
            // assemble the reply from header (host) + payload (HBM).
            auto stored = dev.mixedRecv(qp_storage, h_recv, kHeadSize,
                                        d_work, kMaxSize);
            auto fe = dev.mixedSend(qp_storage, h_send, kHeadSize,
                                    nullptr, 0,
                                    net::MessageKind::ReadFetch,
                                    parsed.tag, sim.now());
            co_await fe.completion;
            co_await stored.completion;
            auto de = dev.devFunc(d_work, stored.size(), d_recv, kMaxSize,
                                  0, device::EngineOp::Decompress);
            co_await de.completion;
            auto re = dev.mixedSend(qp_reply, h_send, kHeadSize, d_recv,
                                    de.size(),
                                    net::MessageKind::ReadReply,
                                    parsed.tag, sim.now());
            co_await re.completion;
            ++*reads;
        }
    }
}

} // namespace

int
main()
{
    std::printf("Read path: write %u blocks through SmartDS, read them "
                "back, verify bytes\n\n",
                kBlocks);

    sim::Simulator sim;
    net::Fabric fabric(sim);
    mem::MemorySystem memory(sim, "host-mem", {});

    SmartDsDevice::Config config;
    config.functional = true;
    SmartDsDevice dev(fabric, "smartds", &memory, config);

    storage::StorageServer::Config sc;
    sc.functionalStore = true;
    storage::StorageServer store(fabric, "storage", sc);

    corpus::SyntheticCorpus corpus(4u << 20, 1234);
    Rng rng(5);
    std::map<std::uint64_t, std::vector<std::uint8_t>> originals;
    std::map<std::uint64_t, std::vector<std::uint8_t>> returned;

    net::Port *vm = fabric.createPort("vm");
    sim::Completion all_reads_done(sim);
    vm->onReceive([&](net::Message msg) {
        if (msg.kind == net::MessageKind::ReadReply && msg.payload.data) {
            returned[msg.tag] = *msg.payload.data;
            if (returned.size() == kBlocks)
                all_reads_done.complete(0);
        }
    });

    SmartDsDevice::Qp qp_front = dev.createQp(0);
    unsigned writes = 0, reads = 0;
    sim::spawn(sim, serve(sim, dev, qp_front, store.nodeId(), &writes,
                          &reads));

    // Issue all writes first, then all reads.
    sim::spawn(sim, [](sim::Simulator &sim, net::Port *vm,
                       corpus::SyntheticCorpus *corpus, Rng *rng,
                       std::map<std::uint64_t, std::vector<std::uint8_t>>
                           *originals,
                       net::NodeId dst, net::QpId dst_qp) -> sim::Process {
        for (std::uint64_t tag = 1; tag <= kBlocks; ++tag) {
            auto block = corpus->sampleBlock(4096, *rng);
            (*originals)[tag] = block;
            StorageHeader header;
            header.tag = tag;
            header.payloadSize = 4096;
            net::Message msg;
            msg.dst = dst;
            msg.dstQp = dst_qp;
            msg.kind = net::MessageKind::WriteRequest;
            msg.headerBytes = kHeadSize;
            msg.headerData = header.encodeShared();
            msg.tag = tag;
            msg.payload.size = 4096;
            msg.payload.data =
                std::make_shared<const std::vector<std::uint8_t>>(block);
            vm->send(std::move(msg));
            co_await sim::delay(sim, 30_us);
        }
        for (std::uint64_t tag = 1; tag <= kBlocks; ++tag) {
            StorageHeader header;
            header.tag = tag;
            net::Message msg;
            msg.dst = dst;
            msg.dstQp = dst_qp;
            msg.kind = net::MessageKind::ReadRequest;
            msg.headerBytes = kHeadSize;
            msg.headerData = header.encodeShared();
            msg.tag = tag;
            vm->send(std::move(msg));
            co_await sim::delay(sim, 30_us);
        }
    }(sim, vm, &corpus, &rng, &originals, dev.nodeId(0), qp_front.local));

    sim.run();

    unsigned matches = 0;
    for (const auto &[tag, original] : originals) {
        const auto it = returned.find(tag);
        if (it != returned.end() && it->second == original)
            ++matches;
    }
    std::printf("writes served : %u\n", writes);
    std::printf("reads served  : %u\n", reads);
    std::printf("byte-exact    : %u / %u blocks round-tripped\n", matches,
                kBlocks);
    std::printf("simulated     : %.2f ms\n", toSeconds(sim.now()) * 1e3);
    return matches == kBlocks ? 0 : 1;
}
