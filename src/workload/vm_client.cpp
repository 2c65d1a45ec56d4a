#include "workload/vm_client.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/check.h"
#include "common/logging.h"
#include "lz4/lz4.h"
#include "middletier/protocol.h"

namespace smartds::workload {

VmClient::VmClient(net::Fabric &fabric, const std::string &name,
                   Config config)
    : sim_(fabric.simulator()), fabric_(fabric), config_(config),
      port_(fabric.createPort(name + ".port")),
      addresses_(config.virtualDiskBytes / config.blockBytes,
                 config.zipfTheta),
      rng_(config.seed)
{
    SMARTDS_CHECK(config_.metrics && config_.tagCounter,
                   "client needs shared metrics and tag counter");
    SMARTDS_CHECK(config_.ratios || config_.corpus,
                   "client needs a ratio sampler or a functional corpus");
    SMARTDS_CHECK(!config_.blockCache ||
                       (config_.corpus &&
                        config_.blockCache->blockBytes() ==
                            config_.blockBytes &&
                        config_.blockCache->effort() == config_.effort),
                   "block cache must match the corpus block size and effort");
    port_->onReceive(
        [this](net::Message &&msg) { onReply(std::move(msg)); });
    for (unsigned i = 0; i < config_.outstanding; ++i)
        sim::spawn(sim_, issuer());
}

void
VmClient::onReply(net::Message &&msg)
{
    sim::Completion *pending = pending_.find(msg.tag);
    SMARTDS_CHECK(pending, "reply for unknown tag %llu",
                   static_cast<unsigned long long>(msg.tag));
    sim::Completion done = *pending;
    pending_.erase(msg.tag);
    done.complete(msg.payload.size);
}

sim::Process
VmClient::issuer()
{
    Rng rng = rng_.fork();
    // Stagger issuer start so a fleet of clients does not phase-lock.
    co_await sim::delay(
        sim_,
        static_cast<Tick>(rng.below(2 * calibration::clientPerRequestCost)),
        sim::EventTag::Client);

    while (running_) {
        // simlint: allow(tick-float): exponential think time from the
        // seeded per-client Rng; identical across runs of the same binary
        const Tick think =
            static_cast<Tick>(rng.exponential(
                static_cast<double>(calibration::clientPerRequestCost)));
        co_await sim::delay(sim_, think, sim::EventTag::Client);
        if (!running_)
            break;

        const std::uint64_t tag = (*config_.tagCounter)++;
        const bool is_read = rng.chance(config_.readFraction);
        const bool latency_sensitive =
            rng.chance(config_.latencySensitiveFraction);

        // Address a block of this VM's disk (rank 0 hottest).
        const std::uint64_t block_index = addresses_.sample(rng);

        net::Message msg;
        msg.dst = config_.target;
        msg.dstQp = config_.targetQp;
        msg.kind = is_read ? net::MessageKind::ReadRequest
                           : net::MessageKind::WriteRequest;
        msg.headerBytes = middletier::StorageHeader::wireSize;
        msg.tag = tag;
        msg.latencySensitive = latency_sensitive;
        msg.vmId = port_->id();
        msg.blockOffset = block_index * config_.blockBytes;
        msg.issueTick = sim_.now();
        msg.payload.size = is_read ? 0 : config_.blockBytes;

        if (config_.corpus) {
            // Functional: carry real block bytes and an encoded header.
            // The draw happens for reads too (even though reads carry no
            // bytes) so the per-issuer random stream — and with it every
            // existing CSV — stays byte-identical to the old
            // sample-and-copy code.
            const std::size_t corpus_block =
                config_.corpus->sampleBlockIndex(config_.blockBytes, rng);
            middletier::StorageHeader hdr;
            if (!is_read) {
                msg.payload.blockId =
                    static_cast<std::uint32_t>(corpus_block + 1);
                if (config_.blockCache) {
                    // Zero-copy: alias the cache's materialised block and
                    // reuse its precomputed ratio and checksum.
                    const auto &e = config_.blockCache->entry(corpus_block);
                    msg.payload.data = e.plain;
                    msg.payload.compressibility = e.ratio;
                    hdr.blockChecksum = e.plainChecksum;
                } else {
                    const std::uint8_t *src = config_.corpus->blockPtr(
                        config_.blockBytes, corpus_block);
                    msg.payload.data =
                        std::make_shared<const std::vector<std::uint8_t>>(
                            src, src + config_.blockBytes);
                    msg.payload.compressibility = lz4::compressionRatio(
                        src, config_.blockBytes, config_.effort);
                    hdr.blockChecksum = xxhash32(src, config_.blockBytes);
                }
            }
            hdr.vmId = port_->id();
            hdr.blockOffset = msg.blockOffset;
            hdr.tag = tag;
            hdr.payloadSize =
                static_cast<std::uint32_t>(msg.payload.size);
            hdr.latencySensitive = latency_sensitive ? 1 : 0;
            hdr.compressionEffort =
                static_cast<std::uint8_t>(config_.effort);
            msg.headerData = hdr.encodeShared();
        } else {
            msg.payload.compressibility = config_.ratios->sample(rng);
        }
        if (is_read) {
            // Hint the expected compressed size for the timing-only path.
            msg.payload.originalSize = config_.blockBytes;
            msg.payload.size = 0;
        }

        trace::Tracer *tracer = fabric_.tracer();
        trace::TraceContext tctx;
        std::uint32_t issue_depth = 0;
        if (tracer) {
            tctx = tracer->admit(tag);
            msg.trace = tctx;
            issue_depth = static_cast<std::uint32_t>(pending_.size());
        }

        sim::Completion done(sim_);
        pending_.tryEmplace(tag, done);
        ++config_.metrics->issued;
        const Tick issue = sim_.now();
        port_->send(std::move(msg));
        co_await done;

        ++config_.metrics->completed;
        config_.metrics->latency.record(sim_.now() - issue);
        if (tracer && tctx) {
            tracer->record(tctx, trace::Stage::Request, issue, sim_.now(),
                           issue_depth);
        }
        if (!is_read)
            config_.metrics->served.add(config_.blockBytes);
    }
}

} // namespace smartds::workload
