#include "pcie/pcie.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace smartds::pcie {

PcieLink::PcieLink(sim::Simulator &sim, const std::string &name)
    : PcieLink(sim, name, Config{})
{
}

PcieLink::PcieLink(sim::Simulator &sim, const std::string &name,
                   Config config)
    : h2d_(sim, name + ".h2d", config.bandwidth, config.baseLatency),
      d2h_(sim, name + ".d2h", config.bandwidth, config.baseLatency)
{
}

DmaEngine::DmaEngine(sim::Simulator &sim, std::string name,
                     mem::MemorySystem *memory,
                     std::vector<sim::BandwidthServer *> h2d_path,
                     std::vector<sim::BandwidthServer *> d2h_path)
    : DmaEngine(sim, std::move(name), memory, std::move(h2d_path),
                std::move(d2h_path), Config{})
{
}

DmaEngine::DmaEngine(sim::Simulator &sim, std::string name,
                     mem::MemorySystem *memory,
                     std::vector<sim::BandwidthServer *> h2d_path,
                     std::vector<sim::BandwidthServer *> d2h_path,
                     Config config)
    : sim_(sim), name_(std::move(name)), memory_(memory),
      h2dPath_(std::move(h2d_path)), d2hPath_(std::move(d2h_path)),
      config_(config)
{
    SMARTDS_CHECK(!h2dPath_.empty() && !d2hPath_.empty(),
                   "DMA engine '%s' needs link paths", name_.c_str());
    SMARTDS_CHECK(config_.chunkBytes > 0, "chunk size must be positive");
}

void
DmaEngine::read(Bytes bytes, Options options, Done done)
{
    submit(bytes, true, options, std::move(done));
}

void
DmaEngine::write(Bytes bytes, Options options, Done done)
{
    submit(bytes, false, options, std::move(done));
}

void
DmaEngine::submit(Bytes bytes, bool is_read, Options options, Done done)
{
    // A zero-byte transfer completes at the next event slot; it is parked
    // like any job, so its event captures only the slot.
    const std::uint32_t job = jobs_.park(
        Job{bytes, 0, sim_.now(), is_read, options, std::move(done)});
    if (bytes == 0) {
        sim_.schedule(0, [this, job]() { jobs_.take(job).done(0); },
                      sim::EventTag::Device);
        return;
    }
    (is_read ? readQueue_ : writeQueue_).push(std::uint32_t{job});
    pump();
}

void
DmaEngine::pump()
{
    while (inflightReadBytes_ < config_.readWindowBytes &&
           !readQueue_.empty()) {
        const std::uint32_t job = readQueue_.front();
        Job &j = jobs_[job];
        const Bytes chunk = std::min<Bytes>(config_.chunkBytes,
                                            j.remainingToIssue);
        j.remainingToIssue -= chunk;
        ++j.chunksOutstanding;
        if (j.remainingToIssue == 0)
            readQueue_.pop();
        inflightReadBytes_ += chunk;
        startChunk(job, chunk);
    }
    while (inflightWriteBytes_ < config_.writeWindowBytes &&
           !writeQueue_.empty()) {
        const std::uint32_t job = writeQueue_.front();
        Job &j = jobs_[job];
        const Bytes chunk = std::min<Bytes>(config_.chunkBytes,
                                            j.remainingToIssue);
        j.remainingToIssue -= chunk;
        ++j.chunksOutstanding;
        if (j.remainingToIssue == 0)
            writeQueue_.pop();
        inflightWriteBytes_ += chunk;
        startChunk(job, chunk);
    }
}

void
DmaEngine::startChunk(std::uint32_t job, Bytes chunk)
{
    const Job &j = jobs_[job];
    // A DMA write crosses the links first (see finishWrite). A DMA read
    // first fetches the data from host memory (or LLC on a DDIO hit),
    // stalling on loaded latency, then crosses the links.
    if (!j.isRead || !j.options.memFlow) {
        linkHop(job, chunk, 0);
        return;
    }
    const Tick stall =
        j.options.stallOnMemory && memory_ ? memory_->loadedLatency() : 0;
    sim_.schedule(
        stall,
        [this, flow = j.options.memFlow, job, chunk]() {
            flow->transfer(chunk,
                           [this, job, chunk]() { linkHop(job, chunk, 0); });
        },
        sim::EventTag::Device);
}

void
DmaEngine::linkHop(std::uint32_t job, Bytes chunk, std::size_t hop)
{
    const bool is_read = jobs_[job].isRead;
    const auto &path = is_read ? h2dPath_ : d2hPath_;
    if (hop < path.size()) {
        path[hop]->transfer(chunk, [this, job, chunk, hop]() {
            linkHop(job, chunk, hop + 1);
        });
    } else if (is_read) {
        finishRead(job, chunk);
    } else {
        finishWrite(job, chunk);
    }
}

void
DmaEngine::completeJobChunk(std::uint32_t job)
{
    Job &j = jobs_[job];
    SMARTDS_CHECK(j.chunksOutstanding > 0, "chunk accounting underflow");
    --j.chunksOutstanding;
    if (j.chunksOutstanding == 0 && j.remainingToIssue == 0) {
        const Tick latency = sim_.now() - j.start;
        // Recycle the job before the callback runs: it may submit more.
        jobs_.take(job).done(latency);
    }
}

void
DmaEngine::releaseSlot(bool is_read, Bytes chunk)
{
    if (is_read) {
        SMARTDS_CHECK(inflightReadBytes_ >= chunk, "read window underflow");
        inflightReadBytes_ -= chunk;
    } else {
        SMARTDS_CHECK(inflightWriteBytes_ >= chunk,
                       "write window underflow");
        inflightWriteBytes_ -= chunk;
    }
    pump();
}

void
DmaEngine::finishRead(std::uint32_t job, Bytes chunk)
{
    completeJobChunk(job);
    releaseSlot(true, chunk);
}

void
DmaEngine::finishWrite(std::uint32_t job, Bytes chunk)
{
    // A DMA write completes for the caller on arrival (posted). The
    // engine's buffer slot, however, is held until the write has drained
    // into DRAM — write credits return only when memory accepts the data,
    // which is how memory-side pressure throttles posted DMA streams
    // (Figures 4 and 9).
    sim::FairShareResource::Flow *flow = jobs_[job].options.memFlow;
    completeJobChunk(job);
    if (!flow) {
        releaseSlot(false, chunk);
        return;
    }
    const Tick stall = memory_ ? memory_->loadedLatency() : 0;
    sim_.schedule(
        stall,
        [this, flow, chunk]() {
            flow->transfer(chunk,
                           [this, chunk]() { releaseSlot(false, chunk); });
        },
        sim::EventTag::Device);
}

} // namespace smartds::pcie
