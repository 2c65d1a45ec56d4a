#include "workload/trace.h"

#include <utility>

#include "common/check.h"
#include "middletier/protocol.h"

namespace smartds::workload {

std::vector<TraceRecord>
synthesizeTrace(const TraceSynthesis &config)
{
    SMARTDS_CHECK(config.meanRatePerSecond > 0, "rate must be positive");
    Rng rng(config.seed);
    std::vector<TraceRecord> records;
    records.reserve(config.records);

    // Two-state (on/off) modulated Poisson arrivals: bursts run at 4x
    // the base rate for a `burstFraction` share of time.
    const double burst_boost = 4.0;
    const double base_rate =
        config.meanRatePerSecond /
        (1.0 - config.burstFraction + config.burstFraction * burst_boost);
    double now_s = 0.0;
    bool bursting = false;
    double state_left_s = 0.0;

    const std::uint64_t blocks =
        config.virtualDiskBytes / config.blockBytes;
    for (std::uint64_t i = 0; i < config.records; ++i) {
        if (state_left_s <= 0.0) {
            bursting = rng.chance(config.burstFraction);
            state_left_s = rng.exponential(200e-6); // ~200 us states
        }
        const double rate = bursting ? base_rate * burst_boost : base_rate;
        const double gap = rng.exponential(1.0 / rate);
        now_s += gap;
        state_left_s -= gap;

        TraceRecord rec;
        rec.at = fromSeconds(now_s);
        rec.vmId = 1 + rng.below(config.vms);
        rec.offsetBytes = rng.below(blocks) * config.blockBytes;
        rec.sizeBytes = config.blockBytes;
        rec.isRead = rng.chance(config.readFraction);
        rec.latencySensitive = rng.chance(config.latencySensitiveFraction);
        records.push_back(rec);
    }
    return records;
}

TraceReplayer::TraceReplayer(net::Fabric &fabric, const std::string &name,
                             std::vector<TraceRecord> trace, Config config)
    : sim_(fabric.simulator()), config_(config),
      port_(fabric.createPort(name + ".port")), trace_(std::move(trace)),
      rng_(config.seed)
{
    SMARTDS_CHECK(config_.metrics && config_.tagCounter,
                   "replayer needs shared metrics and tag counter");
    SMARTDS_CHECK(config_.ratios, "replayer needs a ratio sampler");
    port_->onReceive(
        [this](net::Message &&msg) { onReply(std::move(msg)); });
    start_ = sim_.now();
    sim::spawn(sim_, replay());
}

bool
TraceReplayer::finished() const
{
    return issued_ == trace_.size() && completed_ == issued_;
}

void
TraceReplayer::onReply(net::Message &&msg)
{
    const auto it = inflight_.find(msg.tag);
    SMARTDS_CHECK(it != inflight_.end(), "reply for unknown tag");
    config_.metrics->latency.record(sim_.now() - it->second);
    if (msg.kind == net::MessageKind::WriteReply)
        config_.metrics->served.add(msg.payload.size ? msg.payload.size
                                                     : 4096);
    ++config_.metrics->completed;
    ++completed_;
    inflight_.erase(it);
}

sim::Process
TraceReplayer::replay()
{
    for (const TraceRecord &rec : trace_) {
        const Tick due = start_ + rec.at;
        if (sim_.now() < due)
            co_await sim::delay(sim_, due - sim_.now());

        const std::uint64_t tag = (*config_.tagCounter)++;
        net::Message msg;
        msg.dst = config_.target;
        msg.dstQp = config_.targetQp;
        msg.kind = rec.isRead ? net::MessageKind::ReadRequest
                              : net::MessageKind::WriteRequest;
        msg.headerBytes = middletier::StorageHeader::wireSize;
        msg.tag = tag;
        msg.vmId = rec.vmId;
        msg.blockOffset = rec.offsetBytes;
        msg.latencySensitive = rec.latencySensitive;
        msg.issueTick = sim_.now();
        if (rec.isRead) {
            msg.payload.size = 0;
            msg.payload.originalSize = rec.sizeBytes;
            msg.payload.compressibility = config_.ratios->sample(rng_);
        } else {
            msg.payload.size = rec.sizeBytes;
            msg.payload.compressibility = config_.ratios->sample(rng_);
        }
        inflight_.emplace(tag, sim_.now());
        ++config_.metrics->issued;
        ++issued_;
        port_->send(std::move(msg));
    }
}

} // namespace smartds::workload
