#include "workload/trace.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "middletier/protocol.h"

namespace smartds::workload {

namespace {

/**
 * Parse a decimal microsecond timestamp ("12.345") into integer
 * picosecond ticks without a double round trip: std::stod would round
 * the fraction in binary floating point, and a half-ulp difference in a
 * timestamp is enough to reorder two trace records.  Fractional digits
 * beyond picosecond resolution (6) are truncated.  Throws
 * std::invalid_argument on malformed input (caught by the caller like
 * the std::stoull fields).
 */
Tick
parseMicrosecondsToTicks(const std::string &cell)
{
    std::size_t i = cell.find_first_not_of(" \t");
    if (i == std::string::npos)
        throw std::invalid_argument("empty timestamp");
    Tick whole = 0;
    bool any = false;
    for (; i < cell.size() && std::isdigit(static_cast<unsigned char>(
                                  cell[i])); ++i) {
        whole = whole * 10 + static_cast<Tick>(cell[i] - '0');
        any = true;
    }
    Tick frac = 0;
    if (i < cell.size() && cell[i] == '.') {
        ++i;
        Tick scale = ticksPerMicrosecond / 10;
        for (; i < cell.size() && std::isdigit(static_cast<unsigned char>(
                                      cell[i])); ++i) {
            frac += static_cast<Tick>(cell[i] - '0') * scale;
            scale /= 10;
            any = true;
        }
    }
    if (!any || cell.find_first_not_of(" \t\r", i) != std::string::npos)
        throw std::invalid_argument("bad timestamp '" + cell + "'");
    return whole * ticksPerMicrosecond + frac;
}

} // namespace

std::optional<std::vector<TraceRecord>>
parseCsvTrace(const std::string &csv)
{
    std::vector<TraceRecord> records;
    std::istringstream in(csv);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        // Strip comments and whitespace-only lines.
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;

        std::istringstream fields(line);
        std::string cell;
        std::vector<std::string> cells;
        while (std::getline(fields, cell, ','))
            cells.push_back(cell);
        if (cells.size() < 5 || cells.size() > 6) {
            warn("trace line %zu: expected 5-6 fields, got %zu", line_no,
                 cells.size());
            return std::nullopt;
        }
        try {
            TraceRecord rec;
            rec.at = parseMicrosecondsToTicks(cells[0]);
            rec.vmId = std::stoull(cells[1]);
            rec.offsetBytes = std::stoull(cells[2]);
            rec.sizeBytes = std::stoull(cells[3]);
            std::string op = cells[4];
            op.erase(std::remove_if(op.begin(), op.end(), ::isspace),
                     op.end());
            if (op == "W" || op == "w") {
                rec.isRead = false;
            } else if (op == "R" || op == "r") {
                rec.isRead = true;
            } else {
                warn("trace line %zu: bad op '%s'", line_no, op.c_str());
                return std::nullopt;
            }
            if (cells.size() == 6)
                rec.latencySensitive = std::stoi(cells[5]) != 0;
            records.push_back(rec);
        } catch (const std::exception &) {
            warn("trace line %zu: malformed number", line_no);
            return std::nullopt;
        }
    }
    // Records must be time-ordered for open-loop replay.
    std::stable_sort(records.begin(), records.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.at < b.at;
                     });
    return records;
}

std::string
formatCsvTrace(const std::vector<TraceRecord> &records)
{
    std::ostringstream out;
    out << "# time_us,vm_id,offset_bytes,size_bytes,op,latency_sensitive\n";
    for (const TraceRecord &rec : records) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%.3f,%llu,%llu,%llu,%c,%d\n",
                      toMicroseconds(rec.at),
                      static_cast<unsigned long long>(rec.vmId),
                      static_cast<unsigned long long>(rec.offsetBytes),
                      static_cast<unsigned long long>(rec.sizeBytes),
                      rec.isRead ? 'R' : 'W',
                      rec.latencySensitive ? 1 : 0);
        out << buf;
    }
    return out.str();
}

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
