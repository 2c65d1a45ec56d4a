/**
 * @file
 * Trace-driven workload: replay block-I/O traces against a middle tier.
 *
 * Closed-loop clients (vm_client.h) are right for saturation sweeps, but
 * production middle tiers are sized against *recorded* traffic. This
 * module replays a block-I/O trace — here, one from the bursty
 * synthesizer — open loop: each record is issued at its recorded
 * timestamp regardless of completions, so queue build-up during bursts
 * is visible exactly as it would be in production.
 */

#ifndef SMARTDS_WORKLOAD_TRACE_H_
#define SMARTDS_WORKLOAD_TRACE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "corpus/corpus.h"
#include "net/fabric.h"
#include "sim/process.h"
#include "workload/vm_client.h"

namespace smartds::workload {

/** One trace record. */
struct TraceRecord
{
    Tick at = 0;                   ///< issue time (from trace start)
    std::uint64_t vmId = 0;
    std::uint64_t offsetBytes = 0;
    Bytes sizeBytes = 4096;
    bool isRead = false;
    bool latencySensitive = false;
};

/** Knobs for the synthetic trace generator. */
struct TraceSynthesis
{
    std::uint64_t records = 10000;
    unsigned vms = 8;
    Bytes blockBytes = 4096;
    Bytes virtualDiskBytes = gibibytes(64);
    /** Mean aggregate request rate, requests/second. */
    double meanRatePerSecond = 1e6;
    /**
     * Burstiness: fraction of time spent in a high-rate burst state
     * (two-state on/off modulation, rate x4 in bursts).
     */
    double burstFraction = 0.2;
    double readFraction = 0.0;
    double latencySensitiveFraction = 0.0;
    std::uint64_t seed = 7;
};

/** Generate a bursty trace over uniformly drawn block offsets. */
std::vector<TraceRecord> synthesizeTrace(const TraceSynthesis &config);

/** Replays a trace open loop against one middle-tier front end. */
class TraceReplayer
{
  public:
    struct Config
    {
        net::NodeId target = 0;
        net::QpId targetQp = 0;
        const corpus::RatioSampler *ratios = nullptr;
        int effort = 1;
        std::uint64_t seed = 3;
        std::uint64_t *tagCounter = nullptr;
        ClientMetrics *metrics = nullptr;
    };

    TraceReplayer(net::Fabric &fabric, const std::string &name,
                  std::vector<TraceRecord> trace, Config config);

    /** Records issued so far. */
    std::uint64_t issued() const { return issued_; }

    /** All records issued and completed. */
    bool finished() const;

  private:
    sim::Process replay();
    void onReply(net::Message &&msg);

    sim::Simulator &sim_;
    Config config_;
    net::Port *port_;
    std::vector<TraceRecord> trace_;
    Rng rng_;
    Tick start_ = 0;
    std::uint64_t issued_ = 0;
    std::uint64_t completed_ = 0;
    std::unordered_map<std::uint64_t, Tick> inflight_; ///< tag -> issue
};

} // namespace smartds::workload

#endif // SMARTDS_WORKLOAD_TRACE_H_
