/**
 * @file
 * VM client model: the compute-server side of the storage protocol.
 *
 * Each client owns a port (its compute server's NIC) and runs a number of
 * closed-loop issuers: every issuer keeps one write (or read) request in
 * flight, with a small exponentially distributed think time standing in
 * for guest I/O submission jitter. Blocks are drawn from the synthetic
 * corpus: functional clients attach real block bytes; timing clients
 * attach a compression ratio drawn from the corpus's measured per-block
 * ratio distribution.
 */

#ifndef SMARTDS_WORKLOAD_VM_CLIENT_H_
#define SMARTDS_WORKLOAD_VM_CLIENT_H_

#include "common/calibration.h"
#include "common/latency_recorder.h"
#include "common/random.h"
#include "common/rate_meter.h"
#include "corpus/block_cache.h"
#include "corpus/corpus.h"
#include "net/fabric.h"
#include "sim/flat_map.h"
#include "sim/process.h"

namespace smartds::workload {

/** Shared measurement sinks for a set of clients. */
struct ClientMetrics
{
    LatencyRecorder latency;
    RateMeter served; ///< uncompressed payload bytes of completed writes
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
};

/** One compute server issuing storage I/O to the middle tier. */
class VmClient
{
  public:
    struct Config
    {
        net::NodeId target = 0;
        net::QpId targetQp = 0;
        /** Concurrent closed-loop issuers on this client. */
        unsigned outstanding = 8;
        Bytes blockBytes = calibration::storageBlockBytes;
        /** Ratio distribution for timing mode (required unless corpus). */
        const corpus::RatioSampler *ratios = nullptr;
        /** Functional mode: attach real block bytes from this corpus. */
        const corpus::SyntheticCorpus *corpus = nullptr;
        /**
         * Optional codec cache over `corpus` (same blockBytes/effort).
         * When set, writes alias cached corpus blocks instead of copying
         * and reuse cached ratios/checksums instead of running the codec
         * per request. Must be built from the same corpus; results are
         * byte-identical with and without it.
         */
        const corpus::BlockCodecCache *blockCache = nullptr;
        int effort = 1;
        /** Fraction of requests flagged latency sensitive. */
        double latencySensitiveFraction = 0.0;
        /** Fraction of requests that are reads (rest are writes). */
        double readFraction = 0.0;
        /** Virtual-disk size the client addresses (LBA space). */
        Bytes virtualDiskBytes = gibibytes(64);
        /**
         * Address skew: block indices are Zipf(zipfTheta) over the
         * disk's blocks, rank 0 hottest (0 = uniform; YCSB uses 0.99).
         */
        double zipfTheta = 0.0;
        std::uint64_t seed = 1;
        /** Shared tag counter across all clients (unique request ids). */
        std::uint64_t *tagCounter = nullptr;
        /** Shared metrics sink. */
        ClientMetrics *metrics = nullptr;
    };

    VmClient(net::Fabric &fabric, const std::string &name, Config config);

    net::NodeId nodeId() const { return port_->id(); }

    /** Stop issuing new requests (in-flight ones drain). */
    void stop() { running_ = false; }

  private:
    sim::Process issuer();
    void onReply(net::Message &&msg);

    sim::Simulator &sim_;
    net::Fabric &fabric_;
    Config config_;
    net::Port *port_;
    /** Block-index draw over virtualDiskBytes / blockBytes blocks. */
    const ZipfSampler addresses_;
    Rng rng_;
    bool running_ = true;
    /** Requests awaiting their reply, by tag. */
    sim::FlatMap<std::uint64_t, sim::Completion> pending_;
};

} // namespace smartds::workload

#endif // SMARTDS_WORKLOAD_VM_CLIENT_H_
