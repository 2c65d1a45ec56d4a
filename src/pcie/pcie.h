/**
 * @file
 * PCIe interconnect model: links and DMA engines.
 *
 * A PcieLink is a pair of FIFO bandwidth servers (one per direction) with
 * the measured idle DMA latency. A DmaEngine issues chunked transfers over
 * a path of links with a bounded outstanding-request window per direction;
 * under saturation the backlog behind that window reproduces the loaded
 * latencies of the paper's Table 1 (11.3 us H2D / 6.6 us D2H vs 1.4 us
 * idle). DMA reads additionally stall on host-memory loaded latency, which
 * couples PCIe throughput to memory pressure (Figure 4).
 *
 * Direction names follow the paper: H2D = host-to-device (a device DMA
 * *read* of host memory), D2H = device-to-host (a device DMA *write*).
 */

#ifndef SMARTDS_PCIE_PCIE_H_
#define SMARTDS_PCIE_PCIE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/calibration.h"
#include "common/time.h"
#include "common/units.h"
#include "mem/memory_system.h"
#include "sim/bandwidth_server.h"
#include "sim/parking.h"
#include "sim/simulator.h"

namespace smartds::pcie {

/** One PCIe link: independent H2D and D2H bandwidth servers. */
class PcieLink
{
  public:
    struct Config
    {
        /** Per-direction achievable bandwidth. */
        BytesPerSecond bandwidth = calibration::pcieGen3x16Bandwidth;
        /** Idle one-way DMA latency (Table 1: 1.4 us). */
        Tick baseLatency = calibration::pcieIdleLatency;
    };

    PcieLink(sim::Simulator &sim, const std::string &name);
    PcieLink(sim::Simulator &sim, const std::string &name, Config config);

    sim::BandwidthServer &h2d() { return h2d_; }
    sim::BandwidthServer &d2h() { return d2h_; }

  private:
    sim::BandwidthServer h2d_;
    sim::BandwidthServer d2h_;
};

/**
 * A device's DMA engine: windowed, chunked transfers between host memory
 * and the device across a path of PCIe links.
 */
class DmaEngine
{
  public:
    struct Config
    {
        /** Transfer split granularity. */
        Bytes chunkBytes = 4096;
        /**
         * In-flight byte budget per direction. A byte budget (rather
         * than a request count) lets many small control DMAs (64-byte
         * headers, completions) pipeline while bulk data streams stay
         * window-limited — which is how the loaded memory latency caps
         * streaming DMA bandwidth (Figure 4) without starving the
         * message rate.
         */
        Bytes readWindowBytes = 32 * 4096;
        Bytes writeWindowBytes = 16 * 4096;
    };

    /**
     * @param sim    owning simulator
     * @param name   diagnostic name
     * @param memory host memory the DMA targets (may be null: the memory
     *               side is then free, e.g. LLC-resident via DDIO)
     * @param h2d_path links crossed by reads, device-to-root order
     * @param d2h_path links crossed by writes, device-to-root order
     */
    DmaEngine(sim::Simulator &sim, std::string name,
              mem::MemorySystem *memory,
              std::vector<sim::BandwidthServer *> h2d_path,
              std::vector<sim::BandwidthServer *> d2h_path);
    DmaEngine(sim::Simulator &sim, std::string name,
              mem::MemorySystem *memory,
              std::vector<sim::BandwidthServer *> h2d_path,
              std::vector<sim::BandwidthServer *> d2h_path, Config config);

    /** Options controlling where a transfer's memory side lands. */
    struct Options
    {
        /**
         * Memory flow charged for the transfer's DRAM traffic; nullptr
         * means the access is satisfied from LLC (DDIO hit): no DRAM
         * bandwidth and negligible latency.
         */
        sim::FairShareResource::Flow *memFlow = nullptr;
        /**
         * Whether the transfer stalls on memory loaded latency (true for
         * reads; posted writes complete at the link).
         */
        bool stallOnMemory = true;
    };

    /** Completion of a transfer; receives its total latency. */
    using Done = sim::Callback<void(Tick)>;

    /**
     * Device reads @p bytes of host memory (H2D data flow).
     * @p done fires when the last chunk reaches the device; it receives
     * the total latency of the transfer.
     */
    void read(Bytes bytes, Options options, Done done);

    /** Device writes @p bytes to host memory (D2H data flow). */
    void write(Bytes bytes, Options options, Done done);

    const Config &config() const { return config_; }

  private:
    /**
     * One transfer in flight. Jobs are parked in a slot table and chunk
     * continuations name them by index, so a chunk's closure is
     * (engine, job, chunk, hop) and fits EventCallback's inline buffer.
     */
    struct Job
    {
        Bytes remainingToIssue = 0;
        unsigned chunksOutstanding = 0;
        Tick start = 0;
        bool isRead = false;
        Options options;
        Done done;
    };

    void submit(Bytes bytes, bool is_read, Options options, Done done);
    void pump();
    void startChunk(std::uint32_t job, Bytes chunk);
    /** Cross link @p hop of the job's path, then the next one. */
    void linkHop(std::uint32_t job, Bytes chunk, std::size_t hop);
    void completeJobChunk(std::uint32_t job);
    void releaseSlot(bool is_read, Bytes chunk);
    void finishRead(std::uint32_t job, Bytes chunk);
    void finishWrite(std::uint32_t job, Bytes chunk);

    sim::Simulator &sim_;
    std::string name_;
    mem::MemorySystem *memory_;
    std::vector<sim::BandwidthServer *> h2dPath_;
    std::vector<sim::BandwidthServer *> d2hPath_;
    Config config_;
    Bytes inflightReadBytes_ = 0;
    Bytes inflightWriteBytes_ = 0;
    sim::SlotTable<Job> jobs_;
    /** Jobs with chunks left to issue, per direction (job indices). */
    sim::Ring<std::uint32_t> readQueue_;
    sim::Ring<std::uint32_t> writeQueue_;
};

} // namespace smartds::pcie

#endif // SMARTDS_PCIE_PCIE_H_
