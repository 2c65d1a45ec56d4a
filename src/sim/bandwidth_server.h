/**
 * @file
 * FIFO bandwidth server: the basic pipe model for links and engines.
 *
 * A BandwidthServer serialises transfers at a fixed byte rate; a transfer
 * completes after any queueing delay behind earlier transfers, its own
 * serialisation time, and a fixed pipeline latency. This models PCIe link
 * directions, Ethernet ports, compression engines and NVMe channels, where
 * FIFO order and store-and-forward timing are the right abstraction.
 *
 * Domain locality (PDES): a server schedules only on the Simulator it was
 * constructed with, so each instance belongs wholly to one timing domain
 * (its owning component's) and is only ever touched by that domain's
 * executor shard. Cross-domain traffic reaches it via fabric messages,
 * never by direct transfer() calls from another domain.
 */

#ifndef SMARTDS_SIM_BANDWIDTH_SERVER_H_
#define SMARTDS_SIM_BANDWIDTH_SERVER_H_

#include <string>

#include "common/time.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace smartds::sim {

/** A FIFO rate server with fixed pipeline latency. */
class BandwidthServer
{
  public:
    /**
     * @param sim owning simulator
     * @param name diagnostic name
     * @param rate serialisation rate, bytes/second
     * @param base_latency fixed pipeline latency added after serialisation
     */
    BandwidthServer(Simulator &sim, std::string name, BytesPerSecond rate,
                    Tick base_latency = 0);

    /**
     * Enqueue a transfer of @p bytes; @p done fires when the last byte has
     * been delivered (queueing + serialisation + pipeline latency).
     *
     * Completions fire in submission order, whatever setRate() does in
     * between: each transfer finishes no earlier than the one before it,
     * the pipeline latency is fixed, and equal finish ticks dispatch in
     * scheduling order. Callers rely on this to park per-transfer state
     * in a FIFO instead of capturing it in @p done.
     */
    void transfer(Bytes bytes, EventCallback done);

    /** Current backlog: ticks until the server would go idle. */
    Tick backlog() const;

    /** Total ticks of busy time scheduled so far. */
    Tick busyTicks() const { return busy_; }

    /** Total bytes accepted so far. */
    Bytes totalBytes() const { return totalBytes_; }

    BytesPerSecond rate() const { return rate_; }
    Tick baseLatency() const { return baseLatency_; }
    const std::string &name() const { return name_; }

    /** Change the serialisation rate (future transfers only). */
    void setRate(BytesPerSecond rate) { rate_ = rate; }

  private:
    Simulator &sim_;
    std::string name_;
    BytesPerSecond rate_;
    Tick baseLatency_;
    Tick freeAt_ = 0;
    Tick busy_ = 0;
    Bytes totalBytes_ = 0;
};

} // namespace smartds::sim

#endif // SMARTDS_SIM_BANDWIDTH_SERVER_H_
