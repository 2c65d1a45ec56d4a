/**
 * @file
 * Network fabric: 100 GbE ports connected by a non-blocking switch.
 *
 * Each port serialises egress traffic at line rate and ingress traffic at
 * line rate (modelling the receiver's MAC), with RoCE framing overhead
 * charged per MTU-sized packet. The switch core is non-blocking (the
 * datacenter fabrics in the paper's testbed are never the bottleneck), so
 * contention appears exactly where it does in reality: at endpoint ports.
 *
 * The fabric is lossless: it delivers messages exactly once, in order
 * per (src, dst) pair. That is the guarantee RoCE's RC transport gives
 * the middle-tier software, so no run models the transport itself.
 */

#ifndef SMARTDS_NET_FABRIC_H_
#define SMARTDS_NET_FABRIC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/calibration.h"
#include "common/time.h"
#include "common/units.h"
#include "net/message.h"
#include "sim/bandwidth_server.h"
#include "sim/parking.h"
#include "sim/pdes.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace smartds::net {

class Fabric;

/** Per-MTU-packet framing overhead on the wire. */
struct Framing
{
    /** Ethernet (incl. preamble/IFG) + IP + UDP + BTH + ICRC, bytes. */
    Bytes perPacketOverhead = 82;
    /** Path MTU. */
    Bytes mtu = calibration::roceMtu;

    /** Bytes a message of @p app_bytes occupies on the wire. */
    constexpr Bytes
    wireBytes(Bytes app_bytes) const
    {
        const Bytes packets = app_bytes == 0
                                  ? 1
                                  : (app_bytes + mtu - 1) / mtu;
        return app_bytes + packets * perPacketOverhead;
    }
};

/**
 * One 100 GbE port with RoCE framing. Owns egress/ingress line-rate
 * servers and delivers received messages to a handler installed by the
 * owning NIC/device.
 */
class Port
{
  public:
    /**
     * Receive handler. It gets the delivered message as an rvalue: it may
     * move the message on (into a queue, a parked table, a coroutine) or
     * only read it; the port drops whatever is left when it returns.
     */
    using Handler = std::function<void(Message &&)>;

    Port(sim::Simulator &sim, Fabric &fabric, std::string name, NodeId id);

    /**
     * Send @p msg toward msg.dst. @p on_sent (optional) fires when the
     * last byte has left this port (local send completion).
     */
    void send(Message &&msg, sim::EventCallback on_sent = nullptr);

    /** Install the receive handler (exactly one per port). */
    void onReceive(Handler handler);

    NodeId id() const { return id_; }
    const std::string &name() const { return name_; }

    /** Timing domain this port (and its node) executes in. */
    unsigned domainIndex() const { return domain_; }

  private:
    friend class Fabric;

    /** A message serialising onto the wire, with its send completion. */
    struct Outbound
    {
        std::uint32_t ticket = 0; ///< in the fabric's parked messages
        sim::EventCallback onSent;
    };

    /**
     * Called by the fabric when a message parked in this port's domain
     * (see Fabric::parked) arrives from the switch.
     */
    void arriveParked(std::uint32_t ticket);

    /** tx_ completion: the oldest outbound message has left the port. */
    void sent();

    /** rx_ completion: the oldest inbound message reaches the handler. */
    void received();

    sim::Simulator &sim_;
    Fabric &fabric_;
    std::string name_;
    NodeId id_;
    /** Captured from sim::currentDomain() at creation (see createPort). */
    unsigned domain_;
    sim::BandwidthServer tx_;
    sim::BandwidthServer rx_;
    /**
     * Messages inside tx_/rx_, oldest first, as tickets into the fabric's
     * parked messages. A BandwidthServer completes in submission order,
     * so each completion pops the front.
     */
    sim::Ring<Outbound> txQueue_;
    sim::Ring<std::uint32_t> rxQueue_;
    Handler handler_;
};

/**
 * The switch connecting all ports; non-blocking core.
 *
 * A fabric can span a single Simulator (the legacy, single-domain case)
 * or a sim::ClusterSim, in which case each port belongs to the timing
 * domain that was current when it was created, same-domain messages
 * take the exact code path they always did, and cross-domain messages
 * travel through the cluster's deterministic channels. The fabric's
 * one-way delay is the lookahead that makes those channels safe, which
 * is why a zero-delay fabric over multiple domains is rejected at
 * construction (config) time.
 */
class Fabric
{
  public:
    explicit Fabric(sim::Simulator &sim);

    /**
     * Span a cluster: ports created under sim::DomainScope(d) — or from
     * events executing in domain d — attach to domain d's simulator.
     * Fatal if @p one_way_delay is below the cluster's lookahead (a
     * cross-domain event could then land inside a round horizon).
     */
    explicit Fabric(sim::ClusterSim &cluster,
                    Tick one_way_delay = calibration::networkOneWayDelay);

    /** Create a port with a fresh node id, in the current domain. */
    Port *createPort(const std::string &name);

    /** Look up a port by node id (fatal if unknown). */
    Port *port(NodeId id) const;

    /** The current timing domain's simulator (domain 0 when standalone). */
    sim::Simulator &simulator() { return *sims_[sim::currentDomain()]; }

    /** Number of timing domains this fabric spans (1 when standalone). */
    unsigned domains() const { return static_cast<unsigned>(sims_.size()); }

    /**
     * Attach the run's tracer/metrics (owned by the experiment). Nearly
     * every component holds the fabric, so this is the discovery point for
     * both; null (the default) disables all instrumentation. The plain
     * setters install one instance for every domain (fine for
     * single-domain runs); multi-domain experiments install one tracer
     * and registry per domain so recording never crosses a shard.
     */
    void
    setTracer(trace::Tracer *tracer)
    {
        for (auto &t : tracers_)
            t = tracer;
    }
    void
    setMetrics(trace::MetricsRegistry *metrics)
    {
        for (auto &m : metrics_)
            m = metrics;
    }
    void setDomainTracer(unsigned d, trace::Tracer *t) { tracers_[d] = t; }
    void
    setDomainMetrics(unsigned d, trace::MetricsRegistry *m)
    {
        metrics_[d] = m;
    }

    /**
     * Messages parked while inside a port or a storage disk, one table per
     * timing domain (touched only by that domain's shard). Components keep
     * just the ticket, so memory follows a domain's messages in flight,
     * not the sum of every port's peak backlog.
     */
    sim::SlotTable<Message> &parked(unsigned domain) { return parked_[domain]; }

    /** The current domain's tracer (null disables tracing). */
    trace::Tracer *tracer() const { return tracers_[sim::currentDomain()]; }

    /** The current domain's metrics registry. */
    trace::MetricsRegistry *
    metrics() const
    {
        return metrics_[sim::currentDomain()];
    }

  private:
    friend class Port;

    /** A parked message on a same-domain link, bound for @ref dst. */
    struct InFlight
    {
        Port *dst = nullptr;
        std::uint32_t ticket = 0;
    };

    /**
     * Route the message parked at @p ticket in @p domain from a sender's
     * egress to the destination port.
     */
    void route(unsigned domain, std::uint32_t ticket);

    /** Delay-line completion: the oldest in-flight message of @p domain. */
    void land(unsigned domain);

    /** Index of the (src, dst) channel in outbox_ and inbox_. */
    std::size_t
    channel(unsigned src, unsigned dst) const
    {
        return static_cast<std::size_t>(src) * sims_.size() + dst;
    }

    /**
     * Drain hook (between rounds): move the messages posted on the (src,
     * dst) channel from src's parked table into dst's.
     */
    void handOver(unsigned src, unsigned dst);

    /** Cross-domain arrival: the oldest handed-over message of @p chan. */
    void landCross(std::size_t chan, Port *dst);

    /** The port with node id @p id, or null if there is none. */
    Port *find(NodeId id) const;

    std::vector<sim::Simulator *> sims_; ///< one per domain
    sim::ClusterSim *cluster_ = nullptr; ///< null when standalone
    /**
     * Same-domain messages on the wire (still parked), one FIFO per
     * domain, touched only by that domain's shard. The link delay is
     * constant, so arrivals come in send order and each pops its
     * domain's front.
     */
    std::vector<sim::Ring<InFlight>> inFlight_;
    std::vector<sim::SlotTable<Message>> parked_; ///< one per domain
    /**
     * Cross-domain messages, one ticket FIFO per (src, dst) channel (see
     * channel()). outbox_ holds tickets into src's parked table; only
     * src's thread writes it, during a round. The drain moves each
     * message into dst's parked table and queues its new ticket on
     * inbox_, which only dst's thread reads. A channel's posts arrive at
     * send tick + delay_ and the merge keeps them in post order, so each
     * arrival pops its inbox's front.
     */
    std::vector<sim::Ring<std::uint32_t>> outbox_;
    std::vector<sim::Ring<std::uint32_t>> inbox_;
    Tick delay_;
    /** Ports indexed by node id; createPort() hands ids out densely. */
    std::vector<std::unique_ptr<Port>> ports_;
    std::vector<trace::Tracer *> tracers_;         ///< one slot per domain
    std::vector<trace::MetricsRegistry *> metrics_; ///< one slot per domain
};

} // namespace smartds::net

#endif // SMARTDS_NET_FABRIC_H_
