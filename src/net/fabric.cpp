#include "net/fabric.h"

#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace smartds::net {

namespace {

/** Every port's framing: RoCE at the stack's MTU. */
constexpr Framing framing{};

} // namespace

Port::Port(sim::Simulator &sim, Fabric &fabric, std::string name, NodeId id)
    : sim_(sim), fabric_(fabric), name_(std::move(name)), id_(id),
      domain_(sim.domainIndex()),
      tx_(sim, name_ + ".tx", calibration::lineRate100G),
      rx_(sim, name_ + ".rx", calibration::lineRate100G)
{
}

void
Port::send(Message &&msg, sim::EventCallback on_sent)
{
    msg.src = id_;
    const Bytes wire = framing.wireBytes(msg.wireBytes());
    if (fabric_.tracer() && msg.trace)
        msg.trace.mark = sim_.now(); // NetWire span start (hop entry)
    txQueue_.push(
        Outbound{fabric_.parked(domain_).park(std::move(msg)),
                 std::move(on_sent)});
    tx_.transfer(wire, [this]() { sent(); });
}

void
Port::sent()
{
    Outbound out = txQueue_.pop();
    if (out.onSent)
        out.onSent();
    fabric_.route(domain_, out.ticket);
}

void
Port::onReceive(Handler handler)
{
    SMARTDS_CHECK(!handler_, "port '%s' already has a receive handler",
                   name_.c_str());
    handler_ = std::move(handler);
}

void
Port::arriveParked(std::uint32_t ticket)
{
    const Message &msg = fabric_.parked(domain_)[ticket];
    const Bytes wire = framing.wireBytes(msg.wireBytes());
    rxQueue_.push(std::uint32_t{ticket});
    rx_.transfer(wire, [this]() { received(); });
}

void
Port::received()
{
    SMARTDS_CHECK(handler_, "port '%s' received with no handler",
                   name_.c_str());
    Message msg = fabric_.parked(domain_).take(rxQueue_.pop());
    trace::Tracer *tracer = fabric_.tracer();
    if (tracer && msg.trace && msg.trace.mark != 0) {
        tracer->record(msg.trace, trace::Stage::NetWire, msg.trace.mark,
                       sim_.now());
        msg.trace.mark = 0;
    }
    handler_(std::move(msg));
}

Fabric::Fabric(sim::Simulator &sim)
    : sims_{&sim}, inFlight_(1), parked_(1),
      delay_(calibration::networkOneWayDelay),
      tracers_(1, nullptr), metrics_(1, nullptr)
{
}

Fabric::Fabric(sim::ClusterSim &cluster, Tick one_way_delay)
    : cluster_(&cluster), inFlight_(cluster.domains()),
      parked_(cluster.domains()), delay_(one_way_delay),
      tracers_(cluster.domains(), nullptr),
      metrics_(cluster.domains(), nullptr)
{
    // The cluster's lookahead is the minimum cross-domain link latency;
    // a fabric with a smaller delay would let a message land inside a
    // round horizon. Rejecting here makes "zero-lookahead link" a
    // configuration error, not a runtime heisenbug.
    if (cluster.domains() > 1 && delay_ < cluster.lookahead())
        fatal("fabric one-way delay %llu is below the cluster lookahead "
              "%llu (zero- or sub-lookahead links are not allowed across "
              "timing domains)",
              static_cast<unsigned long long>(delay_),
              static_cast<unsigned long long>(cluster.lookahead()));
    sims_.reserve(cluster.domains());
    for (unsigned d = 0; d < cluster.domains(); ++d)
        sims_.push_back(&cluster.domain(d));
    if (cluster.domains() > 1) {
        outbox_.resize(sims_.size() * sims_.size());
        inbox_.resize(sims_.size() * sims_.size());
        cluster.onDrain(
            [this](unsigned src, unsigned dst) { handOver(src, dst); });
    }
}

Port *
Fabric::createPort(const std::string &name)
{
    // Ids start at 1, so slot 0 stays empty and id 0 is never a port.
    if (ports_.empty())
        ports_.emplace_back();
    const NodeId id = static_cast<NodeId>(ports_.size());
    ports_.push_back(std::make_unique<Port>(simulator(), *this, name, id));
    return ports_.back().get();
}

Port *
Fabric::find(NodeId id) const
{
    return id < ports_.size() ? ports_[id].get() : nullptr;
}

Port *
Fabric::port(NodeId id) const
{
    Port *p = find(id);
    if (!p)
        fatal("no port with node id %u", id);
    return p;
}

void
Fabric::route(unsigned domain, std::uint32_t ticket)
{
    SMARTDS_SIM_INVARIANT(domain == sim::currentDomain(),
                          "a domain-%u port sent from domain %u", domain,
                          sim::currentDomain());
    const NodeId dst_id = parked_[domain][ticket].dst;
    Port *dst = find(dst_id);
    if (!dst)
        fatal("message to unknown node id %u", dst_id);
    const unsigned dstDomain = dst->domainIndex();
    if (cluster_ && dstDomain != domain) {
        // Cross-domain hop: the message stays parked here until the drain
        // hands it over, and the cluster's channel carries an event that
        // names only the channel and the port. delay_ >= lookahead
        // (checked at construction), so the arrival tick is always beyond
        // the current round's horizon.
        const std::size_t chan = channel(domain, dstDomain);
        outbox_[chan].push(std::uint32_t{ticket});
        cluster_->post(
            domain, dstDomain, sims_[domain]->now() + delay_,
            [this, chan, dst]() { landCross(chan, dst); },
            sim::EventTag::Net);
        return;
    }
    // Same-domain (or standalone) hop: a constant-delay line; the message
    // stays parked until the destination port delivers it.
    inFlight_[domain].push(InFlight{dst, ticket});
    sims_[domain]->schedule(
        delay_, [this, domain]() { land(domain); }, sim::EventTag::Net);
}

void
Fabric::land(unsigned domain)
{
    const InFlight hop = inFlight_[domain].pop();
    hop.dst->arriveParked(hop.ticket);
}

void
Fabric::handOver(unsigned src, unsigned dst)
{
    const std::size_t chan = channel(src, dst);
    sim::Ring<std::uint32_t> &out = outbox_[chan];
    while (!out.empty())
        inbox_[chan].push(parked_[dst].park(parked_[src].take(out.pop())));
}

void
Fabric::landCross(std::size_t chan, Port *dst)
{
    const std::uint32_t ticket = inbox_[chan].pop();
    SMARTDS_SIM_INVARIANT(
        parked_[dst->domainIndex()][ticket].dst == dst->id(),
        "cross-domain arrival at node %u landed a message for node %u",
        dst->id(), parked_[dst->domainIndex()][ticket].dst);
    dst->arriveParked(ticket);
}

} // namespace smartds::net
