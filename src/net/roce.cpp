#include "net/roce.h"

#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace smartds::net {

ReliableQueuePair::ReliableQueuePair(Fabric &fabric,
                                     const std::string &name)
    : ReliableQueuePair(fabric, name, Config{})
{
}

ReliableQueuePair::ReliableQueuePair(Fabric &fabric,
                                     const std::string &name,
                                     Config config)
    : sim_(fabric.simulator()), fabric_(fabric), name_(name),
      config_(config), port_(fabric.createPort(name + ".port")),
      rng_(config.seed)
{
    SMARTDS_CHECK(config_.windowMessages >= 1, "window must be >= 1");
    port_->onReceive([this](Message &&msg) { onReceive(std::move(msg)); });
}

void
ReliableQueuePair::connect(ReliableQueuePair &a, ReliableQueuePair &b)
{
    a.remote_ = b.nodeId();
    b.remote_ = a.nodeId();
}

void
ReliableQueuePair::onDeliver(std::function<void(Message)> handler)
{
    handler_ = std::move(handler);
}

void
ReliableQueuePair::send(Message msg)
{
    SMARTDS_CHECK(remote_ != 0, "qp '%s' is not connected",
                   name_.c_str());
    msg.dst = remote_;
    msg.psn = nextPsn_++;
    backlog_.push_back(std::move(msg));
    pump();
}

void
ReliableQueuePair::pump()
{
    while (!backlog_.empty() && window_.size() < config_.windowMessages) {
        Message msg = std::move(backlog_.front());
        backlog_.pop_front();
        window_.push_back(msg);
        ++sent_;
        transmit(msg);
    }
    checkWindowInvariants();
    armTimer();
}

void
ReliableQueuePair::transmit(const Message &msg)
{
    // Loss is injected at the sender for determinism: a dropped frame
    // consumes wire time in reality too, but the model treats it as
    // vanishing — recovery behaviour is what matters here.
    if (config_.lossProbability > 0.0 &&
        rng_.chance(config_.lossProbability)) {
        ++framesLost_;
        return;
    }
    port_->send(msg);
}

void
ReliableQueuePair::armTimer()
{
    if (window_.empty()) {
        timer_.cancel();
        return;
    }
    if (timer_.pending())
        return;
    timer_ = sim_.schedule(
        config_.retransmitTimeout, [this]() { onTimeout(); },
        sim::EventTag::Net);
}

void
ReliableQueuePair::onTimeout()
{
    if (window_.empty())
        return;
    // Go-back-N: retransmit everything outstanding.
    for (const Message &msg : window_) {
        ++retransmits_;
        transmit(msg);
    }
    timer_ = sim_.schedule(
        config_.retransmitTimeout, [this]() { onTimeout(); },
        sim::EventTag::Net);
}

void
ReliableQueuePair::onReceive(Message &&msg)
{
    if (msg.kind == MessageKind::TransportAck) {
        handleAck(msg);
        return;
    }
    handleData(std::move(msg));
}

void
ReliableQueuePair::handleData(Message &&msg)
{
    if (msg.psn == expectedPsn_) {
        ++expectedPsn_;
        ++delivered_;
        sendAck();
        SMARTDS_CHECK(handler_, "qp '%s' delivered with no handler",
                       name_.c_str());
        handler_(std::move(msg));
    } else {
        // Out of order (go-back-N receiver drops) or duplicate: re-ack
        // the cumulative state so the sender advances/retransmits.
        ++duplicates_;
        sendAck();
    }
}

void
ReliableQueuePair::sendAck()
{
    Message ack;
    ack.dst = remote_;
    ack.kind = MessageKind::TransportAck;
    ack.headerBytes = 16; // BTH + AETH
    ack.psn = expectedPsn_ - 1; // cumulative: highest in-order received
    if (config_.lossProbability > 0.0 &&
        rng_.chance(config_.lossProbability)) {
        ++framesLost_;
        return;
    }
    port_->send(std::move(ack));
}

void
ReliableQueuePair::handleAck(const Message &msg)
{
    const std::uint64_t acked = msg.psn;
    // Cumulative acks name the highest in-order PSN received, so any
    // valid ack satisfies acked < nextPsn_. A corrupt or forged ack
    // beyond that would pop still-unacknowledged frames off the window;
    // if one of them had been lost on the wire it would never be
    // retransmitted and the connection would stall. Drop such acks.
    if (acked >= nextPsn_)
        return;
    bool advanced = false;
    while (!window_.empty() && basePsn_ <= acked) {
        window_.pop_front();
        ++basePsn_;
        advanced = true;
    }
    // Go-back-N restarts the timer whenever the window base advances
    // (pump() re-arms it for whatever is outstanding next); a stale
    // timer would otherwise fire mid-flight and retransmit spuriously.
    if (advanced)
        timer_.cancel();
    pump();
}

void
ReliableQueuePair::checkWindowInvariants() const
{
#if SMARTDS_CHECKED_BUILD
    SMARTDS_SIM_INVARIANT(
        window_.size() <= config_.windowMessages,
        "qp '%s': %zu outstanding frames exceed the %u-message window",
        name_.c_str(), window_.size(), config_.windowMessages);
    // Go-back-N keeps PSNs dense: the window holds [basePsn_, basePsn_ +
    // window_.size()) and the backlog continues straight to nextPsn_.
    SMARTDS_SIM_INVARIANT(
        window_.empty() || window_.front().psn == basePsn_,
        "qp '%s': window front psn %llu does not match base %llu",
        name_.c_str(),
        static_cast<unsigned long long>(window_.front().psn),
        static_cast<unsigned long long>(basePsn_));
    SMARTDS_SIM_INVARIANT(
        basePsn_ + window_.size() + backlog_.size() == nextPsn_,
        "qp '%s': psn accounting broke (base=%llu window=%zu backlog=%zu "
        "next=%llu)",
        name_.c_str(), static_cast<unsigned long long>(basePsn_),
        window_.size(), backlog_.size(),
        static_cast<unsigned long long>(nextPsn_));
#endif
}

} // namespace smartds::net
