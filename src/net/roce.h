/**
 * @file
 * Reliable-connection (RC) transport over the fabric.
 *
 * The paper's messages are carried by "RDMA or a variant" whose transport
 * layer guarantees reliability (Section 2.2.1); SmartDS's extended RoCE
 * stack inherits that property. The main experiments run on a lossless
 * converged fabric (as the paper's testbed does), so the serving paths
 * use the fabric directly — but the substrate itself must exist: this
 * module implements RC semantics at RDMA-message granularity with
 * per-QP packet sequence numbers, cumulative acknowledgements,
 * go-back-N retransmission on timeout, a bounded send window, and a
 * loss-injection knob so tests can exercise recovery.
 */

#ifndef SMARTDS_NET_ROCE_H_
#define SMARTDS_NET_ROCE_H_

#include <deque>
#include <functional>
#include <string>

#include "common/random.h"
#include "net/fabric.h"
#include "sim/simulator.h"

namespace smartds::net {

/** One endpoint of a reliable connection. */
class ReliableQueuePair
{
  public:
    struct Config
    {
        /** Maximum unacknowledged messages in flight. */
        unsigned windowMessages = 64;
        /** Retransmission timeout (go-back-N from the window base). */
        Tick retransmitTimeout = 100 * ticksPerMicrosecond;
        /**
         * Probability that an outgoing frame (data or ack) is dropped —
         * 0 on a lossless fabric; tests raise it to exercise recovery.
         */
        double lossProbability = 0.0;
        std::uint64_t seed = 1;
    };

    ReliableQueuePair(Fabric &fabric, const std::string &name);
    ReliableQueuePair(Fabric &fabric, const std::string &name,
                      Config config);

    /** Connect both directions of a pair of endpoints. */
    static void connect(ReliableQueuePair &a, ReliableQueuePair &b);

    /**
     * Send @p msg reliably. Messages are delivered to the peer's
     * handler exactly once, in send order, regardless of losses.
     */
    void send(Message msg);

    /** Install the in-order delivery handler. */
    void onDeliver(std::function<void(Message)> handler);

    NodeId nodeId() const { return port_->id(); }

    // --- statistics -----------------------------------------------------
    std::uint64_t sent() const { return sent_; }
    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t retransmits() const { return retransmits_; }
    std::uint64_t duplicatesDropped() const { return duplicates_; }
    std::uint64_t framesLost() const { return framesLost_; }
    std::size_t inFlight() const { return window_.size(); }

  private:
    void onReceive(Message &&msg);
    void handleData(Message &&msg);
    void handleAck(const Message &msg);
    void pump();
    void transmit(const Message &msg);
    void sendAck();
    void armTimer();
    void onTimeout();
    /** Checked-build validation of go-back-N window/PSN accounting. */
    void checkWindowInvariants() const;

    sim::Simulator &sim_;
    Fabric &fabric_;
    std::string name_;
    Config config_;
    Port *port_;
    Rng rng_;
    NodeId remote_ = 0;

    // Sender state.
    std::uint64_t nextPsn_ = 1;
    std::uint64_t basePsn_ = 1; ///< oldest unacked
    std::deque<Message> window_; ///< unacked messages [basePsn_, nextPsn_)
    std::deque<Message> backlog_; ///< waiting for window space
    sim::EventHandle timer_;

    // Receiver state.
    std::uint64_t expectedPsn_ = 1;
    std::function<void(Message)> handler_;

    // Stats.
    std::uint64_t sent_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t retransmits_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t framesLost_ = 0;
};

} // namespace smartds::net

#endif // SMARTDS_NET_ROCE_H_
