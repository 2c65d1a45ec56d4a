/**
 * @file
 * Weighted fair-share (processor-sharing) resource.
 *
 * Models resources where concurrent users progress simultaneously at rates
 * determined by weighted max-min fairness — the behaviour of a memory
 * controller or an HBM stack, as opposed to the FIFO serialisation of a
 * link. Flows are either *transfer* flows (a FIFO of discrete transfers
 * that progresses at the flow's allocated rate) or *demand* flows (a
 * continuous background load such as the MLC injector, consuming capacity
 * without generating events).
 *
 * Allocation is water-filling: capacity is divided in proportion to flow
 * weights; a flow never receives more than its demand or rate cap, and
 * capacity it cannot use is redistributed to the others.
 *
 * An update does only the work some result reads. It visits the flows that
 * hold a rate or a queue, in creation order (64-bit masks over the flow
 * index), so every sum and every completion is issued in the order of a
 * walk over all flows. The rates are a pure function of the competing
 * flows, their limits, their weights and the capacity, so water-filling
 * re-runs only when the competing set or a limit changed. And the pending
 * completion timer moves in place (Simulator::rescheduleAt), which
 * dispatches exactly as a cancel and a fresh schedule would.
 */

#ifndef SMARTDS_SIM_FAIR_SHARE_H_
#define SMARTDS_SIM_FAIR_SHARE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "common/units.h"
#include "sim/parking.h"
#include "sim/simulator.h"

namespace smartds::sim {

/** A processor-sharing resource with weighted, capped, elastic flows. */
class FairShareResource
{
  public:
    /** One user of the resource. Created via createFlow(). */
    class Flow
    {
      public:
        /**
         * Enqueue a transfer of @p bytes on this flow; @p done fires when
         * the flow has moved that many bytes (FIFO within the flow).
         */
        void transfer(Bytes bytes, EventCallback done);

        /**
         * Set a continuous background demand in bytes/second. The flow
         * consumes up to this much capacity without generating events.
         */
        void setDemand(BytesPerSecond demand);

        /** Cap the rate this flow may be allocated (default: unlimited). */
        void setRateCap(BytesPerSecond cap);

        /** Rate currently allocated to this flow. */
        BytesPerSecond allocatedRate() const { return rate_; }

        /** Total bytes this flow has moved (transfers + demand). */
        double deliveredBytes() const;

        const std::string &name() const { return name_; }

      private:
        friend class FairShareResource;
        struct Pending
        {
            double remaining = 0.0;
            EventCallback done;
        };

        Flow(FairShareResource &parent, std::string name, double weight,
             std::uint64_t bit)
            : parent_(parent), name_(std::move(name)), weight_(weight),
              bit_(bit)
        {
        }

        FairShareResource &parent_;
        std::string name_;
        double weight_;
        /** This flow's bit in the resource's masks (1 << creation index). */
        std::uint64_t bit_;
        BytesPerSecond cap_ = std::numeric_limits<double>::infinity();
        BytesPerSecond demand_ = 0.0;
        BytesPerSecond rate_ = 0.0;
        Ring<Pending> queue_;
        double delivered_ = 0.0;
    };

    /** Most flows one resource may have (one bit each in a mask). */
    static constexpr std::size_t kMaxFlows = 64;

    /**
     * @param sim owning simulator
     * @param name diagnostic name
     * @param capacity total capacity in bytes/second
     * @param beforeUpdate called at the start of every update, while the
     *        outgoing allocation (and utilization()) is still in force;
     *        mem::MemorySystem folds its utilisation average there
     */
    FairShareResource(Simulator &sim, std::string name,
                      BytesPerSecond capacity,
                      EventCallback beforeUpdate = nullptr);

    /**
     * Create a flow with the given fairness weight (at most kMaxFlows).
     * Never freed.
     */
    Flow *createFlow(std::string name, double weight = 1.0);

    /**
     * Fraction of capacity currently allocated, in [0, 1]. It is 1.0
     * whenever any elastic transfer is in progress; mem::MemorySystem
     * keeps the time average that latency curves read.
     */
    double utilization() const { return utilization_; }

    BytesPerSecond capacity() const { return capacity_; }
    const std::string &name() const { return name_; }

  private:
    friend class Flow;

    /**
     * Advance progress to now, fire due completions, re-run water-filling
     * if its inputs changed, and move the completion timer.
     */
    void update();

    /** Water-filling allocation over the competing flows. */
    void reallocate();

    /** Schedule (or move) the next head-of-line completion event. */
    void scheduleNext();

    /** Schedule the head transfer's callback of @p flow and pop it. */
    void complete(Flow &flow);

    /** A flow competing in one water-filling pass, with its rate limit. */
    struct Candidate
    {
        Flow *flow;
        double limit;
    };

    Simulator &sim_;
    std::string name_;
    BytesPerSecond capacity_;
    EventCallback beforeUpdate_;
    double utilization_ = 0.0;
    Tick lastUpdate_ = 0;
    EventHandle next_;
    std::vector<std::unique_ptr<Flow>> flows_;
    /** Flows with a transfer queued. */
    std::uint64_t queued_ = 0;
    /** Flows with a background demand above zero. */
    std::uint64_t demanding_ = 0;
    /** Flows allocated a rate above zero by the last water-filling. */
    std::uint64_t rated_ = 0;
    /** queued_ | demanding_ as the last water-filling saw it. */
    std::uint64_t allocatedFor_ = 0;
    /** A rate cap or a demand changed since the last water-filling. */
    bool limitsChanged_ = false;
    /** reallocate()'s scratch list, kept to reuse its capacity. */
    std::vector<Candidate> cands_;
};

} // namespace smartds::sim

#endif // SMARTDS_SIM_FAIR_SHARE_H_
