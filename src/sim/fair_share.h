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
 */

#ifndef SMARTDS_SIM_FAIR_SHARE_H_
#define SMARTDS_SIM_FAIR_SHARE_H_

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

        Flow(FairShareResource &parent, std::string name, double weight)
            : parent_(parent), name_(std::move(name)), weight_(weight)
        {
        }

        bool wantsCapacity() const { return !queue_.empty() || demand_ > 0; }

        FairShareResource &parent_;
        std::string name_;
        double weight_;
        BytesPerSecond cap_ = std::numeric_limits<double>::infinity();
        BytesPerSecond demand_ = 0.0;
        BytesPerSecond rate_ = 0.0;
        Ring<Pending> queue_;
        double delivered_ = 0.0;
    };

    /**
     * @param sim owning simulator
     * @param name diagnostic name
     * @param capacity total capacity in bytes/second
     */
    FairShareResource(Simulator &sim, std::string name,
                      BytesPerSecond capacity);

    /** Create a flow with the given fairness weight. Never freed. */
    Flow *createFlow(std::string name, double weight = 1.0);

    /** Fraction of capacity currently allocated, in [0, 1]. */
    double utilization() const { return utilization_; }

    /**
     * Exponentially time-averaged utilisation (~20 us horizon). The
     * instantaneous figure is 1.0 whenever any elastic transfer is in
     * progress; sustained-load consumers (latency curves, cache-thrash
     * models) want this average instead.
     */
    double averageUtilization() const;

    BytesPerSecond capacity() const { return capacity_; }
    const std::string &name() const { return name_; }

    /** Change total capacity (e.g. modelling a degraded part). */
    void setCapacity(BytesPerSecond capacity);

  private:
    friend class Flow;

    /** Advance progress to now, fire due completions, reallocate. */
    void update();

    /** Water-filling allocation over the current flow set. */
    void reallocate();

    /** Schedule the next head-of-line completion event. */
    void scheduleNext();

    /** A flow competing in one water-filling pass, with its rate limit. */
    struct Candidate
    {
        Flow *flow;
        double limit;
    };

    Simulator &sim_;
    std::string name_;
    BytesPerSecond capacity_;
    double utilization_ = 0.0;
    mutable double emaUtilization_ = 0.0;
    mutable Tick emaUpdated_ = 0;
    Tick lastUpdate_ = 0;
    EventHandle next_;
    std::vector<std::unique_ptr<Flow>> flows_;
    /** reallocate()'s scratch list, kept to reuse its capacity. */
    std::vector<Candidate> cands_;
};

} // namespace smartds::sim

#endif // SMARTDS_SIM_FAIR_SHARE_H_
