#include "sim/fair_share.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace smartds::sim {

namespace {

/** Bytes of slack below which a transfer counts as finished. */
constexpr double completionTolerance = 1e-6;

/** Index of the lowest set bit of @p mask (nonzero): a flow index. */
std::size_t
lowestFlow(std::uint64_t mask)
{
    return static_cast<std::size_t>(std::countr_zero(mask));
}

} // namespace

void
FairShareResource::Flow::transfer(Bytes bytes, EventCallback done)
{
    SMARTDS_CHECK(demand_ == 0.0,
                   "flow '%s' mixes transfers with background demand",
                   name_.c_str());
    if (bytes == 0) {
        parent_.sim_.schedule(0, std::move(done));
        return;
    }
    queue_.push(Pending{static_cast<double>(bytes), std::move(done)});
    parent_.queued_ |= bit_;
    parent_.update();
}

void
FairShareResource::Flow::setDemand(BytesPerSecond demand)
{
    SMARTDS_CHECK(queue_.empty(),
                   "flow '%s' mixes background demand with transfers",
                   name_.c_str());
    if (demand != demand_)
        parent_.limitsChanged_ = true;
    demand_ = demand;
    if (demand_ > 0)
        parent_.demanding_ |= bit_;
    else
        parent_.demanding_ &= ~bit_;
    parent_.update();
}

void
FairShareResource::Flow::setRateCap(BytesPerSecond cap)
{
    if (cap != cap_)
        parent_.limitsChanged_ = true;
    cap_ = cap;
    parent_.update();
}

double
FairShareResource::Flow::deliveredBytes() const
{
    const Tick now = parent_.sim_.now();
    const double dt = toSeconds(now - parent_.lastUpdate_);
    return delivered_ + rate_ * dt;
}

FairShareResource::FairShareResource(Simulator &sim, std::string name,
                                     BytesPerSecond capacity,
                                     EventCallback beforeUpdate)
    : sim_(sim), name_(std::move(name)), capacity_(capacity),
      beforeUpdate_(std::move(beforeUpdate))
{
    SMARTDS_CHECK(capacity > 0.0, "fair-share resource '%s' needs capacity",
                   name_.c_str());
}

FairShareResource::Flow *
FairShareResource::createFlow(std::string name, double weight)
{
    SMARTDS_CHECK(weight > 0.0, "flow weight must be positive");
    SMARTDS_CHECK(flows_.size() < kMaxFlows,
                   "fair-share resource '%s' has %zu flows already",
                   name_.c_str(), kMaxFlows);
    flows_.push_back(std::unique_ptr<Flow>(new Flow(
        *this, std::move(name), weight, std::uint64_t{1} << flows_.size())));
    return flows_.back().get();
}

void
FairShareResource::complete(Flow &flow)
{
    sim_.schedule(0, flow.queue_.pop().done);
    if (flow.queue_.empty())
        queued_ &= ~flow.bit_;
}

void
FairShareResource::update()
{
    const Tick now = sim_.now();
    const double dt = toSeconds(now - lastUpdate_);
    if (beforeUpdate_)
        beforeUpdate_();

    // Only a flow with a rate moves. Rates are never negative, so the
    // flows outside rated_ are exactly those a walk over all would skip.
    for (std::uint64_t m = rated_; m != 0; m &= m - 1) {
        Flow &flow = *flows_[lowestFlow(m)];
        double moved = flow.rate_ * dt;
        if (flow.queue_.empty()) {
            // Pure background demand: all progress is delivered.
            flow.delivered_ += moved;
            continue;
        }
        while (moved > 0.0 && !flow.queue_.empty()) {
            auto &head = flow.queue_.front();
            const double used = std::min(moved, head.remaining);
            head.remaining -= used;
            flow.delivered_ += used;
            moved -= used;
            if (head.remaining <= completionTolerance)
                complete(flow);
        }
    }
    // Events fire at ceil()+1 ticks, so a head that was due may retain a
    // sub-tolerance remainder only through floating error; sweep those too.
    for (std::uint64_t m = queued_; m != 0; m &= m - 1) {
        Flow &flow = *flows_[lowestFlow(m)];
        while (!flow.queue_.empty() &&
               flow.queue_.front().remaining <= completionTolerance)
            complete(flow);
    }

    lastUpdate_ = now;
    // The rates depend on nothing else: with the same competitors and
    // limits, water-filling would reproduce the same doubles.
    if ((queued_ | demanding_) != allocatedFor_ || limitsChanged_)
        reallocate();
    scheduleNext();
}

void
FairShareResource::reallocate()
{
    for (std::uint64_t m = rated_; m != 0; m &= m - 1)
        flows_[lowestFlow(m)]->rate_ = 0.0;
    rated_ = 0;
    allocatedFor_ = queued_ | demanding_;
    limitsChanged_ = false;

    std::vector<Candidate> &cands = cands_;
    cands.clear();
    double sum_weight = 0.0;
    for (std::uint64_t m = allocatedFor_; m != 0; m &= m - 1) {
        Flow &flow = *flows_[lowestFlow(m)];
        double limit = flow.cap_;
        if (flow.queue_.empty())
            limit = std::min(limit, flow.demand_);
        if (limit <= 0.0)
            continue;
        cands.push_back(Candidate{&flow, limit});
        sum_weight += flow.weight_;
    }

    double remaining = capacity_;
    // Water-filling: repeatedly satisfy flows whose limit is below their
    // fair share, then split what is left among the rest.
    while (!cands.empty() && remaining > 0.0) {
        const double unit = remaining / sum_weight;
        bool clipped = false;
        for (std::size_t i = 0; i < cands.size();) {
            const double share = unit * cands[i].flow->weight_;
            if (cands[i].limit <= share) {
                cands[i].flow->rate_ = cands[i].limit;
                remaining -= cands[i].limit;
                sum_weight -= cands[i].flow->weight_;
                cands[i] = cands.back();
                cands.pop_back();
                clipped = true;
            } else {
                ++i;
            }
        }
        if (!clipped) {
            for (auto &c : cands) {
                c.flow->rate_ = unit * c.flow->weight_;
            }
            remaining = 0.0;
            break;
        }
    }
    for (std::uint64_t m = allocatedFor_; m != 0; m &= m - 1) {
        const Flow &flow = *flows_[lowestFlow(m)];
        if (flow.rate_ > 0.0)
            rated_ |= flow.bit_;
    }
    utilization_ = capacity_ > 0.0 ? (capacity_ - remaining) / capacity_ : 0.0;
    if (utilization_ < 0.0)
        utilization_ = 0.0;
}

void
FairShareResource::scheduleNext()
{
    Tick best = 0;
    bool have = false;
    for (std::uint64_t m = queued_ & rated_; m != 0; m &= m - 1) {
        Flow &flow = *flows_[lowestFlow(m)];
        const double seconds = flow.queue_.front().remaining / flow.rate_;
        // simlint: allow(tick-float): the fair-share model is defined on
        // double rates; ceil + 1 makes the ETA conservative so rounding
        // can only delay (never reorder) a completion
        const Tick eta = static_cast<Tick>(
                             std::ceil(seconds *
                                       static_cast<double>(ticksPerSecond))) +
                         1;
        if (!have || eta < best) {
            best = eta;
            have = true;
        }
    }
    if (!have)
        next_.cancel();
    else if (!sim_.rescheduleAt(next_, sim_.now() + best))
        next_ = sim_.schedule(best, [this]() { update(); });
}

} // namespace smartds::sim
