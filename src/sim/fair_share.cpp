#include "sim/fair_share.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace smartds::sim {

namespace {

/** Bytes of slack below which a transfer counts as finished. */
constexpr double completionTolerance = 1e-6;

/** Averaging horizon of averageUtilization(). */
constexpr double utilizationTauSeconds = 20e-6;

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
    parent_.update();
}

void
FairShareResource::Flow::setDemand(BytesPerSecond demand)
{
    SMARTDS_CHECK(queue_.empty(),
                   "flow '%s' mixes background demand with transfers",
                   name_.c_str());
    demand_ = demand;
    parent_.update();
}

void
FairShareResource::Flow::setRateCap(BytesPerSecond cap)
{
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
                                     BytesPerSecond capacity)
    : sim_(sim), name_(std::move(name)), capacity_(capacity)
{
    SMARTDS_CHECK(capacity > 0.0, "fair-share resource '%s' needs capacity",
                   name_.c_str());
}

FairShareResource::Flow *
FairShareResource::createFlow(std::string name, double weight)
{
    SMARTDS_CHECK(weight > 0.0, "flow weight must be positive");
    flows_.push_back(std::unique_ptr<Flow>(
        new Flow(*this, std::move(name), weight)));
    return flows_.back().get();
}

void
FairShareResource::setCapacity(BytesPerSecond capacity)
{
    SMARTDS_CHECK(capacity > 0.0, "capacity must be positive");
    update();
    capacity_ = capacity;
    reallocate();
    scheduleNext();
}

double
FairShareResource::averageUtilization() const
{
    // Fold the utilisation that has been in force since the last fold
    // into the running average, without mutating simulation state.
    const Tick now = sim_.now();
    const double dt = toSeconds(now - emaUpdated_);
    if (dt > 0.0) {
        const double alpha = 1.0 - std::exp(-dt / utilizationTauSeconds);
        emaUtilization_ += (utilization_ - emaUtilization_) * alpha;
        emaUpdated_ = now;
    }
    return emaUtilization_;
}

void
FairShareResource::update()
{
    const Tick now = sim_.now();
    const double dt = toSeconds(now - lastUpdate_);
    // Fold the outgoing allocation into the average before changing it.
    averageUtilization();

    for (auto &flow : flows_) {
        if (flow->rate_ <= 0.0)
            continue;
        double moved = flow->rate_ * dt;
        if (flow->queue_.empty()) {
            // Pure background demand: all progress is delivered.
            flow->delivered_ += moved;
            continue;
        }
        while (moved > 0.0 && !flow->queue_.empty()) {
            auto &head = flow->queue_.front();
            const double used = std::min(moved, head.remaining);
            head.remaining -= used;
            flow->delivered_ += used;
            moved -= used;
            if (head.remaining <= completionTolerance)
                sim_.schedule(0, flow->queue_.pop().done);
        }
    }
    // Events fire at ceil()+1 ticks, so a head that was due may retain a
    // sub-tolerance remainder only through floating error; sweep those too.
    for (auto &flow : flows_) {
        while (!flow->queue_.empty() &&
               flow->queue_.front().remaining <= completionTolerance)
            sim_.schedule(0, flow->queue_.pop().done);
    }

    lastUpdate_ = now;
    reallocate();
    scheduleNext();
}

void
FairShareResource::reallocate()
{
    std::vector<Candidate> &cands = cands_;
    cands.clear();
    double sum_weight = 0.0;
    for (auto &flow : flows_) {
        flow->rate_ = 0.0;
        if (!flow->wantsCapacity())
            continue;
        double limit = flow->cap_;
        if (flow->queue_.empty())
            limit = std::min(limit, flow->demand_);
        if (limit <= 0.0)
            continue;
        cands.push_back(Candidate{flow.get(), limit});
        sum_weight += flow->weight_;
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
    utilization_ = capacity_ > 0.0 ? (capacity_ - remaining) / capacity_ : 0.0;
    if (utilization_ < 0.0)
        utilization_ = 0.0;
}

void
FairShareResource::scheduleNext()
{
    next_.cancel();
    Tick best = 0;
    bool have = false;
    for (auto &flow : flows_) {
        if (flow->queue_.empty() || flow->rate_ <= 0.0)
            continue;
        const double seconds = flow->queue_.front().remaining / flow->rate_;
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
    if (have)
        next_ = sim_.schedule(best, [this]() { update(); });
}

} // namespace smartds::sim
