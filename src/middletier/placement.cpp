#include "middletier/placement.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace smartds::middletier {

Placement::Placement(const std::vector<net::NodeId> &nodes,
                     const std::vector<unsigned> &racks)
{
    // Dense rack indices, in order of first appearance.
    std::vector<unsigned> ids;
    all_.reserve(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const unsigned id = i < racks.size() ? racks[i] : 0;
        const auto it = std::find(ids.begin(), ids.end(), id);
        all_.push_back({nodes[i], static_cast<unsigned>(it - ids.begin())});
        if (it == ids.end())
            ids.push_back(id);
    }
    racks_ = std::max<unsigned>(1, static_cast<unsigned>(ids.size()));
}

std::vector<Placement::Node> &
Placement::healthy(const NodeHealthView &health)
{
    if (healthyOf_ == &health && healthyVersion_ == health.version())
        return healthy_;
    healthy_.clear();
    for (const Node &n : all_)
        if (!health.suspected(n.id))
            healthy_.push_back(n);
    healthyOf_ = &health;
    healthyVersion_ = health.version();
    return healthy_;
}

std::vector<Placement::Node> &
Placement::spare(const NodeHealthView *health, unsigned count,
                 std::span<const net::NodeId> placed)
{
    const auto is_placed = [placed](net::NodeId id) {
        return std::find(placed.begin(), placed.end(), id) != placed.end();
    };
    for (const Node &n : all_)
        if (is_placed(n.id))
            taken_.push_back(n.rack);
    for (const bool skip_suspected : {true, false}) {
        spare_.clear();
        for (const Node &n : all_)
            if (!is_placed(n.id) &&
                !(skip_suspected && health && health->suspected(n.id)))
                spare_.push_back(n);
        if (spare_.size() >= count)
            break;
    }
    return spare_;
}

std::span<const net::NodeId>
Placement::draw(Rng &rng, const NodeHealthView *health, unsigned count,
                std::span<const net::NodeId> placed)
{
    taken_.clear();
    std::vector<Node> *pool = &all_;
    if (!placed.empty()) {
        pool = &spare(health, count, placed);
    } else if (health) {
        std::vector<Node> &h = healthy(*health);
        if (h.size() >= count)
            pool = &h;
    }
    std::vector<Node> &p = *pool;
    const std::size_t want = std::min<std::size_t>(count, p.size());
    SMARTDS_CHECK(!placed.empty() || want == count,
                  "need at least %u storage servers, have %zu", count,
                  p.size());

    // [0, picks) drawn, [picks, end) open, [end, size) set aside.
    const std::size_t n = placed.size() + count;
    std::size_t share = (n + racks_ - 1) / racks_;
    std::size_t end = p.size();
    std::size_t lowest_aside = std::numeric_limits<std::size_t>::max();
    picks_.clear();
    swaps_.clear();
    while (picks_.size() < want) {
        const std::size_t i = picks_.size();
        if (i == end) {
            // Every node left sits in a rack at or over its share.
            share = lowest_aside + 1;
            lowest_aside = std::numeric_limits<std::size_t>::max();
            end = p.size();
        }
        const std::size_t j = i + rng.below(end - i);
        const std::size_t held = static_cast<std::size_t>(
            std::count(taken_.begin(), taken_.end(), p[j].rack));
        if (held < share) {
            std::swap(p[i], p[j]);
            swaps_.emplace_back(i, j);
            taken_.push_back(p[i].rack);
            picks_.push_back(p[i].id);
        } else {
            lowest_aside = std::min(lowest_aside, held);
            std::swap(p[j], p[--end]);
            swaps_.emplace_back(j, end);
        }
    }
    // Restore storage order for the next draw over a cached pool.
    for (auto it = swaps_.rbegin(); it != swaps_.rend(); ++it)
        std::swap(p[it->first], p[it->second]);
    return picks_;
}

} // namespace smartds::middletier
