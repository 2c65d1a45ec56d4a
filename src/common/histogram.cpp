#include "common/histogram.h"

#include <bit>

namespace smartds {

namespace {

/** log2 of the sub-buckets per octave. */
constexpr unsigned subBucketBits = 5;
constexpr std::uint64_t subBuckets = 1ULL << subBucketBits;

} // namespace

LogHistogram::LogHistogram()
{
    // One linear region for values < subBuckets, then one octave of
    // subBuckets/2 buckets for each further doubling up to 2^64.
    const unsigned octaves = 64 - subBucketBits;
    counts_.assign(subBuckets + octaves * (subBuckets / 2), 0);
}

unsigned
LogHistogram::bucketIndex(std::uint64_t value) const
{
    if (value < subBuckets)
        return static_cast<unsigned>(value);
    const unsigned msb = 63 - std::countl_zero(value);
    const unsigned octave = msb - (subBucketBits - 1); // >= 1
    // Position of the value within its octave, quantised to half the
    // sub-bucket count (the top bit is implied).
    const unsigned within = static_cast<unsigned>(
        (value >> (msb - (subBucketBits - 1))) - (subBuckets / 2));
    return static_cast<unsigned>(subBuckets +
                                 (octave - 1) * (subBuckets / 2) + within);
}

std::uint64_t
LogHistogram::bucketLow(unsigned index) const
{
    if (index < subBuckets)
        return index;
    const unsigned rest = index - static_cast<unsigned>(subBuckets);
    const unsigned octave = rest / (subBuckets / 2) + 1;
    const unsigned within = rest % (subBuckets / 2);
    const unsigned msb = octave + (subBucketBits - 1);
    return (subBuckets / 2 + within) << (msb - (subBucketBits - 1));
}

std::uint64_t
LogHistogram::bucketHigh(unsigned index) const
{
    if (index < subBuckets)
        return index;
    const unsigned rest = index - static_cast<unsigned>(subBuckets);
    const unsigned octave = rest / (subBuckets / 2) + 1;
    const unsigned within = rest % (subBuckets / 2);
    const unsigned msb = octave + (subBucketBits - 1);
    const std::uint64_t step = 1ULL << (msb - (subBucketBits - 1));
    return ((subBuckets / 2 + within) << (msb - (subBucketBits - 1))) +
           step - 1;
}

void
LogHistogram::record(std::uint64_t value)
{
    record(value, 1);
}

void
LogHistogram::record(std::uint64_t value, std::uint64_t count)
{
    if (count == 0)
        return;
    counts_[bucketIndex(value)] += count;
    total_ += count;
    sum_ += static_cast<double>(value) * static_cast<double>(count);
    if (value < min_)
        min_ = value;
    if (value > max_)
        max_ = value;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_ += other.sum_;
    if (other.total_) {
        if (other.min_ < min_)
            min_ = other.min_;
        if (other.max_ > max_)
            max_ = other.max_;
    }
}

void
LogHistogram::reset()
{
    counts_.assign(counts_.size(), 0);
    total_ = 0;
    sum_ = 0.0;
    min_ = ~0ULL;
    max_ = 0;
}

double
LogHistogram::mean() const
{
    return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

std::uint64_t
LogHistogram::quantile(double q) const
{
    if (total_ == 0)
        return 0;
    if (q <= 0.0)
        return minValue();
    if (q >= 1.0)
        return maxValue();
    const double target = q * static_cast<double>(total_);
    double seen = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        const double next = seen + static_cast<double>(counts_[i]);
        if (next >= target) {
            const double frac =
                (target - seen) / static_cast<double>(counts_[i]);
            const std::uint64_t lo = bucketLow(static_cast<unsigned>(i));
            const std::uint64_t hi = bucketHigh(static_cast<unsigned>(i));
            std::uint64_t v = lo + static_cast<std::uint64_t>(
                                       frac * static_cast<double>(hi - lo));
            // Interpolation within the final bucket can overshoot the
            // largest recorded value; clamp to the observed range.
            if (v > max_)
                v = max_;
            if (v < min_)
                v = min_;
            return v;
        }
        seen = next;
    }
    return maxValue();
}

} // namespace smartds
