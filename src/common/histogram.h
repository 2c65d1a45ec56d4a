/**
 * @file
 * Log-bucketed histogram with quantile interpolation.
 *
 * Designed for latency distributions spanning nanoseconds to seconds:
 * buckets are geometric (HdrHistogram-like with sub-buckets), so relative
 * error per recorded value is bounded by the sub-bucket resolution while
 * memory stays constant regardless of sample count.
 */

#ifndef SMARTDS_COMMON_HISTOGRAM_H_
#define SMARTDS_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace smartds {

/**
 * Fixed-memory log-scale histogram of non-negative 64-bit values.
 *
 * Values are grouped into octaves; each octave is divided into 32 linear
 * sub-buckets (~3% worst-case relative quantile error).
 */
class LogHistogram
{
  public:
    LogHistogram();

    /** Record one value. */
    void record(std::uint64_t value);

    /** Record @p count occurrences of @p value. */
    void record(std::uint64_t value, std::uint64_t count);

    /** Merge another histogram. */
    void merge(const LogHistogram &other);

    /** Remove all samples. */
    void reset();

    /** Total number of recorded samples. */
    std::uint64_t count() const { return total_; }

    /** Arithmetic mean of recorded samples (bucket midpoints). */
    double mean() const;

    /** Smallest recorded value (exact). */
    std::uint64_t minValue() const { return total_ ? min_ : 0; }

    /** Largest recorded value (exact). */
    std::uint64_t maxValue() const { return total_ ? max_ : 0; }

    /**
     * Value at quantile @p q in [0, 1], linearly interpolated within the
     * containing bucket. Returns 0 for an empty histogram.
     */
    std::uint64_t quantile(double q) const;

    /** Shorthand accessors for the quantiles the paper reports. */
    std::uint64_t p50() const { return quantile(0.50); }
    std::uint64_t p99() const { return quantile(0.99); }
    std::uint64_t p999() const { return quantile(0.999); }

  private:
    unsigned bucketIndex(std::uint64_t value) const;
    std::uint64_t bucketLow(unsigned index) const;
    std::uint64_t bucketHigh(unsigned index) const;

    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
    std::uint64_t min_ = ~0ULL;
    std::uint64_t max_ = 0;
};

} // namespace smartds

#endif // SMARTDS_COMMON_HISTOGRAM_H_
