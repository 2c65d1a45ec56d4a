/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component takes an explicit seed so that simulations are
 * reproducible run-to-run. The generator is xoshiro256**, seeded through
 * SplitMix64 per the reference recommendation; it is fast enough to sit on
 * the corpus-generation fast path.
 */

#ifndef SMARTDS_COMMON_RANDOM_H_
#define SMARTDS_COMMON_RANDOM_H_

#include <cmath>
#include <cstdint>

namespace smartds {

/**
 * xoshiro256** pseudo-random generator with convenience distributions.
 * Satisfies the UniformRandomBitGenerator requirements so it can also be
 * used with <random> distributions when needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL) { reseed(seed); }

    /** Re-initialise the state from @p seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state_)
            word = splitmix64(x);
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit value. */
    std::uint64_t
    operator()()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free approximation is fine
        // here: the bias is < 2^-64 * bound, immaterial for simulation.
        const unsigned __int128 m =
            static_cast<unsigned __int128>(operator()()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /** Exponentially distributed value with the given mean. */
    double
    exponential(double mean)
    {
        double u;
        do {
            u = uniform();
        } while (u <= 0.0);
        return -mean * std::log(u);
    }

    /** Derive an independent child generator (for per-flow streams). */
    Rng
    fork()
    {
        return Rng(operator()() ^ 0x9e3779b97f4a7c15ULL);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static std::uint64_t
    splitmix64(std::uint64_t &x)
    {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t state_[4];
};

/**
 * Exact Zipf(n, theta) sampler via Hörmann–Derflinger rejection
 * inversion (the algorithm behind Apache Commons' RejectionInversionZipf
 * and YCSB-style generators). Index i in [0, n) is drawn with
 * probability (i + 1)^-theta / H(n, theta); rank 1 (index 0) is the
 * hottest item. Constants are precomputed at construction, so a draw
 * costs a handful of log/exp calls and on average fewer than two
 * uniforms — no O(n) tables, which matters for multi-million-block
 * virtual disks.
 *
 * theta == 0 degenerates to the uniform distribution (one
 * Rng::below() draw) and n < 2 always returns 0 without drawing. A
 * sampler is a pure function of (n, theta), so one instance can serve
 * every draw with that pair.
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double theta)
        : n_(n), theta_(theta < 0.0 ? 0.0 : theta)
    {
        if (n_ < 2 || theta_ == 0.0)
            return; // trivial draws need no constants
        hIntegralX1_ = hIntegral(1.5) - 1.0;
        hIntegralN_ = hIntegral(static_cast<double>(n_) + 0.5);
        s_ = 2.0 - hIntegralInverse(hIntegral(2.5) - h(2.0));
    }

    std::uint64_t n() const { return n_; }
    double theta() const { return theta_; }

    /** Draw one index in [0, n). */
    std::uint64_t
    sample(Rng &rng) const
    {
        if (n_ < 2)
            return 0;
        if (theta_ == 0.0)
            return rng.below(n_);
        while (true) {
            const double u =
                hIntegralN_ +
                rng.uniform() * (hIntegralX1_ - hIntegralN_);
            const double x = hIntegralInverse(u);
            double k = std::floor(x + 0.5);
            if (k < 1.0)
                k = 1.0;
            else if (k > static_cast<double>(n_))
                k = static_cast<double>(n_);
            // Accept when x landed within s of the integer rank (the
            // dominating density's bulk) or on the explicit h(k) check.
            if (k - x <= s_ || u >= hIntegral(k + 0.5) - h(k))
                return static_cast<std::uint64_t>(k) - 1;
        }
    }

    /** Analytic pmf of index @p i (for tests; O(n) normalisation). */
    double
    pmf(std::uint64_t i) const
    {
        if (n_ == 0 || i >= n_)
            return 0.0;
        double norm = 0.0;
        for (std::uint64_t r = 1; r <= n_; ++r)
            norm += std::pow(static_cast<double>(r), -theta_);
        return std::pow(static_cast<double>(i + 1), -theta_) / norm;
    }

  private:
    /**
     * H(x) = integral of x^-theta: ((x^(1-theta)) - 1) / (1 - theta),
     * computed via expm1/log1p helpers so theta == 1 and small exponents
     * stay numerically stable.
     */
    double
    hIntegral(double x) const
    {
        const double log_x = std::log(x);
        return helper2((1.0 - theta_) * log_x) * log_x;
    }

    /** h(x) = x^-theta. */
    double h(double x) const { return std::exp(-theta_ * std::log(x)); }

    /** Inverse of hIntegral. */
    double
    hIntegralInverse(double x) const
    {
        double t = x * (1.0 - theta_);
        if (t < -1.0)
            t = -1.0; // clamp rounding overshoot at the distribution tail
        return std::exp(helper1(t) * x);
    }

    /** log1p(x)/x with a Taylor fallback near 0. */
    static double
    helper1(double x)
    {
        if (std::abs(x) > 1e-8)
            return std::log1p(x) / x;
        return 1.0 - x * 0.5 + x * x / 3.0 - x * x * x * 0.25;
    }

    /** expm1(x)/x with a Taylor fallback near 0. */
    static double
    helper2(double x)
    {
        if (std::abs(x) > 1e-8)
            return std::expm1(x) / x;
        return 1.0 + x * 0.5 + x * x / 6.0 + x * x * x / 24.0;
    }

    std::uint64_t n_;
    double theta_;
    double hIntegralX1_ = 0.0;
    double hIntegralN_ = 0.0;
    double s_ = 0.0;
};

} // namespace smartds

#endif // SMARTDS_COMMON_RANDOM_H_
