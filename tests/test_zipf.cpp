/**
 * @file
 * Exact Zipf sampler tests: the rejection-inversion sampler's empirical
 * mass must match the analytic pmf index by index, draws must be
 * deterministic per seed, rank 0 must be the hottest block, higher theta
 * must concentrate more mass on the head, and the trivial/edge cases
 * (n == 0, n == 1, theta == 0) must not trap or bias.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace smartds {
namespace {

/** Empirical per-index frequency of @p draws sampler draws. */
std::vector<double>
empiricalMass(ZipfSampler &sampler, Rng &rng, std::size_t draws)
{
    std::vector<std::uint64_t> counts(sampler.n(), 0);
    for (std::size_t i = 0; i < draws; ++i) {
        const std::uint64_t k = sampler.sample(rng);
        EXPECT_LT(k, sampler.n());
        ++counts[k];
    }
    std::vector<double> freq(counts.size());
    for (std::size_t i = 0; i < counts.size(); ++i)
        freq[i] = static_cast<double>(counts[i]) /
                  static_cast<double>(draws);
    return freq;
}

TEST(Zipf, PmfIsANormalizedDecreasingDistribution)
{
    for (const double theta : {0.6, 0.99, 1.2}) {
        ZipfSampler sampler(64, theta);
        double total = 0.0;
        double prev = 1.0;
        for (std::uint64_t i = 0; i < sampler.n(); ++i) {
            const double p = sampler.pmf(i);
            EXPECT_GT(p, 0.0);
            EXPECT_LE(p, prev);
            prev = p;
            total += p;
        }
        EXPECT_NEAR(total, 1.0, 1e-12) << "theta " << theta;
    }
}

TEST(Zipf, EmpiricalMassMatchesAnalyticPmf)
{
    // 200k draws over n = 64: a >= 5-sigma deviation on any index is a
    // sampler bug, not sampling noise (sigma <= sqrt(0.25/200k) ~ 1.1e-3).
    constexpr std::size_t draws = 200000;
    for (const double theta : {0.6, 0.99, 1.2}) {
        ZipfSampler sampler(64, theta);
        Rng rng(42);
        const std::vector<double> freq =
            empiricalMass(sampler, rng, draws);
        for (std::uint64_t i = 0; i < sampler.n(); ++i)
            EXPECT_NEAR(freq[i], sampler.pmf(i), 6e-3)
                << "theta " << theta << " index " << i;
    }
}

TEST(Zipf, RankZeroIsHottest)
{
    ZipfSampler sampler(1024, 0.99);
    Rng rng(7);
    const std::vector<double> freq = empiricalMass(sampler, rng, 100000);
    for (std::uint64_t i = 1; i < sampler.n(); ++i)
        EXPECT_GE(freq[0], freq[i]);
    EXPECT_GT(freq[0], 0.05); // the head carries real mass
}

TEST(Zipf, HigherThetaConcentratesTheHead)
{
    // The YCSB knob: more skew -> a larger share of draws landing on the
    // hottest 1% of blocks. This is the property the hot-block cache
    // sweep (bench/ext_skewed_cache) relies on.
    constexpr std::uint64_t n = 4096;
    constexpr std::size_t draws = 100000;
    const std::uint64_t hot = n / 100;
    double prev_share = 0.0;
    for (const double theta : {0.6, 0.99, 1.2}) {
        ZipfSampler sampler(n, theta);
        Rng rng(11);
        std::size_t in_head = 0;
        for (std::size_t i = 0; i < draws; ++i)
            in_head += sampler.sample(rng) < hot ? 1 : 0;
        const double share =
            static_cast<double>(in_head) / static_cast<double>(draws);
        EXPECT_GT(share, prev_share) << "theta " << theta;
        prev_share = share;
    }
    EXPECT_GT(prev_share, 0.5); // theta 1.2: most traffic on 1% of blocks
}

TEST(Zipf, DeterministicPerSeed)
{
    const ZipfSampler sampler(1u << 20, 0.99);
    Rng a(123), b(123), c(124);
    bool any_different = false;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t x = sampler.sample(a);
        EXPECT_EQ(x, sampler.sample(b));
        any_different = any_different || x != sampler.sample(c);
    }
    EXPECT_TRUE(any_different); // different seed, different stream
}

TEST(Zipf, ThetaZeroIsUniform)
{
    constexpr std::uint64_t n = 32;
    ZipfSampler sampler(n, 0.0);
    Rng rng(9);
    const std::vector<double> freq = empiricalMass(sampler, rng, 200000);
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_NEAR(freq[i], 1.0 / static_cast<double>(n), 6e-3)
            << "index " << i;
}

TEST(Zipf, ThetaZeroIsOneBelowDraw)
{
    // A uniform sampler spends exactly the one raw draw Rng::below()
    // does, so the draws a caller makes after it stay where they were.
    constexpr std::uint64_t n = 1u << 24;
    const ZipfSampler sampler(n, 0.0);
    Rng rng(5), twin(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sampler.sample(rng), twin.below(n));
}

TEST(Zipf, TrivialDomainsDrawZero)
{
    // n < 2 returns 0 at any theta without consuming a draw.
    Rng rng(1), twin(1);
    for (const double theta : {0.0, 0.99, 1.2}) {
        const ZipfSampler none(0, theta), one(1, theta);
        EXPECT_EQ(none.sample(rng), 0u);
        EXPECT_EQ(one.sample(rng), 0u);
    }
    EXPECT_EQ(rng(), twin());
}

} // namespace
} // namespace smartds
