/**
 * @file
 * Tests for the synthetic Silesia-like corpus: determinism, per-profile
 * compressibility ordering, block sampling and the ratio sampler.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <utility>

#include "common/checksum.h"
#include "common/random.h"
#include "corpus/corpus.h"
#include "lz4/lz4.h"

namespace smartds::corpus {
namespace {

double
profileRatio(Profile p, int effort = 1)
{
    Rng rng(77);
    const auto data = generate(p, 512 * 1024, rng);
    double sum = 0.0;
    int n = 0;
    for (std::size_t off = 0; off + 4096 <= data.size(); off += 8192) {
        sum += lz4::compressionRatio(data.data() + off, 4096, effort);
        ++n;
    }
    return sum / n;
}

TEST(Corpus, GeneratorsAreDeterministicPerSeed)
{
    for (Profile p : allProfiles()) {
        Rng a(123), b(123);
        EXPECT_EQ(generate(p, 10000, a), generate(p, 10000, b))
            << profileName(p);
    }
}

TEST(Corpus, GeneratorsProduceRequestedSize)
{
    Rng rng(1);
    for (Profile p : allProfiles()) {
        for (std::size_t n : {std::size_t{1}, std::size_t{100},
                              std::size_t{4096}, std::size_t{100001}}) {
            EXPECT_EQ(generate(p, n, rng).size(), n) << profileName(p);
        }
    }
}

TEST(Corpus, ProfileCompressibilityOrdering)
{
    // Structured data compresses hardest, imagery barely at all — the
    // ordering that makes the mixture Silesia-like.
    const double db = profileRatio(Profile::Database);
    const double xml = profileRatio(Profile::Xml);
    const double text = profileRatio(Profile::Text);
    const double exe = profileRatio(Profile::Executable);
    const double sci = profileRatio(Profile::Scientific);
    const double img = profileRatio(Profile::Imaging);

    EXPECT_LT(db, text);
    EXPECT_LT(xml, text);
    EXPECT_LT(text, exe);
    EXPECT_LT(exe, sci);
    EXPECT_LE(sci, img);
    EXPECT_GT(img, 0.95);
    EXPECT_LT(db, 0.45);
}

TEST(Corpus, MixtureMeanRatioNearPaperImplied)
{
    // The paper's throughput arithmetic implies ~0.5-0.6 compressed size
    // for 4 KiB blocks of Silesia-like data under LZ4.
    SyntheticCorpus corpus(2u << 20, 42);
    RatioSampler sampler(corpus, 4096, 1, 256, 7);
    EXPECT_GT(sampler.mean(), 0.45);
    EXPECT_LT(sampler.mean(), 0.65);
}

TEST(Corpus, CorpusDeterministicPerSeed)
{
    SyntheticCorpus a(1u << 20, 5), b(1u << 20, 5), c(1u << 20, 6);
    EXPECT_EQ(a.bytes(), b.bytes());
    EXPECT_NE(a.bytes(), c.bytes());
}

TEST(Corpus, SampleBlockIsAlignedSlice)
{
    SyntheticCorpus corpus(1u << 20, 5);
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        const std::uint8_t *p = corpus.sampleBlockPtr(4096, rng);
        const auto offset = static_cast<std::size_t>(
            p - corpus.bytes().data());
        EXPECT_EQ(offset % 4096, 0u);
        EXPECT_LE(offset + 4096, corpus.size());
    }
}

TEST(Corpus, SampleBlockCopiesMatchPointers)
{
    SyntheticCorpus corpus(1u << 20, 5);
    Rng a(9), b(9);
    const auto copy = corpus.sampleBlock(4096, a);
    const std::uint8_t *p = corpus.sampleBlockPtr(4096, b);
    EXPECT_EQ(0, std::memcmp(copy.data(), p, 4096));
}

TEST(Corpus, RatioSamplerDrawsFromRecordedPopulation)
{
    SyntheticCorpus corpus(1u << 20, 42);
    RatioSampler sampler(corpus, 4096, 1, 128, 3);
    EXPECT_EQ(sampler.size(), 128u);
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        const double r = sampler.sample(rng);
        EXPECT_GT(r, 0.0);
        EXPECT_LE(r, 1.0);
    }
}

TEST(Corpus, RatioSamplerMeanStableAcrossSampleCount)
{
    SyntheticCorpus corpus(2u << 20, 42);
    RatioSampler small(corpus, 4096, 1, 64, 3);
    RatioSampler big(corpus, 4096, 1, 512, 3);
    EXPECT_NEAR(small.mean(), big.mean(), 0.08);
}

TEST(Corpus, HigherEffortImprovesStructuredRatio)
{
    const double fast = profileRatio(Profile::Xml, 1);
    const double hard = profileRatio(Profile::Xml, 9);
    EXPECT_LE(hard, fast + 1e-9);
}

TEST(Corpus, ProfileNamesAreUnique)
{
    std::set<std::string> names;
    for (Profile p : allProfiles())
        names.insert(profileName(p));
    EXPECT_EQ(names.size(), allProfiles().size());
}

// ---- Pinned bytes ----------------------------------------------------------
//
// Every compression ratio, result CSV and state hash downstream derives from
// the corpus bytes and the ratio sampler's draws, so they are pinned exactly:
// a generator rewrite must reproduce each byte and each Rng draw, including
// the draws for bytes a generator makes past its share and then drops.

/** xxHash32 of @p bytes followed by the next 64-bit draw of @p rng. */
std::uint32_t
digestWithNextDraw(const std::vector<std::uint8_t> &bytes, Rng &rng)
{
    const std::uint64_t next = rng();
    std::vector<std::uint8_t> all(bytes);
    const auto *p = reinterpret_cast<const std::uint8_t *>(&next);
    all.insert(all.end(), p, p + sizeof(next));
    return xxhash32(all);
}

TEST(Corpus, PinnedCorpusBytes)
{
    EXPECT_EQ(xxhash32(SyntheticCorpus(4u << 20, 42).bytes()), 0x39bd8b47u);
    EXPECT_EQ(xxhash32(SyntheticCorpus(8u << 20, 42).bytes()), 0x9e03a54eu);
}

TEST(Corpus, PinnedGeneratorOutput)
{
    // Sizes that end inside a record (64-byte rows, 24-byte stars, 2-byte
    // samples, the 32-byte XML prologue), so each generator's last record
    // is cut; the trailing draw pins the draws made for the cut bytes.
    struct Row
    {
        Profile profile;
        std::uint64_t seed;
        std::size_t size;
        std::uint32_t digest;
    };
    const Row rows[] = {
        {Profile::Text, 1, 17, 0x1cd8fccau},
        {Profile::Text, 1, 100003, 0x7e59e262u},
        {Profile::Text, 2024, 17, 0x61d60eb4u},
        {Profile::Text, 2024, 100003, 0xe1526964u},
        {Profile::Xml, 1, 17, 0xe81144d4u},
        {Profile::Xml, 1, 100003, 0x680b5e5bu},
        {Profile::Xml, 2024, 17, 0xe7d01737u},
        {Profile::Xml, 2024, 100003, 0x2fb9cf20u},
        {Profile::Database, 1, 17, 0xa49b3c85u},
        {Profile::Database, 1, 100003, 0xe26b65a8u},
        {Profile::Database, 2024, 17, 0xca4cfd69u},
        {Profile::Database, 2024, 100003, 0x45ee0cd2u},
        {Profile::Executable, 1, 17, 0x465255a0u},
        {Profile::Executable, 1, 100003, 0x7bd2e63au},
        {Profile::Executable, 2024, 17, 0x7290e4bau},
        {Profile::Executable, 2024, 100003, 0x071410d6u},
        {Profile::Scientific, 1, 17, 0xd5bfa4b2u},
        {Profile::Scientific, 1, 100003, 0x3a985da3u},
        {Profile::Scientific, 2024, 17, 0xe2c48fe0u},
        {Profile::Scientific, 2024, 100003, 0x5de9aec9u},
        {Profile::Imaging, 1, 17, 0x868f9013u},
        {Profile::Imaging, 1, 100003, 0x7bd2bf6eu},
        {Profile::Imaging, 2024, 17, 0xb412f07eu},
        {Profile::Imaging, 2024, 100003, 0x4f36a24bu},
    };
    for (const Row &row : rows) {
        Rng rng(row.seed);
        const auto bytes = generate(row.profile, row.size, rng);
        ASSERT_EQ(bytes.size(), row.size);
        EXPECT_EQ(digestWithNextDraw(bytes, rng), row.digest)
            << profileName(row.profile) << " seed " << row.seed << " size "
            << row.size;
    }
}

TEST(Corpus, PinnedRatioSamplerRatios)
{
    // sample() returns ratios_[rng.below(size())]; a twin Rng replays the
    // indices, which recovers every recorded ratio in index order.
    const SyntheticCorpus corpus(4u << 20, 42);
    const RatioSampler sampler(corpus, 4096, 1, 512, 7);
    ASSERT_EQ(sampler.size(), 512u);
    std::vector<double> ratios(512, -1.0);
    std::size_t seen = 0;
    Rng draws(11), twin(11);
    for (int i = 0; i < 100000 && seen < ratios.size(); ++i) {
        const double r = sampler.sample(draws);
        double &slot = ratios[twin.below(ratios.size())];
        if (slot < 0.0)
            ++seen;
        slot = r;
    }
    ASSERT_EQ(seen, ratios.size());
    double sum = 0.0;
    for (double r : ratios)
        sum += r;
    EXPECT_EQ(sampler.mean(), sum / 512.0);
    std::vector<std::uint8_t> bits(ratios.size() * sizeof(double));
    std::memcpy(bits.data(), ratios.data(), bits.size());
    EXPECT_EQ(xxhash32(bits), 0xbbd4f26cu);
    std::uint64_t mean_bits;
    const double mean = sampler.mean();
    std::memcpy(&mean_bits, &mean, sizeof(mean));
    EXPECT_EQ(mean_bits, 0x3fe1733a00000000u);
}

TEST(Corpus, PinnedLz4Output)
{
    // The codec over every 37th 4 KiB block of the experiments' corpus.
    const SyntheticCorpus corpus(4u << 20, 42);
    const std::pair<int, std::uint32_t> pins[] = {
        {1, 0x3d870aa7u}, {3, 0xfec2a9ddu}, {9, 0x20d2e58eu}};
    for (const auto &[effort, digest] : pins) {
        std::vector<std::uint8_t> all;
        for (std::size_t b = 0; b < corpus.blockCount(4096); b += 37) {
            const std::vector<std::uint8_t> block(
                corpus.blockPtr(4096, b), corpus.blockPtr(4096, b) + 4096);
            const auto out = lz4::compress(block, effort);
            all.insert(all.end(), out.begin(), out.end());
        }
        EXPECT_EQ(xxhash32(all), digest) << "effort " << effort;
    }
}

} // namespace
} // namespace smartds::corpus
