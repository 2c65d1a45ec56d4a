/**
 * @file
 * Erasure-coding unit tests: GF(256) arithmetic against the
 * first-principles reference multiply, the systematic Cauchy RS codec
 * (round trips under every tolerable loss pattern), shard payload
 * encoding with per-shard checksums, the SmartDS on-card EC engine, and
 * the Table 3 resource accounting of the optional engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/checksum.h"
#include "common/random.h"
#include "ec/gf256.h"
#include "ec/reed_solomon.h"
#include "lz4/lz4.h"
#include "mem/memory_system.h"
#include "middletier/per_request_server.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "smartds/device.h"
#include "smartds/resource_model.h"

namespace smartds::ec {
namespace {

// ---------------------------------------------------------------------
// GF(256) arithmetic
// ---------------------------------------------------------------------

TEST(Gf256, TableMulMatchesReferenceForAllPairs)
{
    // Exhaustive: the exp/log tables must agree with the shift-and-reduce
    // reference multiply on all 65536 input pairs.
    for (unsigned a = 0; a < 256; ++a)
        for (unsigned b = 0; b < 256; ++b)
            ASSERT_EQ(gfMul(static_cast<std::uint8_t>(a),
                            static_cast<std::uint8_t>(b)),
                      gfMulSlow(static_cast<std::uint8_t>(a),
                                static_cast<std::uint8_t>(b)))
                << a << " * " << b;
}

TEST(Gf256, FieldAxioms)
{
    for (unsigned a = 0; a < 256; ++a) {
        const auto x = static_cast<std::uint8_t>(a);
        EXPECT_EQ(gfMul(x, 1), x);
        EXPECT_EQ(gfMul(x, 0), 0);
        if (a != 0) {
            // a * a^-1 = 1 and division is multiplication by the inverse.
            EXPECT_EQ(gfMul(x, gfInv(x)), 1);
            EXPECT_EQ(gfDiv(x, x), 1);
            for (unsigned b = 1; b < 256; b += 37) {
                const auto y = static_cast<std::uint8_t>(b);
                EXPECT_EQ(gfMul(gfDiv(x, y), y), x);
            }
        }
    }
    // The generator has full order: 2^255 = 1, and no smaller power of
    // the whole cycle repeats the identity.
    EXPECT_EQ(gfExp(0), 1);
    EXPECT_EQ(gfExp(255), 1);
    for (unsigned p = 1; p < 255; ++p)
        EXPECT_NE(gfExp(p), 1) << "generator order divides " << p;
}

TEST(Gf256, MulAddMatchesScalarLoop)
{
    Rng rng(11);
    std::vector<std::uint8_t> dst(257), src(257), expect(257);
    for (std::size_t i = 0; i < dst.size(); ++i) {
        dst[i] = static_cast<std::uint8_t>(rng.below(256));
        src[i] = static_cast<std::uint8_t>(rng.below(256));
    }
    const std::uint8_t c = 0x8e;
    for (std::size_t i = 0; i < dst.size(); ++i)
        expect[i] = dst[i] ^ gfMulSlow(src[i], c);
    gfMulAdd(dst.data(), src.data(), c, dst.size());
    EXPECT_EQ(dst, expect);
}

// ---------------------------------------------------------------------
// RsCodec matrix construction
// ---------------------------------------------------------------------

TEST(RsCodec, GeneratorMatrixMatchesBruteForceCauchy)
{
    const RsCodec codec(4, 2);
    // Systematic rows are the identity.
    for (unsigned r = 0; r < 4; ++r)
        for (unsigned c = 0; c < 4; ++c)
            EXPECT_EQ(codec.coefficient(r, c), r == c ? 1 : 0);
    // Parity rows: 1 / (x_p + y_j) with x_p = k + p, y_j = j. Find the
    // inverse by brute-force search over the field, using only the
    // reference multiply — no shared code with the codec.
    for (unsigned p = 0; p < 2; ++p) {
        for (unsigned j = 0; j < 4; ++j) {
            const auto denom =
                static_cast<std::uint8_t>((4 + p) ^ j); // GF addition = xor
            std::uint8_t inv = 0;
            for (unsigned c = 1; c < 256; ++c) {
                if (gfMulSlow(denom, static_cast<std::uint8_t>(c)) == 1) {
                    inv = static_cast<std::uint8_t>(c);
                    break;
                }
            }
            ASSERT_NE(inv, 0u);
            EXPECT_EQ(codec.coefficient(4 + p, j), inv);
        }
    }
}

TEST(RsCodec, ShardSizeIsCeilOverKMinOne)
{
    EXPECT_EQ(RsCodec::shardSize(0, 4), 1u);
    EXPECT_EQ(RsCodec::shardSize(1, 4), 1u);
    EXPECT_EQ(RsCodec::shardSize(7, 4), 2u);
    EXPECT_EQ(RsCodec::shardSize(8, 4), 2u);
    EXPECT_EQ(RsCodec::shardSize(9, 4), 3u);
    EXPECT_EQ(RsCodec::shardSize(4096, 8), 512u);
}

// ---------------------------------------------------------------------
// Round trips under every tolerable loss pattern
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
randomStripe(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> stripe(n);
    for (auto &b : stripe)
        b = static_cast<std::uint8_t>(rng.below(256));
    return stripe;
}

/** Decode from all shards except @p lost and require the exact stripe. */
void
expectRecovers(const RsCodec &codec,
               const std::vector<std::vector<std::uint8_t>> &shards,
               const std::vector<unsigned> &lost,
               const std::vector<std::uint8_t> &stripe)
{
    std::vector<std::pair<unsigned, const std::vector<std::uint8_t> *>>
        have;
    for (unsigned i = 0; i < codec.n(); ++i)
        if (std::find(lost.begin(), lost.end(), i) == lost.end())
            have.emplace_back(i, &shards[i]);
    const auto out = codec.decode(have, stripe.size());
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, stripe);
}

TEST(RsCodec, Rs42SurvivesEverySingleAndDoubleLoss)
{
    const RsCodec codec(4, 2);
    // 1000 is not a multiple of k: the last data shard is zero-padded.
    const auto stripe = randomStripe(1000, 3);
    const auto shards = codec.encode(stripe.data(), stripe.size());
    ASSERT_EQ(shards.size(), 6u);
    for (const auto &s : shards)
        EXPECT_EQ(s.size(), RsCodec::shardSize(stripe.size(), 4));

    expectRecovers(codec, shards, {}, stripe);
    for (unsigned a = 0; a < 6; ++a) {
        expectRecovers(codec, shards, {a}, stripe);
        for (unsigned b = a + 1; b < 6; ++b)
            expectRecovers(codec, shards, {a, b}, stripe);
    }
}

TEST(RsCodec, Rs83SurvivesEveryTripleLoss)
{
    const RsCodec codec(8, 3);
    const auto stripe = randomStripe(4096, 9);
    const auto shards = codec.encode(stripe.data(), stripe.size());
    ASSERT_EQ(shards.size(), 11u);
    for (unsigned a = 0; a < 11; ++a)
        for (unsigned b = a + 1; b < 11; ++b)
            for (unsigned c = b + 1; c < 11; ++c)
                expectRecovers(codec, shards, {a, b, c}, stripe);
}

TEST(RsCodec, TinyStripesRoundTrip)
{
    for (const std::size_t size : {std::size_t{1}, std::size_t{3},
                                   std::size_t{4}, std::size_t{5}}) {
        const RsCodec codec(4, 2);
        const auto stripe = randomStripe(size, size);
        const auto shards = codec.encode(stripe.data(), stripe.size());
        expectRecovers(codec, shards, {0, 5}, stripe);
    }
}

TEST(RsCodec, DecodeNeedsKDistinctShards)
{
    const RsCodec codec(4, 2);
    const auto stripe = randomStripe(512, 1);
    const auto shards = codec.encode(stripe.data(), stripe.size());

    std::vector<std::pair<unsigned, const std::vector<std::uint8_t> *>>
        few = {{0, &shards[0]}, {1, &shards[1]}, {2, &shards[2]}};
    EXPECT_FALSE(codec.decode(few, stripe.size()).has_value());

    // A duplicate index does not count toward k.
    few.emplace_back(2, &shards[2]);
    EXPECT_FALSE(codec.decode(few, stripe.size()).has_value());
}

// ---------------------------------------------------------------------
// Shard payload encoding (middle-tier write path)
// ---------------------------------------------------------------------

TEST(EncodeShards, FunctionalShardsCarryChecksumsAndDecode)
{
    const RsCodec codec(4, 2);

    const auto block = randomStripe(3000, 21);
    net::Payload payload;
    payload.data =
        std::make_shared<const std::vector<std::uint8_t>>(block);
    payload.size = block.size();
    payload.originalSize = 4096;
    payload.compressed = true;

    const auto shards = middletier::encodeShards(codec, payload);
    ASSERT_EQ(shards.size(), 6u);

    std::vector<std::pair<unsigned, const std::vector<std::uint8_t> *>>
        pairs;
    for (unsigned s = 0; s < 6; ++s) {
        ASSERT_TRUE(shards[s].data);
        EXPECT_EQ(shards[s].ecK, 4u);
        EXPECT_EQ(shards[s].ecM, 2u);
        EXPECT_EQ(shards[s].ecShard, s);
        EXPECT_EQ(shards[s].ecStripeBytes, block.size());
        EXPECT_EQ(shards[s].originalSize, 4096u);
        EXPECT_EQ(shards[s].size, shards[s].data->size());
        EXPECT_EQ(shards[s].ecShardChecksum, xxhash32(*shards[s].data));
        if (s != 1 && s != 4) // drop one data + one parity shard
            pairs.emplace_back(s, shards[s].data.get());
    }
    const auto back = codec.decode(pairs, block.size());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, block);
}

TEST(EncodeShards, TimingShardsCarryGeometryWithoutData)
{
    const RsCodec codec(8, 3);

    net::Payload payload;
    payload.size = 2000;
    payload.originalSize = 4096;
    const auto shards = middletier::encodeShards(codec, payload);
    ASSERT_EQ(shards.size(), 11u);
    for (unsigned s = 0; s < 11; ++s) {
        EXPECT_FALSE(shards[s].data);
        EXPECT_EQ(shards[s].size, RsCodec::shardSize(2000, 8));
        EXPECT_EQ(shards[s].ecK, 8u);
        EXPECT_EQ(shards[s].ecM, 3u);
        EXPECT_EQ(shards[s].ecShard, s);
    }
}

// ---------------------------------------------------------------------
// SmartDS on-card EC engine
// ---------------------------------------------------------------------

struct EcDeviceFixture : ::testing::Test
{
    sim::Simulator sim;
    net::Fabric fabric{sim};
    mem::MemorySystem memory{sim, "mem", {}};

    device::SmartDsDevice::Config
    config(bool functional)
    {
        device::SmartDsDevice::Config c;
        c.functional = functional;
        c.ecEngine = true;
        return c;
    }
};

TEST_F(EcDeviceFixture, EngineEncodeDecodeRoundTripsOnCard)
{
    device::SmartDsDevice dev(fabric, "dev", &memory, config(true));
    const auto block = randomStripe(4096, 5);

    auto src = dev.devAlloc(4096);
    std::memcpy(src->bytes()->data(), block.data(), block.size());
    src->content.size = block.size();
    src->content.originalSize = 4096;

    const unsigned k = 4, m = 2;
    const Bytes shard_bytes = RsCodec::shardSize(block.size(), k);
    std::vector<device::BufferRef> shards;
    for (unsigned s = 0; s < k + m; ++s)
        shards.push_back(dev.devAlloc(shard_bytes));

    auto enc = dev.ecEncode(src, block.size(), shards, 0, k, m);
    sim.run();
    EXPECT_EQ(enc.completion.value(), shard_bytes);

    const RsCodec codec(k, m);
    const auto expect = codec.encode(block.data(), block.size());
    for (unsigned s = 0; s < k + m; ++s) {
        EXPECT_EQ(shards[s]->content.ecK, k);
        EXPECT_EQ(shards[s]->content.ecM, m);
        EXPECT_EQ(shards[s]->content.ecShard, s);
        EXPECT_EQ(shards[s]->content.ecStripeBytes, block.size());
        EXPECT_EQ(shards[s]->content.size, shard_bytes);
        EXPECT_EQ(0, std::memcmp(shards[s]->bytes()->data(),
                                 expect[s].data(), shard_bytes));
        EXPECT_EQ(shards[s]->content.ecShardChecksum,
                  xxhash32(shards[s]->bytes()->data(), shard_bytes));
    }

    // Decode from k surviving shards — one of them parity.
    std::vector<std::pair<unsigned, device::BufferRef>> have = {
        {0, shards[0]}, {2, shards[2]}, {3, shards[3]}, {5, shards[5]}};
    auto dst = dev.devAlloc(4096);
    auto dec = dev.ecDecode(have, block.size(), dst, 0, k, m);
    sim.run();
    EXPECT_EQ(dec.completion.value(), block.size());
    EXPECT_FALSE(dst->content.corrupted);
    EXPECT_EQ(dst->content.ecK, 0u); // whole block again, not a shard
    EXPECT_EQ(0, std::memcmp(dst->bytes()->data(), block.data(),
                             block.size()));
}

TEST_F(EcDeviceFixture, TimingEngineChargesTimeAndFlagsShortDecode)
{
    device::SmartDsDevice dev(fabric, "dev", &memory, config(false));
    auto src = dev.devAlloc(4096);
    src->content.size = 4096;
    std::vector<device::BufferRef> shards;
    for (unsigned s = 0; s < 6; ++s)
        shards.push_back(dev.devAlloc(1024));

    dev.ecEncode(src, 4096, shards, 0, 4, 2);
    sim.run();
    EXPECT_GT(sim.now(), 0u); // engine + HBM time was charged

    // Fewer than k shards cannot reconstruct: timing mode flags the
    // output corrupted instead of fabricating a stripe.
    auto dst = dev.devAlloc(4096);
    std::vector<std::pair<unsigned, device::BufferRef>> two = {
        {0, shards[0]}, {1, shards[1]}};
    dev.ecDecode(two, 4096, dst, 0, 4, 2);
    sim.run();
    EXPECT_TRUE(dst->content.corrupted);
}

// ---------------------------------------------------------------------
// Table 3 resource accounting
// ---------------------------------------------------------------------

void
expectResourcesEq(const device::ResourceVec &a,
                  const device::ResourceVec &b)
{
    EXPECT_DOUBLE_EQ(a.lutK, b.lutK);
    EXPECT_DOUBLE_EQ(a.regK, b.regK);
    EXPECT_DOUBLE_EQ(a.bram, b.bram);
}

TEST(EcResources, EngineIsAdditivePerPortAndOffByDefault)
{
    using device::ecEngineComponent;
    using device::smartdsResources;

    sim::Simulator sim;
    net::Fabric fabric(sim);
    mem::MemorySystem memory(sim, "mem", {});

    device::SmartDsDevice::Config base;
    base.ports = 2;
    device::SmartDsDevice plain(fabric, "plain", &memory, base);
    // Without the engine the pinned Table 3 numbers are untouched.
    expectResourcesEq(plain.resources(), smartdsResources(2));

    base.ecEngine = true;
    device::SmartDsDevice ec_dev(fabric, "ec", &memory, base);
    expectResourcesEq(ec_dev.resources(),
                      smartdsResources(2) +
                          ecEngineComponent().cost * 2.0);

    // The engine-equipped 6-port bitstream still fits the VCU128.
    device::SmartDsDevice::Config six;
    six.ports = 6;
    six.ecEngine = true;
    device::SmartDsDevice big(fabric, "big", &memory, six);
    const auto need = big.resources();
    const auto cap = device::vcu128Capacity();
    EXPECT_LE(need.lutK, cap.lutK);
    EXPECT_LE(need.regK, cap.regK);
    EXPECT_LE(need.bram, cap.bram);
}

} // namespace
} // namespace smartds::ec
