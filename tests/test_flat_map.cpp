/**
 * @file
 * sim::FlatMap against std::unordered_map: seeded interleavings of
 * insert, find and erase must agree operation by operation, including
 * erases whose probe runs wrap around the end of the slot array and
 * erases right after an insert that grew the array.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "sim/flat_map.h"

namespace smartds {
namespace {

/** Identity hash: the test places keys in chosen home slots. */
struct IdentityHash
{
    std::uint64_t operator()(std::uint64_t key) const { return key; }
};

/** A value that owns heap memory, so moves and destruction are checked. */
struct Payload
{
    std::vector<std::uint64_t> words;
};

/** The reference implementation (lookups only, never iterated). */
using Reference = std::unordered_map<std::uint64_t, std::uint64_t>;

template <typename Map>
void
expectSame(Map &flat, const Reference &reference, std::uint64_t key_space)
{
    ASSERT_EQ(flat.size(), reference.size());
    for (std::uint64_t k = 0; k < key_space; ++k) {
        const auto it = reference.find(k);
        const auto *v = flat.find(k);
        ASSERT_EQ(v != nullptr, it != reference.end()) << "key " << k;
        if (v) {
            ASSERT_EQ(v->words.at(0), it->second) << "key " << k;
        }
    }
}

/** Random insert/find/erase over @p key_space keys with hash @p Hash. */
template <typename Hash>
void
differential(std::uint64_t seed, std::uint64_t key_space, int ops)
{
    sim::FlatMap<std::uint64_t, Payload, Hash> flat;
    Reference reference;
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
        const std::uint64_t key = rng.below(key_space);
        const std::uint64_t op = rng.below(10);
        if (op < 5) {
            const std::uint64_t value = rng();
            const auto [v, fresh] = flat.tryEmplace(key, Payload{{value}});
            const bool ref_fresh = reference.emplace(key, value).second;
            ASSERT_EQ(fresh, ref_fresh) << "op " << i;
            ASSERT_EQ(v->words.at(0), reference.at(key)) << "op " << i;
        } else if (op < 8) {
            ASSERT_EQ(flat.erase(key), reference.erase(key) == 1)
                << "op " << i;
        } else {
            const auto *v = flat.find(key);
            const auto it = reference.find(key);
            ASSERT_EQ(v != nullptr, it != reference.end()) << "op " << i;
        }
        if (i % 97 == 0)
            expectSame(flat, reference, key_space);
    }
    expectSame(flat, reference, key_space);
}

TEST(FlatMap, MatchesUnorderedMapOverSeededInterleavings)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        differential<sim::FlatHash<std::uint64_t>>(seed, 64, 4000);
        differential<sim::FlatHash<std::uint64_t>>(seed + 100, 4096, 20000);
    }
}

TEST(FlatMap, MatchesUnorderedMapUnderClusteredHashes)
{
    // Identity hashes over a dense key range make long probe runs that
    // cross the end of the array, so backward-shift deletion runs over
    // the wrap-around all the time.
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        differential<IdentityHash>(seed, 48, 6000);
}

TEST(FlatMap, EraseAtTheWrapAround)
{
    sim::FlatMap<std::uint64_t, Payload, IdentityHash> flat;
    // Fill the array once so it settles at 16 slots, then clear it.
    for (std::uint64_t k = 0; k < 8; ++k)
        flat.tryEmplace(k, Payload{{k}});
    ASSERT_EQ(flat.capacity(), 16u);
    for (std::uint64_t k = 0; k < 8; ++k)
        ASSERT_TRUE(flat.erase(k));
    // Four keys homed on the last slot (15, 31, 47, 63): they occupy
    // slots 15, 0, 1, 2. A key homed on slot 0 (16) lands behind them.
    for (const std::uint64_t k : {15u, 31u, 47u, 63u, 16u})
        flat.tryEmplace(k, Payload{{k * 10}});
    ASSERT_EQ(flat.capacity(), 16u);
    // Erasing the run's head (slot 15) must pull the wrapped members
    // back across the boundary, and keep 16 findable.
    ASSERT_TRUE(flat.erase(15));
    for (const std::uint64_t k : {31u, 47u, 63u, 16u}) {
        const Payload *v = flat.find(k);
        ASSERT_NE(v, nullptr) << k;
        EXPECT_EQ(v->words.at(0), k * 10);
    }
    // And erasing in the wrapped part (slot 0 now holds 47).
    ASSERT_TRUE(flat.erase(47));
    for (const std::uint64_t k : {31u, 63u, 16u})
        ASSERT_NE(flat.find(k), nullptr) << k;
    EXPECT_EQ(flat.find(47), nullptr);
    EXPECT_EQ(flat.find(15), nullptr);
    EXPECT_EQ(flat.size(), 3u);
}

TEST(FlatMap, EraseDuringGrowth)
{
    sim::FlatMap<std::uint64_t, Payload, sim::FlatHash<std::uint64_t>> flat;
    Reference reference;
    // Insert until each growth, then erase right after the insert that
    // grew the array, interleaved with further inserts.
    std::uint64_t next = 0;
    std::size_t last_capacity = flat.capacity();
    for (int round = 0; round < 2000; ++round) {
        const std::uint64_t key = next++;
        flat.tryEmplace(key, Payload{{key + 7}});
        reference.emplace(key, key + 7);
        if (flat.capacity() != last_capacity) {
            last_capacity = flat.capacity();
            // Erase the newest key and an old one at once.
            ASSERT_TRUE(flat.erase(key));
            reference.erase(key);
            const std::uint64_t old = key / 2;
            ASSERT_EQ(flat.erase(old), reference.erase(old) == 1);
        }
        if (round % 3 == 0) {
            const std::uint64_t victim = round / 3;
            ASSERT_EQ(flat.erase(victim), reference.erase(victim) == 1);
        }
    }
    expectSame(flat, reference, next);
}

TEST(FlatMap, RecyclesItsArrayWhenWarm)
{
    sim::FlatMap<std::uint64_t, std::uint64_t> flat;
    for (std::uint64_t k = 0; k < 100; ++k)
        flat.tryEmplace(k, k);
    const std::size_t capacity = flat.capacity();
    // A steady stream of inserts and erases at the same occupancy never
    // grows the array again.
    for (std::uint64_t k = 100; k < 100000; ++k) {
        flat.tryEmplace(k, k);
        ASSERT_TRUE(flat.erase(k - 100));
    }
    EXPECT_EQ(flat.capacity(), capacity);
    EXPECT_EQ(flat.size(), 100u);
    flat.clear();
    EXPECT_TRUE(flat.empty());
    EXPECT_EQ(flat.find(99999), nullptr);
}

} // namespace
} // namespace smartds
