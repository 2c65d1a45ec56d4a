/**
 * @file
 * Tests for the block-storage wire protocol header.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "middletier/protocol.h"

namespace smartds::middletier {
namespace {

TEST(StorageHeader, WireSizeIs64)
{
    EXPECT_EQ(StorageHeader::wireSize, 64u);
    StorageHeader h;
    EXPECT_EQ(h.encode().size(), 64u);
}

TEST(StorageHeader, EncodeDecodeRoundTrip)
{
    StorageHeader h;
    h.vmId = 0x1122334455667788ULL;
    h.blockOffset = 0xdeadbeef;
    h.tag = 987654321;
    h.payloadSize = 4096;
    h.blockChecksum = 0xfeedf00d;
    h.latencySensitive = 1;
    h.compressionEffort = 7;

    const auto wire = h.encode();
    const StorageHeader back = StorageHeader::decode(wire.data());
    EXPECT_EQ(back.vmId, h.vmId);
    EXPECT_EQ(back.blockOffset, h.blockOffset);
    EXPECT_EQ(back.tag, h.tag);
    EXPECT_EQ(back.payloadSize, h.payloadSize);
    EXPECT_EQ(back.blockChecksum, h.blockChecksum);
    EXPECT_EQ(back.latencySensitive, h.latencySensitive);
    EXPECT_EQ(back.compressionEffort, h.compressionEffort);
}

TEST(StorageHeader, WireImagePinned)
{
    // Every written field holds a distinct value, so a field that moves,
    // shrinks or swaps with another changes the image.
    StorageHeader h;
    h.vmId = 0x0102030405060708ULL;
    h.blockOffset = 0x1112131415161718ULL;
    h.tag = 0x2122232425262728ULL;
    h.payloadSize = 0x31323334;
    h.blockChecksum = 0x41424344;
    h.latencySensitive = 1;
    h.compressionEffort = 9;

    const std::array<std::uint8_t, 64> expected = {
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // vmId
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // reserved
        0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11, // blockOffset
        0x28, 0x27, 0x26, 0x25, 0x24, 0x23, 0x22, 0x21, // tag
        0x34, 0x33, 0x32, 0x31,                         // payloadSize
        0x00, 0x00, 0x00, 0x00,                         // reserved
        0x44, 0x43, 0x42, 0x41,                         // blockChecksum
        0x01,                                           // latencySensitive
        0x09,                                           // compressionEffort
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // padding
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00,
    };
    const auto wire = h.encode();
    for (std::size_t i = 0; i < wire.size(); ++i)
        EXPECT_EQ(wire[i], expected[i]) << "at byte " << i;
    EXPECT_EQ(StorageHeader::decode(expected.data()), h);
}

TEST(StorageHeader, PaddingIsZeroed)
{
    StorageHeader h;
    h.tag = 1;
    const auto wire = h.encode();
    // Fields occupy the first 46 bytes; the rest must be zero padding.
    for (std::size_t i = 46; i < wire.size(); ++i)
        EXPECT_EQ(wire[i], 0u) << "at byte " << i;
}

TEST(StorageHeader, EncodeSharedMatchesEncode)
{
    StorageHeader h;
    h.vmId = 5;
    h.tag = 6;
    const auto arr = h.encode();
    const auto shared = h.encodeShared();
    ASSERT_EQ(shared->size(), arr.size());
    EXPECT_TRUE(std::equal(arr.begin(), arr.end(), shared->begin()));
}

TEST(StorageHeader, DefaultHeaderDecodesToDefaults)
{
    const StorageHeader def;
    const auto wire = def.encode();
    const StorageHeader back = StorageHeader::decode(wire.data());
    EXPECT_EQ(back.vmId, 0u);
    EXPECT_EQ(back.latencySensitive, 0u);
    EXPECT_EQ(back.compressionEffort, 1u);
}

} // namespace
} // namespace smartds::middletier
