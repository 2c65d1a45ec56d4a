/**
 * @file
 * The block-storage wire protocol between VMs, middle tier and storage.
 *
 * Per Section 2.2.1, a write request's network message comprises a block
 * storage header — VM id, service type, block offset, segment id "and
 * other relevant information" — followed by the data block. The header is
 * 64 bytes on the wire (Section 4's "small part, e.g. 64 bytes"). The
 * functional paths encode/decode this header for real; the timing paths
 * only carry its size.
 *
 * Wire layout (little-endian): vmId at 0, blockOffset at 16, tag at 24,
 * payloadSize at 32, blockChecksum at 40, latencySensitive at 44 and
 * compressionEffort at 45. Bytes 8-15 and 36-39 are reserved where the
 * paper's header carries the segment id and the service type (the chunk
 * manager derives segments from the block offset, and no workload sets a
 * service type); they and bytes 46-63 are zero.
 */

#ifndef SMARTDS_MIDDLETIER_PROTOCOL_H_
#define SMARTDS_MIDDLETIER_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/calibration.h"
#include "common/units.h"

namespace smartds::middletier {

/** The 64-byte block-storage header. */
struct StorageHeader
{
    static constexpr Bytes wireSize = calibration::storageHeaderBytes;

    std::uint64_t vmId = 0;
    std::uint64_t blockOffset = 0;
    std::uint64_t tag = 0;          ///< request identity
    std::uint32_t payloadSize = 0;  ///< data-block bytes
    std::uint32_t blockChecksum = 0; ///< xxHash32 of the (plain) block
    std::uint8_t latencySensitive = 0; ///< skip compression when set
    std::uint8_t compressionEffort = 1; ///< effort the tier should spend

    /** Serialise to exactly wireSize bytes (little-endian, zero padded). */
    std::array<std::uint8_t, wireSize> encode() const;

    /** Serialise into @p dst (at least wireSize bytes), no allocation. */
    void encodeInto(std::uint8_t *dst) const;

    /**
     * Encode into a shared byte vector (for net::Message). Consecutive
     * calls with identical field values on the same thread return the
     * same cached buffer, so the replication fan-out (which re-encodes
     * one header per replica) costs one allocation per *distinct* header
     * instead of one per message.
     */
    std::shared_ptr<const std::vector<std::uint8_t>> encodeShared() const;

    /** Parse from a buffer of at least wireSize bytes. */
    static StorageHeader decode(const std::uint8_t *data);

    bool operator==(const StorageHeader &other) const = default;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_PROTOCOL_H_
