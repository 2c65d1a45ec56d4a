#include "middletier/protocol.h"

#include <cstring>

namespace smartds::middletier {

namespace {

template <typename T>
void
put(std::uint8_t *dst, std::size_t &at, T value)
{
    std::memcpy(dst + at, &value, sizeof(T));
    at += sizeof(T);
}

template <typename T>
T
get(const std::uint8_t *src, std::size_t &at)
{
    T value;
    std::memcpy(&value, src + at, sizeof(T));
    at += sizeof(T);
    return value;
}

} // namespace

std::array<std::uint8_t, StorageHeader::wireSize>
StorageHeader::encode() const
{
    std::array<std::uint8_t, wireSize> out{};
    encodeInto(out.data());
    return out;
}

void
StorageHeader::encodeInto(std::uint8_t *dst) const
{
    std::memset(dst, 0, wireSize);
    std::size_t at = 0;
    put(dst, at, vmId);
    at += sizeof(std::uint64_t); // reserved: segment id
    put(dst, at, blockOffset);
    put(dst, at, tag);
    put(dst, at, payloadSize);
    at += sizeof(std::uint32_t); // reserved: service type
    put(dst, at, blockChecksum);
    put(dst, at, latencySensitive);
    put(dst, at, compressionEffort);
}

std::shared_ptr<const std::vector<std::uint8_t>>
StorageHeader::encodeShared() const
{
    // One-entry memo: the replication fan-out encodes the same header
    // once per replica back to back, and the VM issue loop re-encodes
    // headers differing only in a few fields. thread_local keeps
    // SweepRunner jobs independent (and lock-free).
    struct Memo
    {
        StorageHeader fields;
        std::shared_ptr<const std::vector<std::uint8_t>> buffer;
    };
    // Thread-local, so SweepRunner jobs stay independent; the memo only
    // changes allocation counts, never encoded bytes, so results remain
    // deterministic.
    thread_local Memo memo;
    if (memo.buffer && memo.fields == *this)
        return memo.buffer;
    auto out = std::make_shared<std::vector<std::uint8_t>>(wireSize);
    encodeInto(out->data());
    memo.fields = *this;
    memo.buffer = std::move(out);
    return memo.buffer;
}

StorageHeader
StorageHeader::decode(const std::uint8_t *data)
{
    StorageHeader h;
    std::size_t at = 0;
    h.vmId = get<std::uint64_t>(data, at);
    at += sizeof(std::uint64_t); // reserved: segment id
    h.blockOffset = get<std::uint64_t>(data, at);
    h.tag = get<std::uint64_t>(data, at);
    h.payloadSize = get<std::uint32_t>(data, at);
    at += sizeof(std::uint32_t); // reserved: service type
    h.blockChecksum = get<std::uint32_t>(data, at);
    h.latencySensitive = get<std::uint8_t>(data, at);
    h.compressionEffort = get<std::uint8_t>(data, at);
    return h;
}

} // namespace smartds::middletier
