/**
 * @file
 * Per-request trace context, carried inside net::Message.
 *
 * Kept deliberately tiny (plain data, no includes beyond <cstdint>) so
 * embedding it in every message costs nothing when tracing is off: an id
 * of 0 means "not sampled" and every instrumentation site bails out on a
 * single null-tracer check before even looking at the context.
 */

#ifndef SMARTDS_TRACE_CONTEXT_H_
#define SMARTDS_TRACE_CONTEXT_H_

#include <cstdint>

namespace smartds::trace {

/**
 * The datapath stages a request's spans attribute time to. One request
 * produces several spans per stage kind (e.g. one NetWire span per hop,
 * one Storage span per replica).
 */
enum class Stage : std::uint8_t
{
    Request,    ///< end to end: client issue -> reply received
    NetWire,    ///< one fabric hop: tx serialisation + switch + rx
    NicDma,     ///< host NIC DMA between the wire and host memory
    HostParse,  ///< host (or Arm) core time spent on the request header
    HostCompute,///< host-core payload work (CPU-only compress/decompress)
    Split,      ///< SmartDS Split: header DMA + payload HBM write
    Engine,     ///< fixed-function engine (SmartDS/Acc/BF2 (de)compress)
    Assemble,   ///< SmartDS Assemble: header DMA read + HBM gather + send
    Replicate,  ///< replication fan-out: first send -> write quorum
    Storage,    ///< storage server: replica arrival -> ack on the wire
    EcEncode,   ///< RS(k, m) stripe encode (host cycles or device engine)
    EcDecode,   ///< RS(k, m) stripe decode on a degraded read
    DegradedRead, ///< shard collection for an EC read (probe -> k shards)
    Reconstruct,  ///< background re-encode of a lost shard (maintenance)
    CacheHit,     ///< read served from the middle-tier hot-block cache
    CacheMiss,    ///< read that had to fetch from storage (cache enabled)
    CacheInvalidate, ///< cached block dropped (write/failover coherence)
    kCount
};

/** Stable display name of @p stage (used in tables, CSV and JSON). */
const char *stageName(Stage stage);

/**
 * Carried by every net::Message. id is the sampled request's tag (0 =
 * untraced); mark is scratch space holding the start tick of the stage
 * currently in flight across an asynchronous boundary (e.g. set by
 * Port::send, consumed by Port::received); depth is the span-stack depth
 * used to render nested spans.
 */
struct TraceContext
{
    std::uint64_t id = 0;
    std::uint64_t mark = 0;
    std::uint8_t depth = 0;

    explicit operator bool() const { return id != 0; }
};

} // namespace smartds::trace

#endif // SMARTDS_TRACE_CONTEXT_H_
