/**
 * @file
 * Middle-tier hot-block read cache.
 *
 * Skewed tenant traffic (YCSB-style Zipfian address streams) re-reads a
 * small set of hot blocks; caching their verified plaintext at the
 * middle tier turns a storage fetch + decompress round trip into one
 * local memory read. The cache is capacity-accounted (it can live inside
 * the SmartNIC's HBM budget or in host DRAM) and strictly read-only
 * coherent: entries are inserted only after the end-to-end checksum
 * verified the bytes, and invalidated on every write, checksum failover
 * and reconstruction event touching the block, so a cache hit always
 * serves bytes byte-identical to a cache-off run.
 *
 * Determinism: plain LRU over a slot array whose entries are linked in
 * recency order through their slot indices, with a sim::FlatMap from
 * (vmId, blockOffset) to the slot as the index. The index is only ever
 * searched, never walked, and eviction follows the links, so lookup,
 * insert and evict order depend only on the request stream, never on the
 * hash. Freed slots are reused, so a warm cache allocates nothing.
 */

#ifndef SMARTDS_MIDDLETIER_HOT_BLOCK_CACHE_H_
#define SMARTDS_MIDDLETIER_HOT_BLOCK_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "sim/flat_map.h"

namespace smartds::middletier {

/** Where a middle tier places its read cache. */
enum class ReadCachePlacement : std::uint8_t
{
    /** Host DRAM (CPU-only / Acc; the designs' existing memory flows). */
    HostDram,
    /**
     * SmartNIC device memory. SmartDS charges the cache's capacity
     * against the HBM budget (DeviceMemory::alloc) and its hits against
     * an HBM bandwidth flow; designs without device memory fall back to
     * their local memory resource.
     */
    DeviceHbm,
};

/** Read-cache knobs shared by all middle-tier designs. */
struct ReadCacheConfig
{
    /** Cache capacity in bytes (0 = cache disabled). */
    Bytes capacityBytes = 0;
    /** Memory the capacity and per-hit bandwidth are charged to. */
    ReadCachePlacement placement = ReadCachePlacement::HostDram;
};

/** LRU cache of verified plaintext blocks, keyed by (vmId, blockOffset). */
class HotBlockCache
{
  public:
    struct Entry
    {
        /** Uncompressed block size (the capacity charge). */
        Bytes plainSize = 0;
        /** Compression ratio of the stored copy (timing-mode replies). */
        double compressibility = 0.0;
        /** Verified plaintext bytes (null in timing-only mode). */
        std::shared_ptr<const std::vector<std::uint8_t>> plain;
    };

    /** Cumulative counters (aggregated over cards for MultiCard). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        /** Plain bytes served from the cache (fabric bytes saved). */
        std::uint64_t hitBytes = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        std::uint64_t invalidations = 0;

        Stats &
        operator+=(const Stats &o)
        {
            hits += o.hits;
            misses += o.misses;
            hitBytes += o.hitBytes;
            insertions += o.insertions;
            evictions += o.evictions;
            invalidations += o.invalidations;
            return *this;
        }
    };

    explicit HotBlockCache(Bytes capacity) : capacity_(capacity) {}

    /**
     * Look the block up, bumping it to most-recently-used on a hit.
     * Counts the hit/miss; the returned pointer stays valid until the
     * next insert/invalidate.
     */
    const Entry *
    lookup(std::uint64_t vm_id, std::uint64_t block_offset)
    {
        const std::uint32_t *slot = index_.find(Key{vm_id, block_offset});
        if (slot == nullptr) {
            ++stats_.misses;
            return nullptr;
        }
        Node &node = nodes_[*slot];
        unlink(*slot);
        pushFront(*slot);
        ++stats_.hits;
        stats_.hitBytes += node.entry.plainSize;
        return &node.entry;
    }

    /**
     * Insert (or refresh) a verified block, evicting from the LRU tail
     * until it fits. A block larger than the whole cache is skipped.
     */
    void
    insert(std::uint64_t vm_id, std::uint64_t block_offset, Entry entry)
    {
        if (entry.plainSize == 0 || entry.plainSize > capacity_)
            return;
        const Key key{vm_id, block_offset};
        if (const std::uint32_t *slot = index_.find(key))
            remove(*slot);
        while (used_ + entry.plainSize > capacity_ && tail_ != kNil) {
            remove(tail_);
            ++stats_.evictions;
        }
        std::uint32_t slot = free_;
        if (slot != kNil) {
            free_ = nodes_[slot].next;
        } else {
            slot = static_cast<std::uint32_t>(nodes_.size());
            nodes_.emplace_back();
        }
        Node &node = nodes_[slot];
        node.key = key;
        node.entry = std::move(entry);
        used_ += node.entry.plainSize;
        pushFront(slot);
        index_.tryEmplace(key, slot);
        ++stats_.insertions;
    }

    /**
     * Drop the block if cached (write-through invalidation: called on
     * every write, checksum failover and reconstruction touching the
     * block). Returns whether an entry was actually dropped.
     */
    bool
    invalidate(std::uint64_t vm_id, std::uint64_t block_offset)
    {
        const std::uint32_t *slot = index_.find(Key{vm_id, block_offset});
        if (slot == nullptr)
            return false;
        remove(*slot);
        ++stats_.invalidations;
        return true;
    }

    Bytes capacity() const { return capacity_; }
    Bytes used() const { return used_; }
    std::size_t entries() const { return index_.size(); }
    const Stats &stats() const { return stats_; }

  private:
    struct Key
    {
        std::uint64_t vmId;
        std::uint64_t blockOffset;
        bool
        operator==(const Key &o) const
        {
            return vmId == o.vmId && blockOffset == o.blockOffset;
        }
    };
    struct KeyHash
    {
        std::uint64_t
        operator()(const Key &k) const
        {
            return sim::mixBits(k.vmId * 0x9e3779b97f4a7c15ULL ^
                                k.blockOffset);
        }
    };

    /** End-of-list marker for slot links. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /**
     * One slot: a cached block linked into the LRU list (head = most
     * recently used), or a free slot chained through @ref next.
     */
    struct Node
    {
        Key key{};
        Entry entry;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    /** Link @p slot in as the most recently used entry. */
    void
    pushFront(std::uint32_t slot)
    {
        Node &node = nodes_[slot];
        node.prev = kNil;
        node.next = head_;
        if (head_ == kNil)
            tail_ = slot;
        else
            nodes_[head_].prev = slot;
        head_ = slot;
    }

    /** Take @p slot out of the LRU list. */
    void
    unlink(std::uint32_t slot)
    {
        const Node &node = nodes_[slot];
        if (node.prev == kNil)
            head_ = node.next;
        else
            nodes_[node.prev].next = node.next;
        if (node.next == kNil)
            tail_ = node.prev;
        else
            nodes_[node.next].prev = node.prev;
    }

    /** Drop the entry in @p slot (releasing its bytes) and free the slot. */
    void
    remove(std::uint32_t slot)
    {
        Node &node = nodes_[slot];
        unlink(slot);
        used_ -= node.entry.plainSize;
        index_.erase(node.key);
        node.entry = Entry{};
        node.next = free_;
        free_ = slot;
    }

    Bytes capacity_;
    Bytes used_ = 0;
    std::vector<Node> nodes_;
    std::uint32_t head_ = kNil;
    std::uint32_t tail_ = kNil;
    /** First free slot; free slots chain through Node::next. */
    std::uint32_t free_ = kNil;
    sim::FlatMap<Key, std::uint32_t, KeyHash> index_;
    Stats stats_;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_HOT_BLOCK_CACHE_H_
