/**
 * @file
 * A flat open-addressing hash map for the per-request lookup tables.
 *
 * The middle tier and the clients keep a table entry per request in
 * flight: an awaited replica ack, an awaited fetch reply, a pending VM
 * request, a chunk's placement. std::unordered_map allocates a node per
 * insert and frees it per erase, which made these tables one of the
 * larger per-request costs left outside the event kernel. FlatMap keeps
 * its entries in one power-of-two array with linear probing and deletes
 * by backward shift (no tombstones), so once the array has grown to a
 * table's peak occupancy, inserting and erasing allocate nothing.
 *
 * Slots are chosen by the key's hash, which callers keep a pure function
 * of the key (FlatHash mixes integers; no pointer is ever hashed), so the
 * table's layout never depends on addresses. There is deliberately no
 * iteration: these tables are lookup-only, and any walk would come out in
 * hash order rather than key or insertion order.
 *
 * Pointers returned by find() and tryEmplace() stay valid until the next
 * insert (which may grow the array) or erase (which may shift entries).
 */

#ifndef SMARTDS_SIM_FLAT_MAP_H_
#define SMARTDS_SIM_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace smartds::sim {

/** Finalizer of splitmix64: spreads sequential integers over all bits. */
constexpr std::uint64_t
mixBits(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/** Default FlatMap hash: mixBits over an integral key. */
template <typename K>
struct FlatHash
{
    static_assert(std::is_integral_v<K>, "give FlatMap a hash for this key");
    std::uint64_t
    operator()(K key) const
    {
        return mixBits(static_cast<std::uint64_t>(key));
    }
};

/**
 * Open-addressing map from K to V (see the file comment). K must be
 * equality-comparable and copyable; V needs only a move constructor.
 * Hash maps a key to a 64-bit value whose low bits pick the home slot.
 */
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap
{
  public:
    FlatMap() = default;
    FlatMap(const FlatMap &) = delete;
    FlatMap &operator=(const FlatMap &) = delete;
    ~FlatMap() { clear(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slots in the array (0 before the first insert). */
    std::size_t capacity() const { return capacity_; }

    /** The value under @p key, or null. */
    V *
    find(const K &key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = next(i)) {
            if (!used_[i])
                return nullptr;
            if (entry(i).key == key)
                return &entry(i).value;
        }
    }

    const V *
    find(const K &key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(const K &key) const { return find(key) != nullptr; }

    /**
     * Insert V(@p args...) under @p key unless the key is present.
     * @return the value under @p key and whether it was inserted.
     */
    template <typename... Args>
    std::pair<V *, bool>
    tryEmplace(const K &key, Args &&...args)
    {
        if (V *v = find(key))
            return {v, false};
        // Grow at 3/4 occupancy: probe runs stay a few slots long, and a
        // large table (the chunk map) stays near its entries' own size.
        if ((size_ + 1) * 4 > capacity_ * 3)
            rehash(capacity_ == 0 ? 16 : capacity_ * 2);
        std::size_t i = home(key);
        while (used_[i])
            i = next(i);
        ::new (static_cast<void *>(&slots_[i])) Entry{
            key, V(std::forward<Args>(args)...)};
        used_[i] = true;
        ++size_;
        return {&entry(i).value, true};
    }

    /** The value under @p key, default-constructed if absent. */
    V &
    operator[](const K &key)
    {
        return *tryEmplace(key).first;
    }

    /** Remove @p key. @return whether it was present. */
    bool
    erase(const K &key)
    {
        if (size_ == 0)
            return false;
        std::size_t hole = home(key);
        for (;; hole = next(hole)) {
            if (!used_[hole])
                return false;
            if (entry(hole).key == key)
                break;
        }
        entry(hole).~Entry();
        used_[hole] = false;
        --size_;
        // Backward shift: pull later members of the probe run into the
        // hole when the hole lies on their path from their home slot, so
        // every lookup still finds its key before the first empty slot.
        for (std::size_t i = next(hole); used_[i]; i = next(i)) {
            const std::size_t h = home(entry(i).key);
            const bool movable = hole <= i ? (h <= hole || h > i)
                                           : (h <= hole && h > i);
            if (!movable)
                continue;
            ::new (static_cast<void *>(&slots_[hole]))
                Entry(std::move(entry(i)));
            used_[hole] = true;
            entry(i).~Entry();
            used_[i] = false;
            hole = i;
        }
        return true;
    }

    /** Remove every entry (the array is kept). */
    void
    clear()
    {
        for (std::size_t i = 0; i < capacity_ && size_ > 0; ++i) {
            if (used_[i]) {
                entry(i).~Entry();
                used_[i] = false;
                --size_;
            }
        }
    }

  private:
    struct Entry
    {
        K key;
        V value;
    };

    /** Raw storage for one entry. */
    struct Slot
    {
        alignas(Entry) unsigned char bytes[sizeof(Entry)];
    };

    Entry &
    entry(std::size_t i)
    {
        return *std::launder(reinterpret_cast<Entry *>(slots_[i].bytes));
    }

    std::size_t
    home(const K &key) const
    {
        return static_cast<std::size_t>(Hash{}(key)) & (capacity_ - 1);
    }

    std::size_t next(std::size_t i) const { return (i + 1) & (capacity_ - 1); }

    void
    rehash(std::size_t capacity)
    {
        SMARTDS_SIM_INVARIANT((capacity & (capacity - 1)) == 0,
                              "flat map capacity %zu is not a power of two",
                              capacity);
        std::unique_ptr<Slot[]> old_slots = std::move(slots_);
        std::unique_ptr<bool[]> old_used = std::move(used_);
        const std::size_t old_capacity = capacity_;
        // Slots are raw storage: only the occupancy flags need zeroing,
        // so pages of a large array are touched only as entries land.
        slots_ = std::make_unique_for_overwrite<Slot[]>(capacity);
        used_ = std::make_unique<bool[]>(capacity);
        capacity_ = capacity;
        for (std::size_t j = 0; j < old_capacity; ++j) {
            if (!old_used[j])
                continue;
            Entry &from =
                *std::launder(reinterpret_cast<Entry *>(old_slots[j].bytes));
            std::size_t i = home(from.key);
            while (used_[i])
                i = next(i);
            ::new (static_cast<void *>(&slots_[i])) Entry(std::move(from));
            used_[i] = true;
            from.~Entry();
        }
    }

    std::unique_ptr<Slot[]> slots_;
    std::unique_ptr<bool[]> used_;
    std::size_t capacity_ = 0;
    std::size_t size_ = 0;
};

} // namespace smartds::sim

#endif // SMARTDS_SIM_FLAT_MAP_H_
