/**
 * @file
 * Parking lots for in-flight state: a FIFO ring and an indexed slot table.
 *
 * A component that hands work to a resource (a link, a disk, a DMA
 * engine) must keep the work's payload somewhere until the completion
 * event fires. Capturing the payload in the completion closure boxes it
 * on the heap once per hop whenever it outgrows EventCallback's inline
 * buffer, which a ~200-byte net::Message always does. Parking the payload
 * in a container owned by the component instead leaves the closure a
 * `this` pointer (or a slot index) that always fits inline.
 *
 * - Ring: for resources whose completions fire in submission order
 *   (a BandwidthServer, a constant-delay line). The completion pops the
 *   front.
 * - SlotTable: for paths whose completions may reorder, and as a shared
 *   store several rings hold tickets into. The completion carries the
 *   slot index park() returned.
 *
 * Both start empty and grow on demand, so an idle component costs a few
 * words; once warm they allocate nothing.
 */

#ifndef SMARTDS_SIM_PARKING_H_
#define SMARTDS_SIM_PARKING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace smartds::sim {

/**
 * FIFO ring buffer with power-of-two capacity that doubles when full.
 * Elements live only between push() and pop(): the storage is raw, so T
 * needs only a move constructor (a posted receive holding a
 * sim::Completion qualifies), and a popped element is destroyed at once,
 * releasing whatever it owned.
 */
template <typename T>
class Ring
{
  public:
    Ring() = default;
    Ring(Ring &&other) noexcept
        : buf_(std::exchange(other.buf_, nullptr)),
          capacity_(std::exchange(other.capacity_, 0)),
          head_(std::exchange(other.head_, 0)),
          size_(std::exchange(other.size_, 0))
    {
    }
    Ring &
    operator=(Ring &&other) noexcept
    {
        if (this != &other) {
            destroy();
            buf_ = std::exchange(other.buf_, nullptr);
            capacity_ = std::exchange(other.capacity_, 0);
            head_ = std::exchange(other.head_, 0);
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }
    Ring(const Ring &) = delete;
    Ring &operator=(const Ring &) = delete;
    ~Ring() { destroy(); }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Oldest element (ring must not be empty). */
    T &front() { return buf_[head_]; }

    /** The @p i-th oldest element (i < size()). */
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & (capacity_ - 1)];
    }

    void
    push(T &&value)
    {
        if (size_ == capacity_)
            grow();
        ::new (static_cast<void *>(buf_ + ((head_ + size_) & (capacity_ - 1))))
            T(std::move(value));
        ++size_;
    }

    /** Remove and return the oldest element (ring must not be empty). */
    T
    pop()
    {
        SMARTDS_SIM_INVARIANT(size_ > 0, "pop from an empty ring");
        T value = std::move(buf_[head_]);
        buf_[head_].~T();
        head_ = (head_ + 1) & (capacity_ - 1);
        --size_;
        return value;
    }

  private:
    void
    grow()
    {
        const std::size_t capacity = capacity_ == 0 ? 4 : capacity_ * 2;
        T *next = std::allocator<T>().allocate(capacity);
        for (std::size_t i = 0; i < size_; ++i) {
            T &from = buf_[(head_ + i) & (capacity_ - 1)];
            ::new (static_cast<void *>(next + i)) T(std::move(from));
            from.~T();
        }
        if (buf_)
            std::allocator<T>().deallocate(buf_, capacity_);
        buf_ = next;
        capacity_ = capacity;
        head_ = 0;
    }

    void
    destroy() noexcept
    {
        for (std::size_t i = 0; i < size_; ++i)
            buf_[(head_ + i) & (capacity_ - 1)].~T();
        if (buf_)
            std::allocator<T>().deallocate(buf_, capacity_);
        buf_ = nullptr;
        capacity_ = head_ = size_ = 0;
    }

    T *buf_ = nullptr;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

/**
 * Slab of parked values addressed by the index park() returns; freed
 * slots are recycled. Storage grows in fixed chunks, so growing never
 * moves a parked value and every allocation is small enough for malloc
 * to recycle. T must be default-constructible and move-assignable.
 */
template <typename T>
class SlotTable
{
  public:
    /** Park @p value; @return the slot to take() it back from. */
    std::uint32_t
    park(T &&value)
    {
        std::uint32_t slot;
        if (free_.empty()) {
            slot = used_++;
            if (slot % kChunk == 0)
                chunks_.push_back(std::make_unique<T[]>(kChunk));
        } else {
            slot = free_.back();
            free_.pop_back();
        }
        (*this)[slot] = std::move(value);
        return slot;
    }

    /** The value parked at @p slot, in place. */
    T &
    operator[](std::uint32_t slot)
    {
        SMARTDS_SIM_INVARIANT(slot < used_, "slot %u beyond the %u-slot table",
                              slot, used_);
        return chunks_[slot / kChunk][slot % kChunk];
    }

    /** Remove and return the value parked at @p slot. */
    T
    take(std::uint32_t slot)
    {
        T value = std::move((*this)[slot]);
        free_.push_back(slot);
        return value;
    }

  private:
    static constexpr std::uint32_t kChunk = 32;

    std::vector<std::unique_ptr<T[]>> chunks_;
    std::uint32_t used_ = 0; ///< slots ever handed out
    std::vector<std::uint32_t> free_;
};

} // namespace smartds::sim

#endif // SMARTDS_SIM_PARKING_H_
