/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The kernel is a cancellable pending-event priority queue over integer
 * picosecond ticks. Events scheduled for the same tick fire in scheduling
 * order (a monotonic sequence number breaks ties), which keeps simulations
 * deterministic.
 *
 * The hot path is allocation-averse: event records live in a slab pool and
 * are recycled through a free list, cancellation is a generation-counter
 * check (no shared control block), the pending queue is an implicit 4-ary
 * heap of plain records, and callbacks are stored in a
 * small-buffer-optimized holder so the common capturing lambda never
 * touches the general-purpose heap. Figure sweeps push hundreds of
 * millions of events through this kernel, so every per-event allocation
 * removed here is minutes off a full reproduction run.
 *
 * Two refinements keep the heap small and cheap:
 *  - Events scheduled for now() skip the heap and join a FIFO *same-tick
 *    lane*. Keys are unique and lane entries arrive in seq order, so
 *    dispatching whichever of the lane front and the heap top has the
 *    smaller (tick, seq) key is exactly heap order.
 *  - Cancelled events leave their heap entry behind (cancellation is O(1)).
 *    Once such entries outnumber the live ones, the heap drops them all
 *    and is rebuilt, so long-lived cancelled timers cannot bloat it.
 */

#ifndef SMARTDS_SIM_SIMULATOR_H_
#define SMARTDS_SIM_SIMULATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "common/time.h"
#include "sim/parking.h"

namespace smartds::sim {

class Simulator;

/**
 * Index of the timing domain the calling thread is currently executing
 * (or constructing components for). Defaults to 0 — the single-domain
 * case — and is maintained by Simulator::run()/runUntil() from the
 * simulator's own domain index, so any code running inside an event
 * (fabric routing, tracer discovery) can ask which logical process it
 * belongs to without threading a parameter through every layer.
 */
unsigned currentDomain() noexcept;

/**
 * RAII scope that pins currentDomain() for the calling thread. The
 * experiment wiring uses it while *constructing* the components of a
 * timing domain, so construction-time lookups (ports, tracers) resolve
 * to the same domain the component will later execute in.
 */
class DomainScope
{
  public:
    explicit DomainScope(unsigned domain) noexcept;
    ~DomainScope();
    DomainScope(const DomainScope &) = delete;
    DomainScope &operator=(const DomainScope &) = delete;

  private:
    unsigned saved_;
};

/**
 * Move-only callable holder for event callbacks with a small-buffer
 * optimisation: callables up to inlineCapacity bytes are stored inside the
 * event record itself; larger ones fall back to a heap box. Implicitly
 * constructible from any void() callable, so existing schedule() call
 * sites (lambdas, std::function, function pointers) compile unchanged.
 */
class EventCallback
{
  public:
    /** Inline storage: covers lambdas capturing up to 6 pointers. */
    static constexpr std::size_t inlineCapacity = 48;

    EventCallback() = default;

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, EventCallback> &&
                  std::is_invocable_r_v<void, Fn &>>>
    EventCallback(F &&f) // NOLINT: implicit by design
    {
        if constexpr (sizeof(Fn) <= inlineCapacity &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
            if constexpr (trivialInline<Fn>)
                clearTail(sizeof(Fn));
        } else {
            // simlint: allow(naked-new): the SBO fallback box; ownership
            // is carried by ops_ (boxedOps destroy deletes it), and a
            // unique_ptr would not fit the type-erased inline buffer
            ::new (static_cast<void *>(buf_))
                (Fn *)(new Fn(std::forward<F>(f)));
            ops_ = &boxedOps<Fn>;
            clearTail(sizeof(Fn *));
        }
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    /** Whether a callable is held. */
    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the held callable (must hold one). */
    void operator()() { ops_->invoke(buf_); }

    /** Destroy the held callable (and release its captures), if any. */
    void
    reset()
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    /**
     * Type-erased operations. A null relocate means the stored bytes may
     * simply be copied (a trivially copyable callable, or a box pointer);
     * a null destroy means there is nothing to destroy. Most callbacks
     * capture pointers and integers only, so moving one between the
     * caller, the event slot and the dispatcher is a plain copy.
     */
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct dst's storage from src's, destroying src's. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr bool trivialInline =
        std::is_trivially_copyable_v<Fn> &&
        std::is_trivially_destructible_v<Fn>;

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p) { (*std::launder(reinterpret_cast<Fn *>(p)))(); },
        trivialInline<Fn> ? nullptr : +[](void *dst, void *src) {
            Fn *from = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
        },
        trivialInline<Fn> ? nullptr : +[](void *p) {
            std::launder(reinterpret_cast<Fn *>(p))->~Fn();
        },
    };

    template <typename Fn>
    static constexpr Ops boxedOps = {
        [](void *p) { (**std::launder(reinterpret_cast<Fn **>(p)))(); },
        nullptr,
        [](void *p) { delete *std::launder(reinterpret_cast<Fn **>(p)); },
    };

    /**
     * Zero the buffer past the first @p used bytes. A callable moved by
     * plain copy (null relocate) moves the whole buffer, so all of it
     * must hold defined bytes.
     */
    void
    clearTail(std::size_t used)
    {
        std::memset(buf_ + used, 0, inlineCapacity - used);
    }

    void
    moveFrom(EventCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            if (ops_->relocate)
                ops_->relocate(buf_, other.buf_);
            else
                std::memcpy(buf_, other.buf_, inlineCapacity);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[inlineCapacity];
    const Ops *ops_ = nullptr;
};

/**
 * Handle to a scheduled event; allows cancellation. Default-constructed
 * handles are inert. Copies share the same underlying event: the handle is
 * a (slot, generation) ticket into the simulator's event pool, and a
 * generation mismatch means the event already fired or was cancelled (the
 * slot may since have been recycled for an unrelated event). Handles must
 * not outlive their Simulator.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Cancel the event if it has not fired yet. @return true if cancelled. */
    inline bool cancel();

    /** @return true if the event is still pending. */
    inline bool pending() const;

  private:
    friend class Simulator;
    EventHandle(Simulator *sim, std::uint32_t slot, std::uint32_t gen)
        : sim_(sim), slot_(slot), gen_(gen)
    {
    }

    Simulator *sim_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * Stage tag recorded with every scheduled event, folded into the
 * determinism-sanitizer state hash alongside (tick, seq). Tagging is
 * optional (untagged events hash as Generic) but makes a divergence
 * report name the subsystem whose event stream first differed.
 */
enum class EventTag : std::uint8_t
{
    Generic = 0,
    Net,
    Nic,
    Host,
    Device,
    Storage,
    Client,
    Maintenance,
    Test,
};

/**
 * One window of the determinism sanitizer's event stream: the rolling
 * state hash after @ref events dispatches covering simulated time
 * [firstTick, lastTick]. Two runs of the same config must produce
 * identical window sequences; the first window whose hash differs
 * brackets the diverging dispatch.
 */
struct DsanWindow
{
    std::uint32_t hash = 0;       ///< rolling state hash at window end
    std::uint64_t firstEvent = 0; ///< ordinal of the window's first event
    std::uint64_t events = 0;     ///< dispatches folded into this window
    Tick firstTick = 0;
    Tick lastTick = 0;
};

/** Result of comparing two dsan window streams (see compareDsanWindows). */
struct DsanDivergence
{
    bool diverged = false;
    std::size_t windowIndex = 0;  ///< first differing window
    std::uint64_t firstEvent = 0; ///< event-ordinal range of that window
    std::uint64_t events = 0;
    Tick firstTick = 0;           ///< simulated-time range of that window
    Tick lastTick = 0;
};

/**
 * Compare two runs' window streams; returns the first divergence (hash
 * mismatch, or one stream ending early) with the offending window's
 * event/tick range, so nondeterminism localizes to ~one window of
 * dispatches instead of "the CSVs differ".
 */
DsanDivergence compareDsanWindows(const std::vector<DsanWindow> &a,
                                  const std::vector<DsanWindow> &b);

/**
 * The discrete-event simulator: a clock plus a pending-event queue.
 *
 * Components hold a reference to the Simulator, schedule callbacks, and
 * query now(). One Simulator per experiment; no global state, so
 * independent Simulator instances may run on concurrent threads (see
 * workload::SweepRunner).
 */
class Simulator
{
  public:
    Simulator() = default;
    ~Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Returned by nextEventTick() when no live event is pending. */
    static constexpr Tick kNoPendingEvent = ~Tick{0};

    /**
     * Tick of the earliest live pending event, or kNoPendingEvent when
     * the queue holds none. Drops cancelled entries from the lane front
     * and the heap top as a side effect (they carry no information).
     */
    Tick
    nextEventTick()
    {
        bool from_lane;
        const HeapEntry *next = nextLive(from_lane);
        return next ? next->when() : kNoPendingEvent;
    }

    /**
     * Timing domain this simulator belongs to (0 for standalone
     * simulators; assigned by sim::ClusterSim for PDES shards). run()
     * and runUntil() publish it through currentDomain() while events
     * execute.
     */
    unsigned domainIndex() const { return domain_; }

    /** Assign the timing-domain index (called once, by ClusterSim). */
    void setDomainIndex(unsigned domain) { domain_ = domain; }

    /** Schedule @p fn to run @p delay ticks from now. */
    EventHandle
    schedule(Tick delay, EventCallback fn, EventTag tag = EventTag::Generic)
    {
        return scheduleAt(now_ + delay, std::move(fn), tag);
    }

    /** Schedule @p fn at absolute tick @p when (must be >= now). */
    EventHandle
    scheduleAt(Tick when, EventCallback fn,
               EventTag tag = EventTag::Generic)
    {
        SMARTDS_CHECK(when >= now_,
                       "scheduling into the past (when=%llu now=%llu)",
                       static_cast<unsigned long long>(when),
                       static_cast<unsigned long long>(now_));
        std::uint32_t slot;
        if (freeSlots_.empty()) {
            // Grow the slab 4x at a time: Event records are non-trivial
            // (they hold callbacks), so regrowth relocations are the one
            // remaining per-event cost worth amortising aggressively.
            if (pool_.size() == pool_.capacity())
                pool_.reserve(pool_.empty() ? 256 : pool_.size() * 4);
            slot = static_cast<std::uint32_t>(pool_.size());
            pool_.emplace_back();
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        }
        Event &event = pool_[slot];
        event.fn = std::move(fn);
        event.tag = tag;
        const HeapEntry entry{when, nextSeq_++, slot, event.gen};
        // A same-tick event joins the FIFO lane: its seq is the largest
        // handed out so far, so the lane stays sorted by key for free.
        event.inLane = when == now_;
        if (event.inLane) {
            SMARTDS_SIM_INVARIANT(
                lane_.empty() || lane_[lane_.size() - 1].seq < entry.seq,
                "same-tick lane entry out of seq order");
            lane_.push(entry);
        } else {
            heapPush(entry);
        }
        return EventHandle(this, slot, event.gen);
    }

    /** Execute the next pending event. @return false if queue empty. */
    bool step() { return dispatchUpTo(kNoPendingEvent); }

    /** Run until the queue drains. @return the final time. */
    Tick run();

    /**
     * Run until simulated time reaches @p deadline (events at exactly
     * @p deadline still fire) or the queue drains. @return final time.
     */
    Tick runUntil(Tick deadline);

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /**
     * Number of live pending events: scheduled, not yet fired and not
     * cancelled. Cancelled entries still waiting in the queue are not
     * counted.
     */
    std::size_t
    pendingEvents() const
    {
        return pool_.size() - freeSlots_.size();
    }

    /**
     * Entries in the event heap, cancelled ones included. Exposed so
     * tests can bound what compaction leaves behind.
     */
    std::size_t heapEntries() const { return heap_.size(); }

    /**
     * Size of the event slab (high-water mark of simultaneously pending
     * events). Exposed so tests can assert free-list reuse.
     */
    std::size_t eventPoolSlots() const { return pool_.size(); }

    // ---- determinism sanitizer ------------------------------------------
    //
    // A rolling xxHash32 over every dispatched event's (tick, seq, stage
    // tag). On by default in checked builds (SMARTDS_CHECKED=ON), where
    // it costs one short hash per dispatch; release builds can opt in at
    // runtime (--dsan). Two runs of the same seeded config must end with
    // identical hashes — any divergence is nondeterminism in the event
    // stream itself, caught even when it cancels out of the CSV outputs.

    /** Turn the per-dispatch state hash on or off. */
    void enableStateHash(bool on) { hashOn_ = on; }

    /** Whether the per-dispatch state hash is being maintained. */
    bool stateHashEnabled() const { return hashOn_; }

    /**
     * Additionally record the hash every @p eventsPerWindow dispatches
     * (implies enableStateHash). Window streams let --dsan report the
     * first diverging event range instead of only "hashes differ".
     */
    void
    enableDsanWindows(std::uint32_t eventsPerWindow = 1024)
    {
        hashOn_ = true;
        windowEvents_ = eventsPerWindow == 0 ? 1 : eventsPerWindow;
    }

    /** Rolling (tick, seq, tag) hash over all dispatches so far. */
    std::uint32_t stateHash() const { return stateHash_; }

    /** Flush the partial window and return the recorded window stream. */
    std::vector<DsanWindow>
    takeDsanWindows()
    {
        if (windowCount_ > 0)
            flushWindow();
        return std::move(windows_);
    }

    /**
     * Seed so an empty run's hash is a recognizable nonzero value; also
     * the seed ClusterSim folds per-domain digests under, so a merged
     * multi-domain hash and a single-domain hash share a hash family.
     */
    static constexpr std::uint32_t kStateHashSeed = 0x534d4453u; // "SMDS"

  private:
    friend class EventHandle;

    /** Pooled event record; `when`/`seq` live in the queue entry only. */
    struct Event
    {
        EventCallback fn;
        std::uint32_t gen = 0;
        /** Stage tag for the determinism hash (fits existing padding). */
        EventTag tag = EventTag::Generic;
        /** Queued in the same-tick lane rather than the heap. */
        bool inLane = false;
    };

    /**
     * 24-byte plain queue record (heap and lane). Ordering compares the
     * (when, seq) pair as one 128-bit integer: a single branchless compare.
     */
    struct HeapEntry
    {
        Tick tick;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;

        Tick when() const { return tick; }

        unsigned __int128
        key() const
        {
            return (static_cast<unsigned __int128>(tick) << 64) | seq;
        }
    };

    bool
    live(std::uint32_t slot, std::uint32_t gen) const
    {
        return slot < pool_.size() && pool_[slot].gen == gen;
    }

    /** Retire a slot: drop the callback, invalidate handles, recycle. */
    void
    releaseSlot(std::uint32_t slot)
    {
        SMARTDS_SIM_INVARIANT(slot < pool_.size(),
                              "releasing slot %u beyond the %zu-slot pool",
                              slot, pool_.size());
        pool_[slot].fn.reset();
        ++pool_[slot].gen;
        freeSlots_.push_back(slot);
        SMARTDS_SIM_INVARIANT(
            freeSlots_.size() <= pool_.size(),
            "free list (%zu) larger than the pool (%zu): double release",
            freeSlots_.size(), pool_.size());
    }

    /** Cancel a live event (EventHandle::cancel). */
    void
    cancelEvent(std::uint32_t slot)
    {
        const bool in_heap = !pool_[slot].inLane;
        releaseSlot(slot); // the queue entry is dropped lazily...
        // ...unless cancelled heap entries now outnumber live ones.
        if (in_heap && ++cancelledInHeap_ * 2 > heap_.size())
            compactHeap();
    }

    /**
     * The next live queue entry: the smaller key of the lane front and
     * the heap top, after dropping cancelled entries from both. Null when
     * nothing live is pending; @p from_lane says which queue it heads.
     */
    const HeapEntry *
    nextLive(bool &from_lane)
    {
        while (true) {
            from_lane = !lane_.empty() &&
                        (heap_.empty() ||
                         lane_.front().key() < heap_.front().key());
            if (!from_lane && heap_.empty())
                return nullptr;
            const HeapEntry &next = from_lane ? lane_.front() : heap_.front();
            if (pool_[next.slot].gen == next.gen)
                return &next;
            // Cancelled; the slot was already recycled.
            if (from_lane) {
                lane_.pop();
            } else {
                heapPop();
                --cancelledInHeap_;
            }
        }
    }

    /**
     * Dispatch the next live event if its tick is <= @p limit.
     * @return whether an event ran.
     */
    bool
    dispatchUpTo(Tick limit)
    {
        bool from_lane;
        const HeapEntry *next = nextLive(from_lane);
        if (!next || next->when() > limit)
            return false;
        const HeapEntry top = *next;
        if (from_lane) {
            lane_.pop();
        } else {
            heapPop();
            // Time only moves on once the lane has drained, so every lane
            // entry is always at now().
            SMARTDS_SIM_INVARIANT(top.when() == now_ || lane_.empty(),
                                  "clock advancing past a non-empty "
                                  "same-tick lane at tick %llu",
                                  static_cast<unsigned long long>(now_));
        }
        SMARTDS_SIM_INVARIANT(
            top.key() >= lastPoppedKey_,
            "event dispatched out of (tick, seq) order at tick %llu",
            static_cast<unsigned long long>(top.when()));
#if SMARTDS_CHECKED_BUILD
        lastPoppedKey_ = top.key();
        if ((++popCount_ & 0xfffu) == 0) {
            verifyHeapOrdering();
            verifyLane();
        }
#endif
        now_ = top.when();
        Event &event = pool_[top.slot];
        // Fold (tick, seq, stage tag) into the determinism hash before the
        // slot is recycled (recycling does not clear the tag, but the
        // callback below may overwrite it).
        if (hashOn_)
            foldEvent(top.when(), top.seq, event.tag);
        // Move the callback out and recycle the slot *before* invoking, so
        // the callback may schedule freely (including reusing this very
        // slot) without invalidating anything we still touch.
        EventCallback fn = std::move(event.fn);
        releaseSlot(top.slot);
        ++executed_;
        fn();
        return true;
    }

    /** Drop every cancelled heap entry and rebuild the heap (Floyd). */
    void
    compactHeap()
    {
        std::erase_if(heap_, [this](const HeapEntry &e) {
            return pool_[e.slot].gen != e.gen;
        });
        cancelledInHeap_ = 0;
        // Sift down every parent, the last one ((n - 2) / 4) first.
        const std::size_t n = heap_.size();
        for (std::size_t i = n < 2 ? 0 : (n - 2) / 4 + 1; i-- > 0;)
            siftDown(i, heap_[i]);
    }

    void
    heapPush(HeapEntry e)
    {
        // Hole-based sift-up: shift larger parents down, place once.
        heap_.push_back(e); // reserve the space (value overwritten below)
        HeapEntry *const h = heap_.data();
        std::size_t i = heap_.size() - 1;
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (h[parent].key() <= e.key())
                break;
            h[i] = h[parent];
            i = parent;
        }
        h[i] = e;
    }

    void
    heapPop()
    {
        SMARTDS_SIM_INVARIANT(!heap_.empty(), "popping an empty event heap");
        SMARTDS_SIM_INVARIANT(
            heap_.front().slot < pool_.size(),
            "heap entry names slot %u beyond the %zu-slot pool",
            heap_.front().slot, pool_.size());
        const HeapEntry last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0, last);
    }

    /**
     * Hole-based sift-down of @p e from index @p i: pull the smallest
     * child up until @p e fits, then place it once.
     */
    void
    siftDown(std::size_t i, const HeapEntry e)
    {
        const std::size_t n = heap_.size();
        HeapEntry *const h = heap_.data();
        while (true) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t end = std::min(first + 4, n);
            for (std::size_t c = first + 1; c < end; ++c) {
                if (h[c].key() < h[best].key())
                    best = c;
            }
            if (h[best].key() >= e.key())
                break;
            h[i] = h[best];
            i = best;
        }
        h[i] = e;
    }

#if SMARTDS_CHECKED_BUILD
    /** Full O(n) validation of the 4-ary heap property. */
    void
    verifyHeapOrdering() const
    {
        for (std::size_t i = 1; i < heap_.size(); ++i)
            SMARTDS_SIM_INVARIANT(
                heap_[(i - 1) / 4].key() <= heap_[i].key(),
                "heap property violated between index %zu and its parent",
                i);
        SMARTDS_SIM_INVARIANT(cancelledInHeap_ <= heap_.size(),
                              "%zu cancelled entries in a %zu-entry heap",
                              cancelledInHeap_, heap_.size());
    }

    /** Full O(n) validation: lane entries sit at now() in rising seq. */
    void
    verifyLane() const
    {
        for (std::size_t i = 0; i < lane_.size(); ++i) {
            SMARTDS_SIM_INVARIANT(lane_[i].when() == now_,
                                  "lane entry %zu at tick %llu, now %llu", i,
                                  static_cast<unsigned long long>(
                                      lane_[i].when()),
                                  static_cast<unsigned long long>(now_));
            SMARTDS_SIM_INVARIANT(i == 0 || lane_[i - 1].seq < lane_[i].seq,
                                  "lane entry %zu out of seq order", i);
        }
    }
#endif

    /** Fold one dispatch into the state hash (simulator.cpp). */
    void foldEvent(Tick when, std::uint64_t seq, EventTag tag);

    /** Close the current dsan window (simulator.cpp). */
    void flushWindow();

    Tick now_ = 0;
    unsigned domain_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Event> pool_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<HeapEntry> heap_;
    /** Heap entries whose event was cancelled (dropped at pop/compaction). */
    std::size_t cancelledInHeap_ = 0;
    /** Same-tick lane: entries at now(), in rising seq order. */
    Ring<HeapEntry> lane_;
    bool hashOn_ = SMARTDS_CHECKED_BUILD != 0;
    std::uint32_t stateHash_ = kStateHashSeed;
    std::uint32_t windowEvents_ = 0; ///< 0 = window recording off
    std::uint64_t hashedEvents_ = 0;
    std::uint64_t windowCount_ = 0;
    std::uint64_t windowFirstEvent_ = 0;
    Tick windowFirstTick_ = 0;
    Tick windowLastTick_ = 0;
    std::vector<DsanWindow> windows_;
#if SMARTDS_CHECKED_BUILD
    /** Largest (tick, seq) key dispatched so far; must be monotone. */
    unsigned __int128 lastPoppedKey_ = 0;
    std::uint64_t popCount_ = 0;
#endif
};

bool
EventHandle::cancel()
{
    if (!sim_ || !sim_->live(slot_, gen_))
        return false;
    sim_->cancelEvent(slot_);
    return true;
}

bool
EventHandle::pending() const
{
    return sim_ && sim_->live(slot_, gen_);
}

} // namespace smartds::sim

#endif // SMARTDS_SIM_SIMULATOR_H_
