/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The kernel is a cancellable pending-event queue over integer picosecond
 * ticks. Events scheduled for the same tick fire in scheduling order (a
 * monotonic sequence number breaks ties), which keeps simulations
 * deterministic.
 *
 * The hot path is allocation-averse: event records live in a slab pool and
 * are recycled through a free list, cancellation is a generation-counter
 * check (no shared control block), and callbacks are built in place, inside
 * the event record, by a small-buffer-optimized holder, so the common
 * capturing lambda never touches the general-purpose heap. Figure sweeps
 * push hundreds of millions of events through this kernel, so every
 * per-event allocation removed here is minutes off a full reproduction run.
 *
 * The pending queue is a monotone radix queue over ticks. It keeps a base
 * tick, the tick of the last dispatched event; every pending event is at
 * or after it, because every schedule is at or after now() and now() is
 * at or after the base.
 *  - Bucket k >= 1 holds the events whose tick first differs from the base
 *    in bit k-1 (counting down from the top): bucket = bit_width(tick ^
 *    base). A lower bucket therefore holds earlier ticks.
 *  - Bucket 0 holds the events at the base tick, in seq order. It is also
 *    the *same-tick lane*: an event scheduled for now() while the base is
 *    at now() joins its tail, behind every older event of the tick.
 *  - Dispatch pops bucket 0's head. When bucket 0 is empty, the lowest
 *    non-empty bucket is re-bucketed around its minimum: the base moves to
 *    that tick, and each of the bucket's events drops into a lower bucket.
 *    Buckets above it stay correct, since their ticks differ from the old
 *    and the new base in the same top bit. An event is re-bucketed at most
 *    64 times.
 *
 * Events are linked into their bucket through the slab itself (doubly
 * linked slot indices), so a bucket never allocates, and a cancel unlinks
 * its event at once: the queue holds live events only. The base moves
 * only when an event is dispatched; a peek (nextEventTick(), or a
 * runUntil() that stops at its deadline) must leave it alone, because a
 * caller may then schedule below the tick it peeked (sim::ClusterSim does,
 * when it drains channel events into a domain).
 *
 * Each bucket caches its earliest tick: a link lowers it, and a cancel
 * that removes it marks it stale, to be recomputed by a walk of the
 * bucket the next time it is asked for. So a peek costs O(1), and so does
 * a runUntil() that stops short of the next event, unless a cancel took
 * that bucket's earliest event. A re-key (rescheduleAt()) moves a pending
 * event in place: it unlinks and relinks the same slot under a fresh
 * sequence number, so it leaves the cache as a cancel plus a schedule
 * would.
 */

#ifndef SMARTDS_SIM_SIMULATOR_H_
#define SMARTDS_SIM_SIMULATOR_H_

#include <algorithm>
#include <array>
#include <bit>
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

template <typename Signature>
class Callback;

/**
 * Move-only callable holder with a small-buffer optimisation, the one
 * callback type of the hot path: callables up to inlineCapacity bytes are
 * stored inside the holder itself; larger ones fall back to a heap box.
 * Implicitly constructible from any callable matching @p R(Args...), so
 * call sites pass lambdas, function pointers or std::functions unchanged.
 *
 * EventCallback (Callback<void()>) is what the kernel stores in each
 * event record; components take Callback<void(Tick)> (DMA completions),
 * Callback<void(std::uint64_t)> (Completion callbacks) or EventCallback
 * (core-pool work, port send completions, maintenance resends) where
 * they used to take std::function. The difference matters: libstdc++'s
 * std::function keeps only 16-byte, trivially copyable callables in
 * place, so a capture holding a shared_ptr or a Completion was boxed on
 * every call; here anything up to six pointers' worth stays inline.
 *
 * A holder is 56 bytes, so a closure that captures one no longer fits
 * another holder's buffer: a component that must keep a callback while
 * it schedules work parks it (sim::SlotTable, sim::Ring) and captures
 * the slot instead.
 */
template <typename R, typename... Args>
class Callback<R(Args...)>
{
  public:
    /** Inline storage: covers lambdas capturing up to 6 pointers. */
    static constexpr std::size_t inlineCapacity = 48;

    Callback() = default;
    Callback(std::nullptr_t) {} // NOLINT: implicit, like std::function

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, Callback> &&
                  !std::is_same_v<Fn, std::nullptr_t> &&
                  std::is_invocable_r_v<R, Fn &, Args...>>>
    Callback(F &&f) // NOLINT: implicit by design
    {
        emplace(std::forward<F>(f));
    }

    Callback(Callback &&other) noexcept { moveFrom(other); }

    Callback &
    operator=(Callback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    Callback(const Callback &) = delete;
    Callback &operator=(const Callback &) = delete;

    ~Callback() { reset(); }

    /** Whether a callable is held. */
    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the held callable (must hold one). */
    R
    operator()(Args... args)
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

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
    friend class Simulator;

    /**
     * Type-erased operations. A null relocate means the stored bytes may
     * simply be copied (a trivially copyable callable, or a box pointer);
     * a null destroy means there is nothing to destroy. Most callbacks
     * capture pointers and integers only, so moving one between the
     * caller, the event slot and the dispatcher is a plain copy.
     */
    struct Ops
    {
        R (*invoke)(void *, Args...);
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
        [](void *p, Args... args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(p)))(
                std::forward<Args>(args)...);
        },
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
        [](void *p, Args... args) -> R {
            return (**std::launder(reinterpret_cast<Fn **>(p)))(
                std::forward<Args>(args)...);
        },
        nullptr,
        [](void *p) { delete *std::launder(reinterpret_cast<Fn **>(p)); },
    };

    /**
     * Build @p f in this (empty) holder. The converting constructor and
     * Simulator::scheduleAt() both use it, so a callable handed to
     * schedule() is constructed once, directly in its event slot, instead
     * of being built here and moved in twice.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, Fn &, Args...>,
                      "callable does not match the callback's signature");
        SMARTDS_SIM_INVARIANT(ops_ == nullptr,
                              "building a callback over a held one");
        if constexpr (std::is_same_v<Fn, Callback>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "a Callback is moved, never copied");
            moveFrom(f);
        } else if constexpr (sizeof(Fn) <= inlineCapacity &&
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
    moveFrom(Callback &other) noexcept
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
 * The kernel's event callback: any void() callable, stored in place in
 * its event record (see Callback).
 */
using EventCallback = Callback<void()>;

/**
 * Handle to a scheduled event; allows cancellation (and a re-key through
 * Simulator::rescheduleAt(), which keeps the handle). Default-constructed
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

/** Number of EventTag values. */
inline constexpr std::size_t kEventTagCount =
    static_cast<std::size_t>(EventTag::Test) + 1;

/** Dispatches per stage tag, indexed by the tag's value. */
using TagCounts = std::array<std::uint64_t, kEventTagCount>;

/** Lower-case name of @p tag ("net", "maintenance", ...). */
const char *eventTagName(EventTag tag);

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
    Simulator()
    {
        head_.fill(kNil);
        tail_.fill(kNil);
    }
    ~Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Returned by nextEventTick() when no live event is pending. */
    static constexpr Tick kNoPendingEvent = ~Tick{0};

    /**
     * Tick of the earliest pending event, or kNoPendingEvent when the
     * queue holds none. A peek: the queue's base stays where it is.
     */
    Tick
    nextEventTick() const
    {
        if (head_[0] != kNil)
            return base_;
        return mask_ == 0 ? kNoPendingEvent : earliestIn(lowestBucket());
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

    /**
     * Schedule @p fn (any void() callable, or an EventCallback) to run
     * @p delay ticks from now.
     */
    template <typename F>
    EventHandle
    schedule(Tick delay, F &&fn, EventTag tag = EventTag::Generic)
    {
        return scheduleAt(now_ + delay, std::forward<F>(fn), tag);
    }

    /**
     * Schedule @p fn at absolute tick @p when (must be >= now). The
     * callable is built directly in its event slot.
     */
    template <typename F>
    EventHandle
    scheduleAt(Tick when, F &&fn, EventTag tag = EventTag::Generic)
    {
        SMARTDS_CHECK(when >= now_,
                       "scheduling into the past (when=%llu now=%llu)",
                       static_cast<unsigned long long>(when),
                       static_cast<unsigned long long>(now_));
        SMARTDS_SIM_INVARIANT(base_ <= now_,
                              "queue base %llu ahead of now %llu",
                              static_cast<unsigned long long>(base_),
                              static_cast<unsigned long long>(now_));
        if (freeSlots_.empty())
            growSlab();
        // Build first, claim after: a callable whose construction throws
        // leaves the slot on the free list.
        const std::uint32_t slot = freeSlots_.back();
        Event &event = pool_[slot];
        event.fn.emplace(std::forward<F>(fn));
        freeSlots_.pop_back();
        event.tick = when;
        event.seq = nextSeq_++;
        event.tag = tag;
        link(slot, bucketOf(when));
        return EventHandle(this, slot, event.gen);
    }

    /**
     * Move the pending event behind @p handle to absolute tick @p when
     * (must be >= now), keeping its callback, its tag and the handle. The
     * event takes the next sequence number and joins the tail of its new
     * bucket, so it dispatches, and hashes, exactly as a cancel followed
     * by a schedule of the same callable: a cancel takes no sequence
     * number and a schedule takes the next one. @return false, changing
     * nothing, when the event already fired or was cancelled.
     */
    bool
    rescheduleAt(const EventHandle &handle, Tick when)
    {
        SMARTDS_CHECK(when >= now_,
                       "rescheduling into the past (when=%llu now=%llu)",
                       static_cast<unsigned long long>(when),
                       static_cast<unsigned long long>(now_));
        if (handle.sim_ != this || !live(handle.slot_, handle.gen_))
            return false;
        const std::uint32_t slot = handle.slot_;
        Event &event = pool_[slot];
        unlink(slot, bucketOf(event.tick));
        event.tick = when;
        event.seq = nextSeq_++;
        link(slot, bucketOf(when));
        return true;
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
     * Events executed so far, per stage tag. One increment per dispatch,
     * always on; never folded into the state hash.
     */
    const TagCounts &tagEventsExecuted() const { return tagEvents_; }

    /**
     * Number of live pending events: scheduled, not yet fired and not
     * cancelled.
     */
    std::size_t
    pendingEvents() const
    {
        return pool_.size() - freeSlots_.size();
    }

    /**
     * Entries linked into the queue's buckets, counted by walking them
     * (O(pending); for tests). A cancel unlinks its event at once, so
     * this always equals pendingEvents().
     */
    std::size_t
    heapEntries() const
    {
        std::size_t n = 0;
        for (const std::uint32_t head : head_)
            for (std::uint32_t s = head; s != kNil; s = pool_[s].next)
                ++n;
        return n;
    }

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

    /** End-of-list / empty-bucket marker for slot links. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** Bucket 0 plus one bucket per bit of a tick. */
    static constexpr unsigned kBuckets = 65;

    /**
     * Pooled event record. A pending event is linked into its bucket
     * through @ref prev / @ref next; a free slot's links are stale.
     */
    struct Event
    {
        EventCallback fn;
        Tick tick = 0;
        std::uint64_t seq = 0;
        std::uint32_t gen = 0;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        /** Stage tag for the determinism hash and the tag counters. */
        EventTag tag = EventTag::Generic;
    };

    /** The bucket an event at @p when belongs in, given the base. */
    unsigned
    bucketOf(Tick when) const
    {
        return static_cast<unsigned>(std::bit_width(when ^ base_));
    }

    /** Mask bit of bucket @p b >= 1 (bucket 0 has none: see head_[0]). */
    static std::uint64_t
    maskBit(unsigned b)
    {
        return std::uint64_t{1} << (b - 1);
    }

    /** The lowest non-empty bucket above 0 (mask_ must be nonzero). */
    unsigned
    lowestBucket() const
    {
        return static_cast<unsigned>(std::countr_zero(mask_)) + 1;
    }

    /** Earliest tick in the (non-empty) bucket @p b >= 1, by a walk. */
    Tick
    walkEarliest(unsigned b) const
    {
        Tick earliest = kNoPendingEvent;
        for (std::uint32_t s = head_[b]; s != kNil; s = pool_[s].next)
            earliest = std::min(earliest, pool_[s].tick);
        return earliest;
    }

    /**
     * Earliest tick in the (non-empty) bucket @p b >= 1: the cached one,
     * recomputed first if a cancel left it stale.
     */
    Tick
    earliestIn(unsigned b) const
    {
        if (staleMin_ & maskBit(b)) {
            bucketMin_[b] = walkEarliest(b);
            staleMin_ &= ~maskBit(b);
        }
        return bucketMin_[b];
    }

    /** Append @p slot to bucket @p b (its seq is the bucket's largest). */
    void
    link(std::uint32_t slot, unsigned b)
    {
        Event &event = pool_[slot];
        const std::uint32_t tail = tail_[b];
        SMARTDS_SIM_INVARIANT(tail == kNil || pool_[tail].seq < event.seq,
                              "bucket %u would fall out of seq order", b);
        event.prev = tail;
        event.next = kNil;
        if (tail == kNil) {
            head_[b] = slot;
            bucketMin_[b] = event.tick;
            if (b != 0) {
                mask_ |= maskBit(b);
                staleMin_ &= ~maskBit(b);
            }
        } else {
            pool_[tail].next = slot;
            // A stale minimum stays a lower bound, and stays stale.
            bucketMin_[b] = std::min(bucketMin_[b], event.tick);
        }
        tail_[b] = slot;
    }

    /** Remove @p slot from its bucket @p b. */
    void
    unlink(std::uint32_t slot, unsigned b)
    {
        const Event &event = pool_[slot];
        if (event.prev == kNil)
            head_[b] = event.next;
        else
            pool_[event.prev].next = event.next;
        if (event.next == kNil)
            tail_[b] = event.prev;
        else
            pool_[event.next].prev = event.prev;
        if (b != 0 && head_[b] == kNil)
            mask_ &= ~maskBit(b);
        else if (b != 0 && event.tick == bucketMin_[b])
            staleMin_ |= maskBit(b);
    }

    /**
     * Move the base to the earliest pending tick and re-bucket the
     * lowest bucket around it, so bucket 0 holds that tick's events.
     * Leaves the queue untouched, and returns false, when nothing is
     * pending at or before @p limit.
     */
    bool
    advanceBase(Tick limit)
    {
        if (mask_ == 0)
            return false;
        const unsigned b = lowestBucket();
        const Tick earliest = earliestIn(b);
        if (earliest > limit)
            return false;
        base_ = earliest;
        std::uint32_t s = head_[b];
        head_[b] = tail_[b] = kNil;
        mask_ &= ~maskBit(b);
        staleMin_ &= ~maskBit(b);
        // In list (= seq) order, into buckets below b that are all empty,
        // so every bucket stays sorted by seq.
        while (s != kNil) {
            const std::uint32_t next = pool_[s].next;
            link(s, bucketOf(pool_[s].tick));
            s = next;
        }
        return true;
    }

    bool
    live(std::uint32_t slot, std::uint32_t gen) const
    {
        return slot < pool_.size() && pool_[slot].gen == gen;
    }

    /** Add one free slot to the slab. */
    void
    growSlab()
    {
        // Grow the slab 4x at a time: Event records are non-trivial (they
        // hold callbacks), so regrowth relocations are the one remaining
        // per-event cost worth amortising aggressively.
        if (pool_.size() == pool_.capacity())
            pool_.reserve(pool_.empty() ? 256 : pool_.size() * 4);
        freeSlots_.push_back(static_cast<std::uint32_t>(pool_.size()));
        pool_.emplace_back();
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

    /** Cancel a live event (EventHandle::cancel): unlink it at once. */
    void
    cancelEvent(std::uint32_t slot)
    {
        unlink(slot, bucketOf(pool_[slot].tick));
        releaseSlot(slot);
    }

    /**
     * Dispatch the next pending event if its tick is <= @p limit.
     * @return whether an event ran.
     */
    bool
    dispatchUpTo(Tick limit)
    {
        if (head_[0] == kNil) {
            if (!advanceBase(limit))
                return false;
        } else if (base_ > limit) {
            return false; // a deadline already in the past
        }
        const std::uint32_t slot = head_[0];
        Event &event = pool_[slot];
        head_[0] = event.next;
        if (event.next == kNil)
            tail_[0] = kNil;
        else
            pool_[event.next].prev = kNil;
#if SMARTDS_CHECKED_BUILD
        const unsigned __int128 key =
            (static_cast<unsigned __int128>(event.tick) << 64) | event.seq;
        SMARTDS_SIM_INVARIANT(
            key >= lastPoppedKey_,
            "event dispatched out of (tick, seq) order at tick %llu",
            static_cast<unsigned long long>(event.tick));
        lastPoppedKey_ = key;
#endif
        now_ = base_;
        // Fold (tick, seq, stage tag) into the determinism hash before the
        // slot is recycled (recycling does not clear the tag, but the
        // callback below may overwrite it).
        if (hashOn_)
            foldEvent(event.tick, event.seq, event.tag);
        ++tagEvents_[static_cast<std::size_t>(event.tag)];
        // Move the callback out and recycle the slot *before* invoking, so
        // the callback may schedule freely (including reusing this very
        // slot) without invalidating anything we still touch.
        EventCallback fn = std::move(event.fn);
        releaseSlot(slot);
#if SMARTDS_CHECKED_BUILD
        if ((++popCount_ & 0xfffu) == 0)
            verifyQueue();
#endif
        ++executed_;
        fn();
        return true;
    }

#if SMARTDS_CHECKED_BUILD
    /**
     * Full O(n) validation of the radix queue: every event sits in the
     * bucket its tick belongs in (bucket 0: at the base), each bucket is
     * in rising seq order with consistent links and mask bit, each
     * non-empty bucket's cached earliest tick is its earliest (or, while
     * stale, at most that), the base is not ahead of now(), and the lists
     * hold exactly the live events.
     */
    void
    verifyQueue() const
    {
        SMARTDS_SIM_INVARIANT(base_ <= now_,
                              "queue base %llu ahead of now %llu",
                              static_cast<unsigned long long>(base_),
                              static_cast<unsigned long long>(now_));
        std::size_t linked = 0;
        for (unsigned b = 0; b < kBuckets; ++b) {
            SMARTDS_SIM_INVARIANT(
                b == 0 || ((mask_ & maskBit(b)) != 0) == (head_[b] != kNil),
                "bucket %u's mask bit disagrees with its list", b);
            std::uint32_t prev = kNil;
            for (std::uint32_t s = head_[b]; s != kNil;
                 prev = s, s = pool_[s].next) {
                const Event &event = pool_[s];
                SMARTDS_SIM_INVARIANT(
                    ++linked <= pendingEvents(),
                    "bucket lists hold more than the %zu pending events",
                    pendingEvents());
                SMARTDS_SIM_INVARIANT(event.prev == prev,
                                      "broken back link in bucket %u", b);
                SMARTDS_SIM_INVARIANT(
                    bucketOf(event.tick) == b,
                    "event at tick %llu in bucket %u, belongs in %u",
                    static_cast<unsigned long long>(event.tick), b,
                    bucketOf(event.tick));
                SMARTDS_SIM_INVARIANT(prev == kNil ||
                                          pool_[prev].seq < event.seq,
                                      "bucket %u out of seq order", b);
            }
            SMARTDS_SIM_INVARIANT(tail_[b] == prev,
                                  "bucket %u's tail is not its last event",
                                  b);
            if (b == 0 || head_[b] == kNil)
                continue;
            const Tick earliest = walkEarliest(b);
            SMARTDS_SIM_INVARIANT(
                (staleMin_ & maskBit(b)) != 0 ? bucketMin_[b] <= earliest
                                              : bucketMin_[b] == earliest,
                "bucket %u caches earliest tick %llu, holds %llu", b,
                static_cast<unsigned long long>(bucketMin_[b]),
                static_cast<unsigned long long>(earliest));
        }
        SMARTDS_SIM_INVARIANT(linked == pendingEvents(),
                              "%zu events linked, %zu pending", linked,
                              pendingEvents());
    }
#endif

    /** Fold one dispatch into the state hash (simulator.cpp). */
    void foldEvent(Tick when, std::uint64_t seq, EventTag tag);

    /** Close the current dsan window (simulator.cpp). */
    void flushWindow();

    Tick now_ = 0;
    /** Radix base: the last dispatched tick; never ahead of now_. */
    Tick base_ = 0;
    unsigned domain_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Event> pool_;
    std::vector<std::uint32_t> freeSlots_;
    /** First and last slot of each bucket's list (kNil when empty). */
    std::array<std::uint32_t, kBuckets> head_;
    std::array<std::uint32_t, kBuckets> tail_;
    /** Bit b-1 set iff bucket b >= 1 is non-empty. */
    std::uint64_t mask_ = 0;
    /**
     * Earliest tick of each non-empty bucket (see earliestIn()); bit b-1
     * of staleMin_ set iff a cancel may have removed bucket b's, so the
     * cached value is only a lower bound until the next walk. Both are
     * refreshed by const peeks, hence mutable.
     */
    mutable std::array<Tick, kBuckets> bucketMin_{};
    mutable std::uint64_t staleMin_ = 0;
    TagCounts tagEvents_{};
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
