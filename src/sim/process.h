/**
 * @file
 * Coroutine-based process layer over the event kernel.
 *
 * Models with sequential logic (the middle-tier request loops, the example
 * applications) read far more naturally as coroutines than as callback
 * chains. A Process is a fire-and-forget coroutine owned by the simulator:
 *
 * @code
 *   sim::Process serveOne(sim::Simulator &sim, ...)
 *   {
 *       co_await sim::delay(sim, 10_us);       // sleep
 *       co_await completion;                   // wait for a Completion
 *   }
 *   sim::spawn(sim, serveOne(sim, ...));
 * @endcode
 *
 * A Task is a sub-step such a coroutine awaits (`co_await parse(req)`).
 * It starts when awaited and resumes its awaiter when it finishes, both
 * by symmetric transfer, so splitting a request loop into Tasks leaves
 * its event stream exactly as if the steps were written inline.
 *
 * Completion mirrors the asynchronous events returned by the SmartDS API
 * (Table 2 of the paper): it carries a 64-bit value (e.g. a byte count)
 * and wakes every awaiting process when complete() is called.
 *
 * Domain locality (PDES): a Process binds to exactly one Simulator — the
 * one it was spawned on — and every resume it schedules lands back on
 * that same event queue. Under a multi-domain ClusterSim this means
 * coroutines never cross timing domains: a component's request loops run
 * entirely inside the component's own domain, and only fabric messages
 * (which route through the lookahead-checked channels) leave it. Nothing
 * here needed to change for sharded execution.
 *
 * Pools: a request allocates a Completion state or a coroutine frame at
 * almost every step, so neither comes from the general-purpose heap once
 * warm. Both are carved from per-thread size-class free lists
 * (detail::BlockPool): a freed block goes onto the freeing thread's list
 * for its size class, and the next allocation of that class on the thread
 * pops it. A Completion's share count is a plain integer. None of this
 * needs a lock or an atomic, because of the locality rule above: a live
 * Completion or frame never leaves its timing domain, and under PDES one
 * thread runs a domain in each round, so no two threads ever touch the
 * same object at once (the round barrier orders one round's thread
 * before the next's). A block freed on another thread than the one that
 * allocated it — the experiment thread tearing down what a worker built —
 * simply joins the freeing thread's list. Each list is returned to the
 * general-purpose heap when its thread exits.
 */

#ifndef SMARTDS_SIM_PROCESS_H_
#define SMARTDS_SIM_PROCESS_H_

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "common/time.h"
#include "sim/simulator.h"

namespace smartds::sim {

namespace detail {

/**
 * Size-class free lists of small blocks for the calling thread (see the
 * file comment). Sizes round up to kGranule; a request above kMaxBlock
 * goes straight to the general-purpose heap. Blocks are never returned to
 * the heap while their thread runs, so a class's list holds as many
 * blocks as the thread ever had live at once.
 */
class BlockPool
{
  public:
    static constexpr std::size_t kGranule = 16;
    /** Covers the middle tier's per-request write coroutines (~1.3 KiB). */
    static constexpr std::size_t kMaxBlock = 2048;

    constexpr BlockPool() = default;
    BlockPool(const BlockPool &) = delete;
    BlockPool &operator=(const BlockPool &) = delete;

    ~BlockPool()
    {
        for (Block *head : free_) {
            while (head) {
                Block *next = head->next;
                heapFree(head);
                head = next;
            }
        }
    }

    /** A block of at least @p size bytes. */
    void *
    allocate(std::size_t size)
    {
        if (size <= kMaxBlock) {
            const std::size_t c = classOf(size);
            if (Block *block = free_[c]) {
                free_[c] = block->next;
                return block;
            }
            size = (c + 1) * kGranule;
        }
        return heapAllocate(size);
    }

    /** Return a block allocate(@p size) handed out. */
    void
    deallocate(void *p, std::size_t size) noexcept
    {
        if (size > kMaxBlock) {
            heapFree(p);
            return;
        }
        const std::size_t c = classOf(size);
        free_[c] = ::new (p) Block{free_[c]};
    }

  private:
    struct Block
    {
        Block *next;
    };

    // The general-purpose heap, kept out of line: inlined, GCC pairs
    // Process::promise_type::operator delete with the ::operator new it
    // can then see and reports a mismatch (-Wmismatched-new-delete).
    [[gnu::noinline]] static void *
    heapAllocate(std::size_t size)
    {
        return ::operator new(size);
    }

    [[gnu::noinline]] static void
    heapFree(void *p) noexcept
    {
        ::operator delete(p);
    }

    static constexpr std::size_t
    classOf(std::size_t size)
    {
        return size == 0 ? 0 : (size - 1) / kGranule;
    }

    std::array<Block *, kMaxBlock / kGranule> free_{};
};

/** The calling thread's BlockPool. */
inline BlockPool &
blockPool()
{
    // simlint: allow(shared-sim-state): thread-local by definition; a
    // block only ever serves objects of one timing domain at a time, and
    // one thread runs a domain at a time (see the file comment)
    static thread_local BlockPool pool;
    return pool;
}

/** Coroutine promises inherit this to take their frames from the pool. */
struct PooledFrame
{
    static void *
    operator new(std::size_t size)
    {
        return blockPool().allocate(size);
    }

    static void
    operator delete(void *p, std::size_t size) noexcept
    {
        blockPool().deallocate(p, size);
    }
};

} // namespace detail

/**
 * Fire-and-forget coroutine task. The coroutine frame destroys itself on
 * completion; the returned object is only a token for spawn().
 */
class Process
{
  public:
    struct promise_type : detail::PooledFrame
    {
        Process
        get_return_object()
        {
            return Process(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() {}
        void
        unhandled_exception()
        {
            panic("unhandled exception escaped a sim::Process");
        }
    };

    explicit Process(std::coroutine_handle<promise_type> h) : handle_(h) {}

    std::coroutine_handle<promise_type>
    release()
    {
        auto h = handle_;
        handle_ = nullptr;
        return h;
    }

  private:
    std::coroutine_handle<promise_type> handle_;
};

/**
 * A sub-step a coroutine awaits exactly once: `co_await step(...)`.
 *
 * The body does not run until awaited; awaiting transfers control into
 * it directly, and when it finishes it transfers straight back to the
 * awaiter. Neither hop schedules a kernel event, so a Task that never
 * suspends costs no simulated time and no event, and one that does
 * suspend produces the same event stream as its body written inline in
 * the awaiter. The frame comes from the per-thread block pool and is
 * freed when the Task object dies, at the end of the awaiting
 * expression.
 */
class [[nodiscard]] Task
{
  public:
    struct promise_type : detail::PooledFrame
    {
        /** The coroutine to resume when this Task finishes. */
        std::coroutine_handle<> awaiter;

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        auto
        final_suspend() noexcept
        {
            struct ResumeAwaiter
            {
                bool await_ready() const noexcept { return false; }
                std::coroutine_handle<>
                await_suspend(std::coroutine_handle<promise_type> h) noexcept
                {
                    return h.promise().awaiter;
                }
                void await_resume() const noexcept {}
            };
            return ResumeAwaiter{};
        }
        void return_void() {}
        void
        unhandled_exception()
        {
            panic("unhandled exception escaped a sim::Task");
        }
    };

    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
    Task(Task &&other) noexcept : handle_(std::exchange(other.handle_, {}))
    {
    }
    ~Task()
    {
        if (handle_)
            handle_.destroy();
    }

    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> awaiter) noexcept
    {
        handle_.promise().awaiter = awaiter;
        return handle_;
    }
    void await_resume() const noexcept {}

  private:
    std::coroutine_handle<promise_type> handle_;
};

/** Start @p p at the current simulated time (next event slot). */
inline void
spawn(Simulator &sim, Process p)
{
    auto h = p.release();
    SMARTDS_CHECK(h, "spawning an empty process");
    sim.schedule(0, [h]() { h.resume(); });
}

/** Awaitable that resumes the coroutine after @p d ticks. */
class DelayAwaiter
{
  public:
    DelayAwaiter(Simulator &sim, Tick d,
                 EventTag tag = EventTag::Generic)
        : sim_(sim), delay_(d), tag_(tag)
    {
    }

    bool await_ready() const noexcept { return delay_ == 0; }
    void
    await_suspend(std::coroutine_handle<> h)
    {
        sim_.schedule(delay_, [h]() { h.resume(); }, tag_);
    }
    void await_resume() const noexcept {}

  private:
    Simulator &sim_;
    Tick delay_;
    EventTag tag_;
};

/** Sleep for @p d ticks of simulated time. */
inline DelayAwaiter
delay(Simulator &sim, Tick d, EventTag tag = EventTag::Generic)
{
    return DelayAwaiter(sim, d, tag);
}

/**
 * A one-shot asynchronous completion carrying a 64-bit result value.
 *
 * Copies share state, so a Completion can be handed to both the producer
 * (device model) and consumers (awaiting processes). Awaiting an
 * already-complete Completion does not suspend. The shared state comes
 * from the per-thread block pool and is counted with a plain integer
 * (see the file comment for why that is safe).
 */
class Completion
{
  public:
    Completion(Simulator &sim)
        : state_(::new (detail::blockPool().allocate(sizeof(State)))
                     State(sim))
    {
    }

    Completion(const Completion &other) noexcept : state_(other.state_)
    {
        ++state_->refs;
    }

    Completion(Completion &&other) noexcept
        : state_(std::exchange(other.state_, nullptr))
    {
    }

    Completion &
    operator=(Completion other) noexcept
    {
        std::swap(state_, other.state_);
        return *this;
    }

    ~Completion()
    {
        if (state_)
            release(state_);
    }

    /** Mark complete with @p value and wake all waiters. */
    void
    complete(std::uint64_t value = 0)
    {
        State &s = *state_;
        SMARTDS_CHECK(!s.done, "double completion");
        s.done = true;
        s.value = value;
        // Waiters in the order they suspended, then callbacks in the
        // order they were registered: each gets its own zero-delay event,
        // in that order.
        if (s.waiter) {
            wake(s.waiter);
            s.waiter = nullptr;
        }
        for (const std::coroutine_handle<> h : s.moreWaiters)
            wake(h);
        s.moreWaiters.clear();
        if (s.callback)
            fireCallback();
        for (auto &fn : s.moreCallbacks)
            s.sim->schedule(0, [fn = std::move(fn), value]() mutable {
                fn(value);
            });
        s.moreCallbacks.clear();
    }

    /**
     * Invoke @p fn(value) once complete (at the next event slot if already
     * done). Unlike awaiting, a callback holds no coroutine frame, so a
     * completion that never fires leaks nothing — the right tool for
     * consumers of events that may be abandoned (e.g. acks from a crashed
     * storage node). The first callback is kept in the shared state and
     * its event carries only that state, so registering one allocates
     * nothing; further ones (rare) are boxed into their events.
     */
    void
    onComplete(Callback<void(std::uint64_t)> fn)
    {
        State &s = *state_;
        if (!s.callback && s.moreCallbacks.empty()) {
            s.callback = std::move(fn);
            if (s.done)
                fireCallback();
            return;
        }
        if (s.done) {
            s.sim->schedule(0,
                            [fn = std::move(fn), value = s.value]() mutable {
                                fn(value);
                            });
            return;
        }
        s.moreCallbacks.push_back(std::move(fn));
    }

    bool done() const { return state_->done; }

    /** Result value; only meaningful once done(). */
    std::uint64_t value() const { return state_->value; }

    // --- awaitable interface -------------------------------------------
    bool await_ready() const noexcept { return state_->done; }
    void
    await_suspend(std::coroutine_handle<> h)
    {
        if (!state_->waiter)
            state_->waiter = h;
        else
            state_->moreWaiters.push_back(h);
    }
    /** @return the completion value. */
    std::uint64_t await_resume() const noexcept { return state_->value; }

  private:
    struct State
    {
        explicit State(Simulator &s) : sim(&s) {}

        Simulator *sim;
        std::uint64_t value = 0;
        unsigned refs = 1;
        bool done = false;
        /** The first waiter; nearly every Completion has at most one. */
        std::coroutine_handle<> waiter;
        std::vector<std::coroutine_handle<>> moreWaiters;
        /** The first callback, likewise; invoked from its event. */
        Callback<void(std::uint64_t)> callback;
        std::vector<Callback<void(std::uint64_t)>> moreCallbacks;
    };

    void
    wake(std::coroutine_handle<> h)
    {
        state_->sim->schedule(0, [h]() { h.resume(); });
    }

    /**
     * The event that runs the held first callback. It holds one
     * reference to the state, so the callback outlives every Completion
     * copy until it has run, and an event dropped unrun (a simulator torn
     * down mid-run) still lets the state go.
     */
    class FireCallback
    {
      public:
        explicit FireCallback(State *s) noexcept : s_(s) { ++s_->refs; }
        FireCallback(FireCallback &&other) noexcept
            : s_(std::exchange(other.s_, nullptr))
        {
        }
        FireCallback(const FireCallback &) = delete;
        FireCallback &operator=(const FireCallback &) = delete;
        FireCallback &operator=(FireCallback &&) = delete;
        ~FireCallback()
        {
            if (s_)
                release(s_);
        }

        void
        operator()()
        {
            Callback<void(std::uint64_t)> fn = std::move(s_->callback);
            fn(s_->value);
        }

      private:
        State *s_;
    };

    /** Schedule the held first callback. */
    void
    fireCallback()
    {
        state_->sim->schedule(0, FireCallback(state_));
    }

    /** Drop one reference to @p s, freeing it with the last. */
    static void
    release(State *s) noexcept
    {
        if (--s->refs == 0) {
            s->~State();
            detail::blockPool().deallocate(s, sizeof(State));
        }
    }

    State *state_;
};

/**
 * Counting latch: wait until @p n arrivals. Used for "wait for all three
 * replica acknowledgements" style joins.
 */
class CountLatch
{
  public:
    CountLatch(Simulator &sim, unsigned n)
        : completion_(sim), remaining_(n)
    {
        if (remaining_ == 0)
            completion_.complete(0);
    }

    /** Record one arrival; completes the latch on the last one. */
    void
    arrive()
    {
        SMARTDS_CHECK(remaining_ > 0, "latch arrive() past zero");
        if (--remaining_ == 0)
            completion_.complete(0);
    }

    /**
     * Record one arrival unless the latch is already complete. Quorum
     * joins (2-of-3 replica acks) use this: the straggler's arrival past
     * the quorum is expected, not a bug.
     *
     * @return whether the arrival was counted.
     */
    bool
    tryArrive()
    {
        if (remaining_ == 0)
            return false;
        arrive();
        return true;
    }

    /**
     * Awaitable that resumes when the count reaches zero. Returned by
     * value: a Completion copy shares state, so waiters stay valid even
     * if the latch object itself is destroyed first.
     */
    Completion wait() const { return completion_; }

  private:
    Completion completion_;
    unsigned remaining_;
};

} // namespace smartds::sim

#endif // SMARTDS_SIM_PROCESS_H_
