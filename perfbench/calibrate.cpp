#include "calibrate.h"

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>

#include "common/logging.h"

namespace smartds::perfbench {

namespace {

constexpr std::uint64_t kProbeRounds = 16000000;
constexpr std::uint64_t kSliceRounds = kProbeRounds / 16;
constexpr std::uint64_t kFinalRounds = kProbeRounds / 4;
constexpr long kSliceIntervalNs = 20000000;

/** Keeps the probe's result alive, so the loop is not optimized away. */
volatile std::uint64_t g_sink;

/**
 * Sampling state. Written by the signal handler and by runProbed on the
 * same thread; lock-free atomics keep the handler's writes visible.
 */
std::atomic<std::uint64_t> g_markNs{0}; // end of the last probe slice
std::atomic<double> g_hostNs{0.0};
std::atomic<double> g_referenceNs{0.0};

std::uint64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t
probeLoop(std::uint64_t rounds)
{
    std::uint64_t state = 1;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < rounds; ++i) {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        acc += (z ^ (z >> 31)) >> 7;
    }
    return acc;
}

/**
 * Time @p rounds of the probe and scale the work done since the last
 * slice by it. Async-signal-safe.
 */
void
probeSlice(std::uint64_t rounds)
{
    const std::uint64_t start = nowNs();
    g_sink = probeLoop(rounds);
    const std::uint64_t end = nowNs();
    const double work = static_cast<double>(start - g_markNs.load());
    const double probe = static_cast<double>(end - start);
    const double reference_probe = kReferenceProbeSeconds * 1e9 *
                                   static_cast<double>(rounds) /
                                   static_cast<double>(kProbeRounds);
    g_hostNs.store(g_hostNs.load() + work);
    g_referenceNs.store(g_referenceNs.load() +
                        work * reference_probe / probe);
    g_markNs.store(end);
}

void
onTimer(int)
{
    const int saved = errno;
    probeSlice(kSliceRounds);
    errno = saved;
}

/**
 * A timer that raises SIGALRM on the constructing thread every
 * kSliceIntervalNs; deleted when the object goes out of scope.
 */
class SliceTimer
{
  public:
    SliceTimer()
    {
        sigevent event = {};
        event.sigev_notify = SIGEV_THREAD_ID;
        event.sigev_signo = SIGALRM;
        event._sigev_un._tid = gettid();
        if (timer_create(CLOCK_MONOTONIC, &event, &timer_) != 0)
            fatal("perfbench: timer_create failed");
        itimerspec every = {};
        every.it_interval.tv_nsec = kSliceIntervalNs;
        every.it_value.tv_nsec = kSliceIntervalNs;
        if (timer_settime(timer_, 0, &every, nullptr) != 0)
            fatal("perfbench: timer_settime failed");
    }
    ~SliceTimer() { timer_delete(timer_); }
    SliceTimer(const SliceTimer &) = delete;
    SliceTimer &operator=(const SliceTimer &) = delete;

  private:
    timer_t timer_{};
};

} // namespace

ProbedSeconds
runProbed(const std::function<void()> &work)
{
    // The handler stays installed: a tick already raised when the timer
    // is deleted must not find SIGALRM's default action (terminate).
    struct sigaction action = {};
    action.sa_handler = onTimer;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGALRM, &action, nullptr) != 0)
        fatal("perfbench: sigaction failed");

    g_hostNs.store(0.0);
    g_referenceNs.store(0.0);
    g_markNs.store(nowNs());
    {
        const SliceTimer timer;
        work();
    }
    probeSlice(kFinalRounds);
    return {g_hostNs.load() / 1e9, g_referenceNs.load() / 1e9};
}

} // namespace smartds::perfbench
