/**
 * @file
 * Microbenchmarks of the simulation kernel itself (google-benchmark):
 * event throughput, coroutine switch cost, resource-model overheads.
 * Useful for judging how much simulated time a given experiment budget
 * buys — the figure sweeps execute millions of these primitives.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_common.h"
#include "middletier/protocol.h"
#include "sim/awaitables.h"
#include "sim/bandwidth_server.h"
#include "sim/fair_share.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace {

/** Global operator-new calls (see the counting allocator below). */
// simlint: allow(mutable-global): operator new has no owning object to
// thread a counter through; atomic, bench-only telemetry
std::atomic<std::uint64_t> newCalls{0};

/** Kernel events the benchmark bodies executed (for bench_perf). */
// simlint: allow(mutable-global): google-benchmark bodies are free
// functions with no way to reach the Harness in main(); atomic,
// bench-only telemetry accumulated for one noteEvents() call at exit
std::atomic<std::uint64_t> simEvents{0};

// The counting allocator's heap, kept out of line: inlined, GCC pairs a
// counting operator new's malloc() with a replaced operator delete's
// free() and reports a mismatch (-Wmismatched-new-delete).
[[gnu::noinline]] void *
countedMalloc(std::size_t size)
{
    newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
heapFree(void *p) noexcept
{
    std::free(p);
}

} // namespace

// Counting global allocator: the header-encode benchmarks report an
// allocations-per-encode counter, which is what encodeShared()'s memo
// exists to shrink. One relaxed increment per allocation — noise for the
// timing numbers, exact for the counter.
void *
operator new(std::size_t size)
{
    return countedMalloc(size);
}

void *
// simlint: allow(naked-new): counting-allocator definition, not an allocation
operator new[](std::size_t size)
{
    return countedMalloc(size);
}

void operator delete(void *p) noexcept { heapFree(p); }
void operator delete(void *p, std::size_t) noexcept { heapFree(p); }
void operator delete[](void *p) noexcept { heapFree(p); }
void operator delete[](void *p, std::size_t) noexcept { heapFree(p); }

namespace {

using namespace smartds;
using namespace smartds::time_literals;

void
eventScheduleAndRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator sim;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            sim.schedule(static_cast<Tick>(i) * 10_ns,
                         [&sink]() { ++sink; });
        sim.run();
        simEvents.fetch_add(sim.eventsExecuted(),
                            std::memory_order_relaxed);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}

void
coroutineDelayChain(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator sim;
        int sink = 0;
        for (int p = 0; p < 50; ++p) {
            sim::spawn(sim, [](sim::Simulator &s, int *out) -> sim::Process {
                for (int i = 0; i < 20; ++i)
                    co_await sim::delay(s, 100_ns);
                ++*out;
            }(sim, &sink));
        }
        sim.run();
        simEvents.fetch_add(sim.eventsExecuted(),
                            std::memory_order_relaxed);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 50 * 20);
}

void
bandwidthServerTransfers(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator sim;
        sim::BandwidthServer server(sim, "s", 12.5e9);
        int done = 0;
        for (int i = 0; i < 1000; ++i)
            server.transfer(4096, [&done]() { ++done; });
        sim.run();
        simEvents.fetch_add(sim.eventsExecuted(),
                            std::memory_order_relaxed);
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}

void
fairShareContendedTransfers(benchmark::State &state)
{
    const auto flows = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        sim::Simulator sim;
        sim::FairShareResource res(sim, "mem", 120e9);
        int done = 0;
        std::vector<sim::FairShareResource::Flow *> fs;
        for (std::size_t f = 0; f < flows; ++f) {
            // Appended, not "f" + std::to_string(f): GCC 12 at -O3 reads
            // that as an overlapping copy (-Werror=restrict).
            std::string name = "f";
            name += std::to_string(f);
            fs.push_back(res.createFlow(std::move(name)));
        }
        for (int i = 0; i < 200; ++i)
            fs[static_cast<std::size_t>(i) % flows]->transfer(
                4096, [&done]() { ++done; });
        sim.run();
        simEvents.fetch_add(sim.eventsExecuted(),
                            std::memory_order_relaxed);
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 200);
}

/**
 * StorageHeader::encodeShared() allocation delta: with identical field
 * values (the replication fan-out case — one header re-encoded per
 * replica) the thread-local memo hands the same buffer back and the
 * allocs/encode counter sits near zero; with a varying tag every encode
 * misses the memo and pays the shared-vector allocations.
 */
void
headerEncodeShared(benchmark::State &state)
{
    const bool vary = state.range(0) != 0;
    middletier::StorageHeader hdr;
    hdr.payloadSize = 4096;
    hdr.blockChecksum = 0x1234;
    std::uint64_t tag = 0;
    std::uint64_t iters = 0;
    const std::uint64_t before = newCalls.load();
    for (auto _ : state) {
        hdr.tag = vary ? ++tag : 42;
        auto buf = hdr.encodeShared();
        benchmark::DoNotOptimize(buf);
        ++iters;
    }
    const std::uint64_t after = newCalls.load();
    state.counters["allocs_per_encode"] = benchmark::Counter(
        iters > 0 ? static_cast<double>(after - before) /
                        static_cast<double>(iters)
                  : 0.0);
    state.SetItemsProcessed(static_cast<std::int64_t>(iters));
}

/** Stack-array encode(): the zero-allocation baseline. */
void
headerEncodeArray(benchmark::State &state)
{
    middletier::StorageHeader hdr;
    hdr.payloadSize = 4096;
    hdr.blockChecksum = 0x1234;
    std::uint64_t iters = 0;
    const std::uint64_t before = newCalls.load();
    for (auto _ : state) {
        hdr.tag = ++iters;
        auto buf = hdr.encode();
        benchmark::DoNotOptimize(buf);
    }
    const std::uint64_t after = newCalls.load();
    state.counters["allocs_per_encode"] = benchmark::Counter(
        iters > 0 ? static_cast<double>(after - before) /
                        static_cast<double>(iters)
                  : 0.0);
    state.SetItemsProcessed(static_cast<std::int64_t>(iters));
}

} // namespace

BENCHMARK(eventScheduleAndRun);
BENCHMARK(coroutineDelayChain);
BENCHMARK(bandwidthServerTransfers);
BENCHMARK(fairShareContendedTransfers)->Arg(2)->Arg(8)->Arg(32);
BENCHMARK(headerEncodeShared)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("vary");
BENCHMARK(headerEncodeArray);

int
main(int argc, char **argv)
{
    smartds::bench::Harness harness(argc, argv, "micro_sim");
    // Under --smoke, cap each benchmark's measuring time so the whole
    // binary finishes in seconds; explicit user flags still win because
    // google-benchmark takes the last occurrence.
    std::string min_time = "--benchmark_min_time=0.01";
    std::vector<char *> args(argv, argv + argc);
    if (harness.smoke())
        args.insert(args.begin() + 1, min_time.data());
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    harness.noteEvents(simEvents.load(std::memory_order_relaxed));
    return 0;
}
