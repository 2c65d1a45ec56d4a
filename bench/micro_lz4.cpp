/**
 * @file
 * Microbenchmarks of the functional LZ4 codec on the synthetic corpus
 * (google-benchmark): compression/decompression throughput per profile
 * and effort, plus the achieved ratios. These are the *functional*
 * numbers of this host; the simulator's software-compression *rate* is
 * calibrated to the paper's platform (2.1 Gbps/logical core at 2.2 GHz)
 * in common/calibration.h.
 *
 * The cold start every experiment process pays is measured here too, in
 * its layers: each profile generator (1 MiB per iteration), the 4 MiB
 * corpus the experiments sample ratios from, and the 512-block
 * RatioSampler built over it (wall time; it compresses on several
 * threads).
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "corpus/corpus.h"
#include "lz4/lz4.h"

namespace {

using namespace smartds;

const std::vector<std::uint8_t> &
profileData(corpus::Profile p)
{
    // simlint: allow(mutable-global): bench-process memo of generated
    // corpora; google-benchmark runs repetitions single-threaded and no
    // simulation state is derived from the cache's iteration order
    static std::map<corpus::Profile, std::vector<std::uint8_t>> cache;
    auto it = cache.find(p);
    if (it == cache.end()) {
        Rng rng(2024);
        it = cache.emplace(p, corpus::generate(p, 1u << 20, rng)).first;
    }
    return it->second;
}

void
compressProfile(benchmark::State &state, corpus::Profile profile,
                int effort)
{
    const auto &data = profileData(profile);
    std::vector<std::uint8_t> out(lz4::maxCompressedSize(4096));
    std::size_t offset = 0;
    std::size_t compressed_total = 0;
    std::size_t original_total = 0;
    for (auto _ : state) {
        const auto n = lz4::compress(data.data() + offset, 4096,
                                     out.data(), out.size(), effort);
        benchmark::DoNotOptimize(n);
        compressed_total += n.value_or(4096);
        original_total += 4096;
        offset = (offset + 4096) % (data.size() - 4096);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(original_total));
    state.counters["ratio"] = static_cast<double>(compressed_total) /
                              static_cast<double>(original_total);
}

void
decompressProfile(benchmark::State &state, corpus::Profile profile)
{
    const auto &data = profileData(profile);
    // Pre-compress a set of blocks.
    std::vector<std::vector<std::uint8_t>> blocks;
    for (std::size_t off = 0; off + 4096 <= data.size() && blocks.size() < 64;
         off += 4096) {
        std::vector<std::uint8_t> block(data.begin() + off,
                                        data.begin() + off + 4096);
        blocks.push_back(lz4::compress(block, 1));
    }
    std::vector<std::uint8_t> out(4096);
    std::size_t i = 0;
    std::size_t bytes = 0;
    for (auto _ : state) {
        const auto n = lz4::decompress(blocks[i].data(), blocks[i].size(),
                                       out.data(), out.size());
        benchmark::DoNotOptimize(n);
        bytes += n.value_or(0);
        i = (i + 1) % blocks.size();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

void
generateProfile(benchmark::State &state, corpus::Profile profile)
{
    std::size_t bytes = 0;
    for (auto _ : state) {
        Rng rng(2024);
        const auto data = corpus::generate(profile, 1u << 20, rng);
        benchmark::DoNotOptimize(data.data());
        bytes += data.size();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

void
buildCorpus(benchmark::State &state)
{
    for (auto _ : state) {
        const corpus::SyntheticCorpus corpus(4u << 20, 42);
        benchmark::DoNotOptimize(corpus.bytes().data());
    }
}

void
buildRatioSampler(benchmark::State &state)
{
    // The experiments' sampler: 512 blocks of the 4 MiB corpus, effort 1.
    static const corpus::SyntheticCorpus corpus(4u << 20, 42);
    for (auto _ : state) {
        const corpus::RatioSampler sampler(corpus, 4096, 1, 512, 7);
        benchmark::DoNotOptimize(sampler.mean());
    }
}

} // namespace

BENCHMARK_CAPTURE(generateProfile, text, corpus::Profile::Text)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(generateProfile, xml, corpus::Profile::Xml)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(generateProfile, database, corpus::Profile::Database)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(generateProfile, executable, corpus::Profile::Executable)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(generateProfile, scientific, corpus::Profile::Scientific)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(generateProfile, imaging, corpus::Profile::Imaging)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(buildCorpus)->Unit(benchmark::kMillisecond);
BENCHMARK(buildRatioSampler)->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_CAPTURE(compressProfile, text_e1, corpus::Profile::Text, 1);
BENCHMARK_CAPTURE(compressProfile, text_e6, corpus::Profile::Text, 6);
BENCHMARK_CAPTURE(compressProfile, xml_e1, corpus::Profile::Xml, 1);
BENCHMARK_CAPTURE(compressProfile, database_e1, corpus::Profile::Database,
                  1);
BENCHMARK_CAPTURE(compressProfile, executable_e1,
                  corpus::Profile::Executable, 1);
BENCHMARK_CAPTURE(compressProfile, scientific_e1,
                  corpus::Profile::Scientific, 1);
BENCHMARK_CAPTURE(compressProfile, imaging_e1, corpus::Profile::Imaging, 1);

BENCHMARK_CAPTURE(decompressProfile, text, corpus::Profile::Text);
BENCHMARK_CAPTURE(decompressProfile, xml, corpus::Profile::Xml);
BENCHMARK_CAPTURE(decompressProfile, executable,
                  corpus::Profile::Executable);
BENCHMARK_CAPTURE(decompressProfile, imaging, corpus::Profile::Imaging);

int
main(int argc, char **argv)
{
    smartds::bench::Harness harness(argc, argv, "micro_lz4");
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
    return 0;
}
