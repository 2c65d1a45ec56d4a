/**
 * @file
 * Shared helpers for the figure benchmarks: standard saturating and
 * moderate-load experiment configurations per design, the command-line
 * harness every bench binary uses (`--jobs N` to parallelize sweeps,
 * `--smoke` for a tiny CI-sized run), and the sim-perf telemetry each
 * binary appends to the build tree's results/bench_perf.jsonl at exit.
 */

#ifndef SMARTDS_BENCH_BENCH_COMMON_H_
#define SMARTDS_BENCH_BENCH_COMMON_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "common/file_io.h"
#include "common/logging.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "workload/experiment.h"
#include "workload/sweep_runner.h"

namespace smartds::bench {

/** Whether `--smoke` was passed (tiny sweep for CI / smoke tests). */
inline bool &
smokeFlag()
{
    static bool flag = false;
    return flag;
}

inline bool
smoke()
{
    return smokeFlag();
}

/** Whether `--dsan` was passed (determinism-sanitizer rerun mode). */
inline bool &
dsanFlag()
{
    static bool flag = false;
    return flag;
}

/** `--trace-out` path ("" = tracing off, the default). */
inline std::string &
traceOutFlag()
{
    static std::string path;
    return path;
}

/** `--trace-sample N` value (trace every Nth request; default 1). */
inline unsigned &
traceSampleFlag()
{
    static unsigned every = 1;
    return every;
}

/** `--shards N` value (0 = flag not passed: legacy serial kernel). */
inline unsigned &
shardsFlag()
{
    static unsigned shards = 0;
    return shards;
}

/**
 * Wall-clock stopwatch for bench-side speedup measurements. This header
 * is the only place the wall-clock lint rule allows: elapsed real time
 * is telemetry (events/sec, cache-on vs cache-off speedups) and never
 * feeds back into simulation state.
 */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

    /** Elapsed real time since construction, seconds. */
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** Unix timestamp for bench_perf telemetry records. */
inline long long
unixTime()
{
    return static_cast<long long>(std::time(nullptr));
}

/**
 * Append one telemetry record to the build tree's
 * results/bench_perf.jsonl (SMARTDS_BENCH_PERF_PATH, set by
 * bench/CMakeLists.txt) and echo it to stdout. The path does not follow
 * the working directory, so a bench run from the repo root writes its
 * CSVs there but leaves the committed perf history alone.
 */
inline void
appendBenchPerf(const char *line)
{
    // One write() on an O_APPEND fd: several bench binaries running
    // under ctest -j append here concurrently, and buffered ofstream
    // appends could tear a line in half (see common/file_io.h).
    if (!appendLineAtomic(SMARTDS_BENCH_PERF_PATH, line))
        warn("could not append to %s", SMARTDS_BENCH_PERF_PATH);
    std::printf("[bench_perf] %s\n", line);
}

/**
 * The host a bench_perf record was measured on. tools/perf_diff.py only
 * compares records whose fingerprints match, so numbers from different
 * machines are never diffed against each other.
 */
struct HostFingerprint
{
    unsigned nproc = 0;
    /** /proc/cpuinfo "model name", JSON-safe; "unknown" if unreadable. */
    std::string cpuModel = "unknown";
};

inline HostFingerprint
hostFingerprint()
{
    HostFingerprint host;
    host.nproc = std::thread::hardware_concurrency();
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        std::string model;
        for (const char c : line.substr(colon + 1)) {
            // Printable ASCII minus the JSON string metacharacters.
            if (c >= ' ' && c <= '~' && c != '"' && c != '\\')
                model += c;
        }
        const std::size_t first = model.find_first_not_of(' ');
        if (first != std::string::npos)
            host.cpuModel = model.substr(first,
                                         model.find_last_not_of(' ') -
                                             first + 1);
        break;
    }
    return host;
}

/**
 * Under `--smoke`, trim a sweep's value list to its first element (the
 * first value is always each sweep's baseline point, so relative columns
 * like "vs-calm" stay well-defined).
 */
template <typename T>
std::vector<T>
sweep(std::initializer_list<T> full)
{
    if (smoke())
        return {*full.begin()};
    return std::vector<T>(full);
}

/**
 * Per-binary command-line harness and exit telemetry. Construct first
 * thing in main():
 *
 * @code
 *   int main(int argc, char **argv) {
 *       bench::Harness harness(argc, argv, "fig07_throughput_latency");
 *       workload::SweepRunner runner(harness.jobs());
 *       ...
 *   }
 * @endcode
 *
 * Recognized flags (removed from argv so google-benchmark binaries can
 * pass the rest through):
 *  - `--jobs N` / `--jobs=N`: worker threads for SweepRunner sweeps
 *    (default: hardware concurrency; 1 = serial, today's behaviour).
 *  - `--shards N` / `--shards=N`: run every queued experiment on the
 *    parallel PDES kernel with N executor shards and an auto-derived
 *    timing-domain partition (see ExperimentConfig::timingDomains).
 *    Results are byte-identical for any N at a fixed partition — this
 *    knob trades wall-clock only.
 *  - `--smoke`: tiny run — sweep lists trimmed to their first point and
 *    experiment windows shrunk (see saturating()).
 *  - `--trace-out PATH` / `--trace-out=PATH`: enable per-request tracing
 *    for every queued experiment and write a Perfetto/chrome://tracing
 *    JSON of the sampled requests to PATH (via exportTraces()); a
 *    per-stage latency CSV lands in results/<bench>_stages.csv.
 *  - `--trace-sample N` / `--trace-sample=N`: trace every Nth request
 *    (default 1 = all sampled requests; only meaningful with
 *    `--trace-out`).
 *  - `--dsan`: determinism sanitizer. Every queued experiment hashes its
 *    dispatched event stream (see ExperimentConfig::dsan); after the
 *    sweep, verifyDsan() reruns each config serially and fatals on the
 *    first diverging event window, and writes the per-run hashes to
 *    results/<bench>_statehash.csv for cross-process comparison.
 *
 * On destruction appends one JSON line to bench_perf.jsonl with
 * the events executed (also per stage tag), PDES rounds and the timing
 * domains they entered, wall-clock,
 * events/sec and peak RSS of the run, stamped with the host fingerprint
 * (nproc, CPU model), so the repo's simulation-performance trajectory is
 * measurable PR-over-PR on one machine.
 */
class Harness
{
  public:
    Harness(int &argc, char **argv, std::string name)
        : name_(std::move(name))
    {
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            if (std::strcmp(arg, "--smoke") == 0) {
                smokeFlag() = true;
            } else if (std::strcmp(arg, "--dsan") == 0) {
                dsanFlag() = true;
            } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
                jobs_ = parseJobs(argv[++i]);
            } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
                jobs_ = parseJobs(arg + 7);
            } else if (std::strcmp(arg, "--shards") == 0 && i + 1 < argc) {
                shardsFlag() = parseShards(argv[++i]);
            } else if (std::strncmp(arg, "--shards=", 9) == 0) {
                shardsFlag() = parseShards(arg + 9);
            } else if (std::strcmp(arg, "--trace-out") == 0 &&
                       i + 1 < argc) {
                traceOutFlag() = argv[++i];
            } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
                traceOutFlag() = arg + 12;
            } else if (std::strcmp(arg, "--trace-sample") == 0 &&
                       i + 1 < argc) {
                traceSampleFlag() = parseSample(argv[++i]);
            } else if (std::strncmp(arg, "--trace-sample=", 15) == 0) {
                traceSampleFlag() = parseSample(arg + 15);
            } else {
                argv[out++] = argv[i];
            }
        }
        argc = out;
        argv[argc] = nullptr;
    }

    ~Harness()
    {
        const double wall = watch_.seconds();
        const std::uint64_t events = events_;
        struct rusage usage;
        getrusage(RUSAGE_SELF, &usage);
        const double rss_mb =
            static_cast<double>(usage.ru_maxrss) / 1024.0; // Linux: KiB

        // Per-domain totals make any speedup attributable: a lopsided
        // partition shows up here before it shows up as a flat curve.
        std::string domain_events = "[";
        for (std::size_t d = 0; d < domainEvents_.size(); ++d) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%s%llu", d ? "," : "",
                          static_cast<unsigned long long>(
                              domainEvents_[d]));
            domain_events += buf;
        }
        domain_events += "]";

        // Dispatches per stage tag: which layer the events came from.
        std::string tag_events = "{";
        for (std::size_t t = 0; t < sim::kEventTagCount; ++t) {
            char buf[48];
            std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", t ? "," : "",
                          sim::eventTagName(static_cast<sim::EventTag>(t)),
                          static_cast<unsigned long long>(tagEvents_[t]));
            tag_events += buf;
        }
        tag_events += "}";

        const HostFingerprint host = hostFingerprint();
        char line[2048];
        std::snprintf(
            line, sizeof(line),
            "{\"bench\":\"%s\",\"jobs\":%u,\"smoke\":%s,"
            "\"shards\":%u,\"domains\":%u,"
            "\"events\":%llu,\"wall_s\":%.3f,\"events_per_sec\":%.0f,"
            "\"cross_events\":%llu,\"domain_events\":%s,"
            "\"tag_events\":%s,\"rounds\":%llu,\"domains_entered\":%llu,"
            "\"peak_rss_mb\":%.1f,\"unix_time\":%lld,"
            "\"nproc\":%u,\"cpu_model\":\"%s\"}",
            name_.c_str(), jobs_, smoke() ? "true" : "false",
            shardsFlag() == 0 ? 1 : shardsFlag(), maxDomains_,
            static_cast<unsigned long long>(events), wall,
            wall > 0.0 ? static_cast<double>(events) / wall : 0.0,
            static_cast<unsigned long long>(crossEvents_),
            domain_events.c_str(), tag_events.c_str(),
            static_cast<unsigned long long>(rounds_),
            static_cast<unsigned long long>(domainsEntered_), rss_mb,
            unixTime(),
            host.nproc, host.cpuModel.c_str());

        std::string record(line);
        record.insert(record.size() - 1, extraFields_);
        appendBenchPerf(record.c_str());
    }

    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    /** Sweep worker threads (0 never returned; >= 1). */
    unsigned jobs() const { return jobs_; }

    /** `--shards` value applied to experiment configs (>= 1). */
    unsigned shards() const { return shardsFlag() == 0 ? 1 : shardsFlag(); }

    // ---- event accounting (feeds the bench_perf record) -----------------
    //
    // The kernel no longer keeps a process-global executed counter (it
    // was the last mutable global in src/sim), so each bench attributes
    // its own events: noteSweep() after runner.run() for sweep benches,
    // noteResult()/noteEvents() for benches that drive experiments or
    // raw simulators by hand.

    /** Account raw kernel events (micro-benches driving a Simulator). */
    void noteEvents(std::uint64_t events) const { events_ += events; }

    /** Account one experiment's events + PDES telemetry. */
    void
    noteResult(const workload::ExperimentResult &result) const
    {
        events_ += result.eventsExecuted;
        crossEvents_ += result.crossChannelEvents;
        rounds_ += result.pdesRounds;
        domainsEntered_ += result.pdesDomainsEntered;
        for (std::size_t t = 0; t < sim::kEventTagCount; ++t)
            tagEvents_[t] += result.tagEvents[t];
        maxDomains_ = std::max(maxDomains_, result.timingDomains);
        if (domainEvents_.size() < result.domainEvents.size())
            domainEvents_.resize(result.domainEvents.size(), 0);
        for (std::size_t d = 0; d < result.domainEvents.size(); ++d)
            domainEvents_[d] += result.domainEvents[d];
    }

    /** Account every run of a finished sweep. */
    void
    noteSweep(const workload::SweepRunner &runner) const
    {
        for (std::size_t i = 0; i < runner.size(); ++i)
            noteResult(runner.result(i));
    }

    /**
     * Add field @p key, whose JSON value is @p json, to this bench's
     * bench_perf record. Host timings go here rather than into a CSV,
     * so every CSV stays a pure function of code and seed.
     */
    void
    noteField(const std::string &key, const std::string &json) const
    {
        extraFields_ += ",\"" + key + "\":" + json;
    }

    bool smoke() const { return bench::smoke(); }

    /** Whether `--dsan` was passed (determinism sanitizer on). */
    bool dsan() const { return dsanFlag(); }

    /** Whether `--trace-out` was passed (tracing requested). */
    bool tracing() const { return !traceOutFlag().empty(); }

    /**
     * Export the sweep's traces (call after runner.run(); no-op unless
     * `--trace-out` was passed):
     *  - a Perfetto / chrome://tracing JSON at the `--trace-out` path,
     *    one "process" per run in queue order (pid = queue index), so
     *    the file is byte-identical regardless of `--jobs`;
     *  - a per-stage latency breakdown CSV at results/<bench>_stages.csv.
     */
    void
    exportTraces(const workload::SweepRunner &runner) const
    {
        if (!tracing())
            return;

        trace::PerfettoWriter writer;
        std::string csv = "run,design,stage,count,avg_us,p50_us,p99_us,"
                          "p999_us\n";
        char buf[256];
        for (std::size_t i = 0; i < runner.size(); ++i) {
            const workload::ExperimentConfig &config = runner.config(i);
            const workload::ExperimentResult &result = runner.result(i);
            const char *design = middletier::designName(config.design);
            std::snprintf(buf, sizeof(buf), "%s/run%zu %s", name_.c_str(),
                          i, design);
            writer.addRun(static_cast<unsigned>(i), buf, result.spans);
            for (const trace::StageStats &s : result.stages) {
                std::snprintf(buf, sizeof(buf),
                              "%zu,%s,%s,%llu,%.3f,%.3f,%.3f,%.3f\n", i,
                              design, s.stage,
                              static_cast<unsigned long long>(s.count),
                              s.avgUs, s.p50Us, s.p99Us, s.p999Us);
                csv += buf;
            }
        }

        const std::string &json_path = traceOutFlag();
        if (!writeFileAtomic(json_path, writer.finish()))
            fatal("could not write trace JSON to '%s'", json_path.c_str());
        const std::string csv_path = "results/" + name_ + "_stages.csv";
        if (!writeFileAtomic(csv_path, csv))
            fatal("could not write stage CSV to '%s'", csv_path.c_str());
        std::printf("[trace] %u runs -> %s (stage breakdown: %s)\n",
                    writer.runs(), json_path.c_str(), csv_path.c_str());
    }

    /**
     * Determinism-sanitizer pass (call after runner.run(); no-op unless
     * `--dsan` was passed). Reruns every queued experiment serially and
     * compares its event-stream hash with the sweep's: the sweep may have
     * run the config on any worker thread in any order, so a divergence
     * means simulation state leaked across runs or depends on process
     * layout. On mismatch, reports the first diverging event window
     * (index, event range, tick range) and aborts. Also writes
     * results/<bench>_statehash.csv with one row per run, so a wrapper
     * (tests/layout_determinism.cmake) can diff hashes across deliberately
     * perturbed process layouts.
     */
    void
    verifyDsan(const workload::SweepRunner &runner) const
    {
        if (!dsanFlag())
            return;

        std::string csv = "run,design,state_hash\n";
        char buf[160];
        for (std::size_t i = 0; i < runner.size(); ++i) {
            workload::ExperimentConfig config = runner.config(i);
            const workload::ExperimentResult &swept = runner.result(i);
            // Rerun on a single executor shard: a hash match is then a
            // direct end-to-end proof that shards=N produced the exact
            // event stream of shards=1 (the PDES determinism bar), on
            // top of the run-to-run stability it always checked.
            config.shards = 1;
            const workload::ExperimentResult rerun =
                workload::runWriteExperiment(config);
            noteResult(rerun);
            if (rerun.stateHash != swept.stateHash) {
                const sim::DsanDivergence div = sim::compareDsanWindows(
                    swept.dsanWindows, rerun.dsanWindows);
                fatal("[dsan] run %zu (%s): state hash %08x vs %08x on "
                      "rerun; first diverging window %zu (events %llu..%llu,"
                      " ticks %llu..%llu)",
                      i, middletier::designName(config.design),
                      swept.stateHash, rerun.stateHash, div.windowIndex,
                      static_cast<unsigned long long>(div.firstEvent),
                      static_cast<unsigned long long>(div.firstEvent +
                                                      div.events),
                      static_cast<unsigned long long>(div.firstTick),
                      static_cast<unsigned long long>(div.lastTick));
            }
            std::snprintf(buf, sizeof(buf), "%zu,%s,%08x\n", i,
                          middletier::designName(config.design),
                          swept.stateHash);
            csv += buf;
        }
        const std::string csv_path = "results/" + name_ + "_statehash.csv";
        if (!writeFileAtomic(csv_path, csv))
            fatal("could not write state hashes to '%s'", csv_path.c_str());
        std::printf("[dsan] %zu runs rerun, event-stream hashes stable "
                    "(%s)\n",
                    runner.size(), csv_path.c_str());
    }

  private:
    static unsigned
    parseJobs(const char *text)
    {
        char *end = nullptr;
        const long value = std::strtol(text, &end, 10);
        if (end == text || *end != '\0' || value < 0 || value > 4096)
            fatal("invalid --jobs value '%s'", text);
        return value == 0 ? workload::SweepRunner::defaultJobs()
                          : static_cast<unsigned>(value);
    }

    static unsigned
    parseSample(const char *text)
    {
        char *end = nullptr;
        const long value = std::strtol(text, &end, 10);
        if (end == text || *end != '\0' || value < 1 || value > 1'000'000)
            fatal("invalid --trace-sample value '%s'", text);
        return static_cast<unsigned>(value);
    }

    static unsigned
    parseShards(const char *text)
    {
        char *end = nullptr;
        const long value = std::strtol(text, &end, 10);
        if (end == text || *end != '\0' || value < 1 || value > 256)
            fatal("invalid --shards value '%s'", text);
        return static_cast<unsigned>(value);
    }

    std::string name_;
    unsigned jobs_ = workload::SweepRunner::defaultJobs();
    Stopwatch watch_;
    // Mutable: benches account events through a const& harness, and the
    // dsan pass (logically read-only) reruns experiments it must count.
    mutable std::uint64_t events_ = 0;
    mutable std::uint64_t crossEvents_ = 0;
    mutable std::uint64_t rounds_ = 0;
    mutable std::uint64_t domainsEntered_ = 0;
    mutable sim::TagCounts tagEvents_{};
    mutable unsigned maxDomains_ = 1;
    mutable std::vector<std::uint64_t> domainEvents_;
    mutable std::string extraFields_; ///< ",\"key\":value" pairs
};

/** Usage probe @p key of @p r in Gbps, 0 when the design has none. */
inline double
usage(const workload::ExperimentResult &r, const char *key)
{
    const auto it = r.usageGbps.find(key);
    return it == r.usageGbps.end() ? 0.0 : it->second;
}

/** Saturating configuration (throughput measurements). */
inline workload::ExperimentConfig
saturating(middletier::Design design, unsigned cores, unsigned ports = 1)
{
    workload::ExperimentConfig config;
    config.design = design;
    config.cores = cores;
    config.ports = ports;
    // `--smoke` shrinks every experiment to a fraction of the simulated
    // time: enough to exercise the full pipeline, not enough to converge
    // publication-quality numbers.
    config.warmup = (smoke() ? 1 : 4) * ticksPerMillisecond;
    config.window = (smoke() ? 2 : 12) * ticksPerMillisecond;
    // `--trace-out` turns on span capture for every queued run; the
    // breakdown goes to files (Harness::exportTraces()), never stdout,
    // so parallel sweeps stay deterministic.
    if (!traceOutFlag().empty()) {
        config.traceSample = traceSampleFlag();
        config.traceEvents = true;
    }
    // `--dsan` hashes the event stream of every queued run (including in
    // non-checked builds, where hashing is otherwise off).
    config.dsan = dsanFlag();
    // `--shards N` moves every run onto the PDES kernel: N executor
    // threads over an auto-derived timing-domain partition. Without the
    // flag the config keeps the legacy serial kernel, byte-identical to
    // every run before the knob existed.
    if (shardsFlag() > 0) {
        config.shards = shardsFlag();
        config.timingDomains = 0; // auto partition from the topology
    }
    return config;
}

/**
 * Moderate-load configuration (latency measurements): enough in-flight
 * requests to keep the pipeline busy without building unbounded queues,
 * scaled to the configuration's capacity.
 */
inline workload::ExperimentConfig
moderate(middletier::Design design, unsigned cores, unsigned ports = 1)
{
    workload::ExperimentConfig config = saturating(design, cores, ports);
    config.outstandingPerClient = 2;
    switch (design) {
      case middletier::Design::CpuOnly:
        // ~1 request in flight per serving core.
        config.clients = std::max(1u, cores / 2);
        break;
      case middletier::Design::Accelerator:
        config.clients = 6;
        break;
      case middletier::Design::Bf2:
        config.clients = 5;
        break;
      case middletier::Design::SmartDs:
        config.clients = 8 * ports;
        break;
    }
    return config;
}

} // namespace smartds::bench

#endif // SMARTDS_BENCH_BENCH_COMMON_H_
