/**
 * @file
 * SmartDS benchmark binary (one process per workload and mode).
 *
 *   smartds_perfbench --mode setup --workload W --seed N
 *   smartds_perfbench --mode run   --workload W --seed N --seconds S
 *   smartds_perfbench --mode trace --workload W --seed N --seconds S
 *
 * `setup` times the cold first runWriteExperiment of the workload's first
 * point (1-tick warmup and window: process-wide corpus, ratio sampler and
 * testbed build). `run` repeats passes over the workload's design points,
 * untraced, until S seconds have passed and reports the end-to-end
 * metrics. `trace` runs a plain and a traced pass (1/8 sampling, dsan on),
 * checks multi-domain workloads on several executor threads against one,
 * and replays each layer's public API; it reports the per-layer metrics.
 *
 * Every mode checks its outputs and prints one JSON object as its last
 * stdout line: {"correct", "attempted", "failed", "metrics", "errors"}.
 * A failed check sets correct=false, counts every operation as failed and
 * exits 1. perfbench/run.py wraps these modes into the benchmark command.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "common/logging.h"
#include "layers.h"
#include "workload/experiment.h"
#include "workloads.h"

namespace {

using namespace smartds;
using namespace smartds::perfbench;
using workload::ExperimentConfig;
using workload::ExperimentResult;

/** Passes run at the least (one warm-up, two timed), whatever --seconds. */
constexpr unsigned kMinPasses = 3;

/** Trace every Nth request in the traced run. */
constexpr unsigned kTraceSample = 8;

/**
 * Pending depth of the kernel replay: the closed-loop issuers of the
 * saturating SmartDS-1 point (14 clients x 8 outstanding); the other
 * design points keep 80-112 in flight.
 */
constexpr unsigned kReplayDepth = 112;

/** Executor threads of the sharded PDES check: min(4, nproc), at least 2. */
unsigned
checkShards()
{
    return std::clamp(std::thread::hardware_concurrency(), 2u, 4u);
}

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool shortRun = false;
    /** Self-test hook: this pass runs with seed + 1. */
    long perturbPass = -1;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: smartds_perfbench --mode setup|run|trace"
                 " --workload NAME --seed N [--seconds S] [--short]"
                 " [--perturb-pass K]\n",
                 why);
    std::exit(2);
}

long long
parseInt(const char *text, long long lo, long long hi, const char *flag)
{
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || v < lo || v > hi)
        usage((std::string("invalid ") + flag + " value").c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--short") {
            a.shortRun = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--mode") {
            a.mode = value;
        } else if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = static_cast<std::uint64_t>(
                parseInt(value, 0, 1LL << 62, "--seed"));
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(
                parseInt(value, 0, 3600, "--seconds"));
        } else if (flag == "--perturb-pass") {
            a.perturbPass = static_cast<long>(
                parseInt(value, 0, 1000, "--perturb-pass"));
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.mode != "setup" && a.mode != "run" && a.mode != "trace")
        usage("--mode must be setup, run or trace");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown --workload");
    return a;
}

/** The simulated outcome of one design point; must repeat bit for bit. */
struct Outcome
{
    std::uint64_t requests = 0;
    std::uint64_t events = 0;
    std::uint64_t unserved = 0;
    std::uint64_t crossEvents = 0;
    double gbps = 0.0;
    double avgUs = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;

    explicit Outcome(const ExperimentResult &r)
        : requests(r.requestsCompleted), events(r.eventsExecuted),
          unserved(r.failover.readsUnserved),
          crossEvents(r.crossChannelEvents), gbps(r.throughputGbps),
          avgUs(r.avgLatencyUs), p50Us(r.p50LatencyUs),
          p99Us(r.p99LatencyUs), p999Us(r.p999LatencyUs)
    {
    }

    bool operator==(const Outcome &) const = default;
};

/** One pass over every design point of a workload. */
struct Pass
{
    /** Host seconds of the design points (probes excluded). */
    double wall = 0.0;
    /** Reference seconds of the design points (probed passes only). */
    double refWall = 0.0;
    std::vector<ExperimentResult> results;

    std::uint64_t
    sum(std::uint64_t (*field)(const ExperimentResult &)) const
    {
        std::uint64_t total = 0;
        for (const auto &r : results)
            total += field(r);
        return total;
    }
    std::uint64_t
    requests() const
    {
        return sum([](const ExperimentResult &r) {
            return r.requestsCompleted;
        });
    }
    std::uint64_t
    unserved() const
    {
        return sum([](const ExperimentResult &r) {
            return r.failover.readsUnserved;
        });
    }
    std::uint64_t
    events() const
    {
        return sum(
            [](const ExperimentResult &r) { return r.eventsExecuted; });
    }
};

/**
 * Run every design point once. With @p probe, each point runs under
 * runProbed() and refWall adds up its reference seconds.
 */
Pass
runPass(const Workload &w,
        const std::function<void(ExperimentConfig &)> &adjust = nullptr,
        bool probe = false)
{
    Pass pass;
    for (const Point &p : w.points) {
        ExperimentConfig config = p.config;
        if (adjust)
            adjust(config);
        const auto run = [&pass, &config] {
            pass.results.push_back(workload::runWriteExperiment(config));
        };
        if (probe) {
            const ProbedSeconds t = runProbed(run);
            pass.wall += t.host;
            pass.refWall += t.reference;
        } else {
            const Stopwatch watch;
            run();
            pass.wall += watch.seconds();
        }
    }
    return pass;
}

/** Collects metrics and failed checks; prints the result line. */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value)) {
            fail("metric " + name + " is not finite");
            value = 0.0;
        }
        metrics_.push_back({name, value, unit});
    }

    void
    fail(const std::string &why)
    {
        std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
        errors_.push_back(why);
    }

    /** Record a check; @p ok false fails it with @p why. */
    void
    check(bool ok, const std::string &why)
    {
        if (!ok)
            fail(why);
    }

    bool ok() const { return errors_.empty(); }

    /** Print the result line; returns the process exit code. */
    int
    print(std::uint64_t attempted, std::uint64_t failed) const
    {
        attempted = std::max<std::uint64_t>(attempted, 1);
        if (!ok())
            failed = attempted; // an aborted check fails every operation
        failed = std::min(failed, attempted);
        std::string out = "{\"correct\": ";
        out += ok() ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted);
        out += ", \"failed\": " + std::to_string(failed);
        out += ", \"metrics\": {";
        char buf[128];
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", m.name.c_str(), m.value, m.unit);
            out += buf;
        }
        out += "}, \"errors\": [";
        for (std::size_t i = 0; i < errors_.size(); ++i) {
            out += i ? ", \"" : "\"";
            for (const char c : errors_[i])
                if (c != '"' && c != '\\')
                    out += c;
            out += "\"";
        }
        out += "]}";
        std::printf("%s\n", out.c_str());
        std::fflush(stdout);
        return ok() ? 0 : 1;
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::string> errors_;
};

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
peakRssMiB()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // Linux: KiB
}

/**
 * Cold first experiment of the workload: 1-tick warmup and window, so
 * nearly all of it is the process-wide corpus, the ratio sampler and the
 * testbed build.
 */
double
coldSetupSeconds(const Workload &w)
{
    ExperimentConfig config = w.points.front().config;
    config.warmup = 1;
    config.window = 1;
    const Stopwatch watch;
    (void)workload::runWriteExperiment(config);
    return watch.seconds();
}

/** Fail unless every pass reproduced the first pass's outcome. */
void
checkPasses(Report &report, const Workload &w,
            const std::vector<Pass> &passes)
{
    for (std::size_t k = 1; k < passes.size(); ++k) {
        for (std::size_t i = 0; i < w.points.size(); ++i) {
            report.check(Outcome(passes[k].results[i]) ==
                             Outcome(passes[0].results[i]),
                         "determinism: pass " + std::to_string(k) +
                             " of " + w.points[i].key +
                             " differs from pass 0");
        }
    }
}

/** Checks every workload must pass on a plain (untraced) pass. */
void
checkOutcome(Report &report, const Workload &w, const Pass &pass)
{
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const ExperimentResult &r = pass.results[i];
        report.check(r.requestsCompleted > 0 && r.throughputGbps > 0.0,
                     w.points[i].key + " completed no requests");
        report.check(r.failover.readsUnserved == 0,
                     w.points[i].key + " left reads unserved");
    }
}

int
runSetup(const Args &args)
{
    const Workload w = makeWorkload(args.workload, args.seed, args.shortRun);
    double host = 0.0;
    const ProbedSeconds t =
        runProbed([&w, &host] { host = coldSetupSeconds(w); });
    std::fprintf(stderr, "perfbench: setup %.6f s host, %.6f s reference\n",
                 host, t.reference);
    Report report;
    report.metric("setup_s", t.reference, "s");
    return report.print(1, 0);
}

int
runTimed(const Args &args)
{
    const Workload w = makeWorkload(args.workload, args.seed, args.shortRun);
    // Pay the process-wide lazy set-up before timing; setup_s measures it
    // in processes of its own.
    (void)coldSetupSeconds(w);

    Report report;
    std::vector<Pass> passes;
    double rss_mib = 0.0;
    const Stopwatch total;
    while (passes.size() < kMinPasses || total.seconds() < args.seconds) {
        if (args.perturbPass == static_cast<long>(passes.size())) {
            passes.push_back(runPass(
                w,
                [](ExperimentConfig &c) {
                    ++c.seed;
                    ++c.faultSeed;
                },
                true));
        } else {
            passes.push_back(runPass(w, nullptr, true));
        }
        // Peak RSS after one pass, so it does not grow with the number of
        // passes a host fits into --seconds (memory a run leaks piles up).
        if (passes.size() == 1)
            rss_mib = peakRssMiB();
    }
    checkPasses(report, w, passes);
    checkOutcome(report, w, passes.front());

    // Pass 0 warms the allocator and caches: it joins the checks and the
    // operation counts, not the timing. ref_wall_s is the median timed
    // pass in reference seconds (see calibrate.h).
    std::vector<double> ref_walls;
    std::string timed;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (std::size_t k = 0; k < passes.size(); ++k) {
        if (k > 0) {
            ref_walls.push_back(passes[k].refWall);
            timed += " " + std::to_string(passes[k].wall) + "/" +
                     std::to_string(passes[k].refWall);
        }
        attempted += passes[k].requests();
        failed += passes[k].unserved();
    }
    const Pass &first = passes.front();
    report.metric("ref_wall_s", median(ref_walls), "s");
    report.metric("peak_rss_mb", rss_mib, "MiB");
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const ExperimentResult &r = first.results[i];
        const std::string &key = w.points[i].key;
        report.metric("sim_gbps." + key, r.throughputGbps, "Gbit/s");
        report.metric("sim_p99_us." + key, r.p99LatencyUs, "us");
        if (key == "smartds")
            report.metric("sim_p50_us.smartds", r.p50LatencyUs, "us");
    }
    report.metric("served_frac",
                  1.0 - static_cast<double>(first.unserved()) /
                            static_cast<double>(first.requests()),
                  "ratio");
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %llu events per pass, %zu passes "
                 "in %.2f s, timed (host/reference s)%s\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 static_cast<unsigned long long>(first.events()), passes.size(),
                 total.seconds(), timed.c_str());
    return report.print(attempted, failed);
}

/** Stage statistics by name ("net.wire", ...); zeros when absent. */
trace::StageStats
stage(const ExperimentResult &r, const char *name)
{
    for (const trace::StageStats &s : r.stages)
        if (std::strcmp(s.stage, name) == 0)
            return s;
    return {};
}

/** Window usage of one probe, Gbit/s (0 when the design has none). */
double
usage(const ExperimentResult &r, const std::string &name)
{
    const auto it = r.usageGbps.find(name);
    return it == r.usageGbps.end() ? 0.0 : it->second;
}

/** Sum of the window usage of every pcie.*.<dir> probe, Gbit/s. */
double
pcieGbps(const ExperimentResult &r, const std::string &dir)
{
    double total = 0.0;
    for (const auto &[name, gbps] : r.usageGbps) {
        if (name.rfind("pcie.", 0) == 0 && name.size() > dir.size() &&
            name.compare(name.size() - dir.size(), dir.size(), dir) == 0)
            total += gbps;
    }
    return total;
}

/** Window count of a counter probe (usage Gbit/s back to a count). */
double
windowCount(const ExperimentResult &r, const ExperimentConfig &c,
            const std::string &probe)
{
    return usage(r, probe) * 1e9 / 8.0 * toSeconds(c.window);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

int
runTraced(const Args &args)
{
    const Workload w = makeWorkload(args.workload, args.seed, args.shortRun);
    (void)coldSetupSeconds(w);
    Report report;

    // A warm-up pass first, so neither timed pass pays for the allocator's
    // first growth.
    const Pass warm = runPass(w);
    const Pass traced = runPass(w, [](ExperimentConfig &c) {
        c.traceSample = kTraceSample;
        c.dsan = true;
    });
    const Pass plain = runPass(w);
    checkOutcome(report, w, plain);
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        report.check(Outcome(plain.results[i]) == Outcome(warm.results[i]),
                     "determinism: repeated run of " + w.points[i].key +
                         " differs");
        report.check(Outcome(plain.results[i]) == Outcome(traced.results[i]),
                     "traced run of " + w.points[i].key +
                         " differs from the untraced run");
    }

    // PDES: multi-domain workloads time their passes on one executor
    // thread. Here they also run on checkShards() threads, which must
    // reproduce shards=1 event for event.
    const unsigned shards = checkShards();
    double shard_speedup = 1.0;
    if (w.points.front().config.timingDomains != 1) {
        const Pass hashed_n = runPass(w, [shards](ExperimentConfig &c) {
            c.dsan = true;
            c.shards = shards;
        });
        const Pass hashed_1 = runPass(w, [](ExperimentConfig &c) {
            c.dsan = true;
            c.shards = 1;
        });
        for (std::size_t i = 0; i < w.points.size(); ++i) {
            const ExperimentResult &a = hashed_n.results[i];
            const ExperimentResult &b = hashed_1.results[i];
            report.check(a.stateHash != 0 && a.stateHash == b.stateHash &&
                             Outcome(a) == Outcome(b),
                         "stateHash of " + w.points[i].key + " at shards=" +
                             std::to_string(shards) +
                             " differs from shards=1");
        }
        shard_speedup = hashed_1.wall / hashed_n.wall;
    }

    const std::uint64_t requests = plain.requests();
    const std::uint64_t events = plain.events();
    std::uint64_t cross = 0;
    std::uint64_t domain0 = 0;
    unsigned domains = 1;
    for (const ExperimentResult &r : plain.results) {
        cross += r.crossChannelEvents;
        domain0 += r.domainEvents.empty() ? 0 : r.domainEvents.front();
        domains = std::max(domains, r.timingDomains);
    }
    const double req = static_cast<double>(requests);
    const double ev = static_cast<double>(events);

    // Layer replays (short mode keeps them token-sized).
    const bool s = args.shortRun;
    const double kernel_ns =
        kernelNsPerEvent(s ? events / 20 + 1000 : events, kReplayDepth);
    const unsigned batches = s ? 1 : 5;

    report.metric("workload.requests", req, "count");
    report.metric("workload.host_us_per_req", plain.wall * 1e6 / req, "us");
    report.metric("workload.failed_frac",
                  static_cast<double>(plain.unserved()) / req, "ratio");
    report.metric("sim.events", ev, "count");
    report.metric("sim.events_per_req", ev / req, "count");
    report.metric("sim.events_per_s", ev / plain.wall, "1/s");
    report.metric("sim.kernel_ns_per_event", kernel_ns, "ns");
    report.metric("sim.kernel_share", kernel_ns * ev / 1e9 / plain.wall,
                  "ratio");
    report.metric("sim.fair_share_ns.f8", fairShareNs(8, batches), "ns");
    report.metric("sim.fair_share_ns.f32", fairShareNs(32, batches), "ns");
    report.metric("sim.bandwidth_server_ns", bandwidthServerNs(batches),
                  "ns");

    // The round replay always uses ec_cluster's geometry: the auto
    // partition's 18 domains on checkShards() threads.
    report.metric("pdes.domains", domains, "count");
    report.metric("pdes.cross_events_per_req", static_cast<double>(cross) / req,
                  "count");
    report.metric("pdes.domain0_share", static_cast<double>(domain0) / ev,
                  "ratio");
    report.metric("pdes.shard_speedup", shard_speedup, "ratio");
    report.metric("pdes.round_ns",
                  pdesRoundNs(18, shards, s ? 200 : 4000), "ns");

    // Per-design lookups by metric suffix.
    std::map<std::string, std::size_t> at;
    for (std::size_t i = 0; i < w.points.size(); ++i)
        at[w.points[i].key] = i;
    const auto P = [&](const char *key) -> const ExperimentResult & {
        return plain.results[at.at(key)];
    };
    const auto T = [&](const char *key) -> const ExperimentResult & {
        return traced.results[at.at(key)];
    };

    std::uint64_t wire_spans = 0;
    std::uint64_t request_spans = 0;
    for (const ExperimentResult &r : traced.results) {
        wire_spans += stage(r, "net.wire").count;
        request_spans += stage(r, "request").count;
    }
    report.metric("net.wire_per_req",
                  ratio(static_cast<double>(wire_spans),
                        static_cast<double>(request_spans)),
                  "count");
    report.metric("net.port_send_ns", portSendNs(batches), "ns");
    report.metric("net.wire_p50_us", stage(T("smartds"), "net.wire").p50Us,
                  "us");

    report.metric("nic.dma_p99_us.cpu_only",
                  stage(T("cpu_only"), "nic.dma").p99Us, "us");
    report.metric("nic.dma_p99_us.acc", stage(T("acc"), "nic.dma").p99Us,
                  "us");
    for (const char *key : {"cpu_only", "acc", "smartds"}) {
        const ExperimentResult &r = P(key);
        const std::string k = key;
        report.metric("pcie.h2d_gbps." + k, pcieGbps(r, ".h2d"), "Gbit/s");
        report.metric("pcie.d2h_gbps." + k, pcieGbps(r, ".d2h"), "Gbit/s");
        const double rd = usage(r, "mem.read");
        const double wr = usage(r, "mem.write");
        report.metric("mem.read_gbps." + k, rd, "Gbit/s");
        report.metric("mem.write_gbps." + k, wr, "Gbit/s");
        report.metric("mem.bytes_per_served_byte." + k,
                      ratio(rd + wr, r.throughputGbps), "ratio");
    }

    report.metric("host.parse_p50_us.cpu_only",
                  stage(T("cpu_only"), "host.parse").p50Us, "us");
    report.metric("host.compute_p99_us.cpu_only",
                  stage(T("cpu_only"), "host.compute").p99Us, "us");
    report.metric("smartds.split_p50_us",
                  stage(T("smartds"), "smartds.split").p50Us, "us");
    report.metric("smartds.engine_p99_us",
                  stage(T("smartds"), "engine").p99Us, "us");
    report.metric("smartds.assemble_p50_us",
                  stage(T("smartds"), "smartds.assemble").p50Us, "us");

    double read_failovers = 0.0;
    double retries = 0.0;
    double reads = 0.0;
    double writes = 0.0;
    std::uint64_t abandoned = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t stripes = 0;
    std::uint64_t degraded = 0;
    std::uint64_t repairs = 0;
    std::uint64_t reconstructions = 0;
    double reconstruct_us = 0.0;
    std::uint64_t crashes = 0;
    std::uint64_t corrupted = 0;
    double stored = 0.0;
    double user_written = 0.0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const ExperimentResult &r = plain.results[i];
        const ExperimentConfig &c = w.points[i].config;
        const std::string &key = w.points[i].key;
        // Served throughput counts the plain bytes of completed writes.
        const double written =
            r.throughputGbps * 1e9 / 8.0 * toSeconds(c.window);
        const double n_writes = written / static_cast<double>(c.blockBytes);
        writes += n_writes;
        reads += static_cast<double>(r.requestsCompleted) - n_writes;
        read_failovers += windowCount(r, c, "failover.read_failovers");
        retries += windowCount(r, c, "failover.retries");
        report.metric("middletier.replicate_p99_us." + key,
                      stage(traced.results[i], "replicate").p99Us, "us");
        // Replica payloads are compressed: normalize by the corpus's
        // mean ratio so 3-way replication reads 3x and RS(4,2) 1.5x.
        report.metric("middletier.net_amp." + key,
                      ratio(usage(r, "replica.bytes_sent"),
                            r.throughputGbps * r.meanCompressionRatio),
                      "ratio");
        const auto &cs = r.cache;
        report.metric("middletier.cache_hit_rate." + key,
                      ratio(static_cast<double>(cs.hits),
                            static_cast<double>(cs.hits + cs.misses)),
                      "ratio");
        abandoned += r.failover.replicasAbandoned;
        corruptions += r.failover.corruptionsDetected;
        evictions += cs.evictions;
        invalidations += cs.invalidations;
        stripes += r.failover.stripesEncoded;
        degraded += r.failover.degradedReads;
        repairs += r.repairsCompleted;
        reconstructions += r.reconstructionsCompleted;
        reconstruct_us += r.avgReconstructionUs *
                          static_cast<double>(r.reconstructionsCompleted);
        crashes += r.crashesInjected;
        corrupted += r.blocksCorrupted;
        stored += static_cast<double>(r.storageBytesStored);
        // Whole-run bytes written (as compressed), extrapolated from the
        // window: stored bytes cover warmup and window alike.
        user_written += written * r.meanCompressionRatio *
                        toSeconds(c.warmup + c.window) /
                        toSeconds(c.window);
    }
    report.metric("middletier.read_failovers_per_read",
                  ratio(read_failovers, reads), "ratio");
    report.metric("middletier.replica_retries_per_write",
                  ratio(retries, writes), "ratio");
    report.metric("middletier.replicas_abandoned",
                  static_cast<double>(abandoned), "count");
    report.metric("middletier.corruptions_detected",
                  static_cast<double>(corruptions), "count");
    report.metric("middletier.cache_evictions",
                  static_cast<double>(evictions), "count");
    report.metric("middletier.cache_invalidations",
                  static_cast<double>(invalidations), "count");
    report.metric("middletier.cache_op_ns",
                  cacheOpNs(mebibytes(16), mebibytes(256), 14, 0.99, args.seed,
                            s ? 20000 : 400000),
                  "ns");

    report.metric("ec.stripes_encoded", static_cast<double>(stripes),
                  "count");
    report.metric("ec.degraded_reads", static_cast<double>(degraded),
                  "count");
    report.metric("ec.degraded_read_p99_us",
                  stage(T("smartds"), "ec.degraded_read").p99Us, "us");
    report.metric("storage.space_amp", ratio(stored, user_written), "ratio");
    report.metric("storage.p50_us", stage(T("smartds"), "storage").p50Us,
                  "us");
    report.metric("maintenance.repairs_completed",
                  static_cast<double>(repairs), "count");
    report.metric("maintenance.reconstructions",
                  static_cast<double>(reconstructions), "count");
    report.metric("maintenance.reconstruct_us",
                  ratio(reconstruct_us, static_cast<double>(reconstructions)),
                  "us");
    report.metric("faults.crashes", static_cast<double>(crashes), "count");
    report.metric("faults.blocks_corrupted", static_cast<double>(corrupted),
                  "count");
    report.metric("corpus.ratio_sampler_s", ratioSamplerSeconds(s ? 1 : 3),
                  "s");
    report.metric("lz4.compress_ns_per_block",
                  lz4CompressNsPerBlock(batches), "ns");
    report.metric("trace.overhead", traced.wall / plain.wall, "ratio");

    return report.print(requests, plain.unserved());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.mode == "setup")
        return runSetup(args);
    if (args.mode == "run")
        return runTimed(args);
    return runTraced(args);
}
