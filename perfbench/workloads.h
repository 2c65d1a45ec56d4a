/**
 * @file
 * The benchmark's named workloads: each is a fixed list of
 * runWriteExperiment() design points, built from the benchmark seed.
 */

#ifndef SMARTDS_PERFBENCH_WORKLOADS_H_
#define SMARTDS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload/experiment.h"

namespace smartds::perfbench {

/** One design point of a workload. */
struct Point
{
    /** Metric suffix: cpu_only, acc, bf2 or smartds. */
    std::string key;
    workload::ExperimentConfig config;
};

struct Workload
{
    std::string name;
    /** Every workload runs the four designs, in the paper's order. */
    std::vector<Point> points;
};

/** Names accepted by makeWorkload(), in the benchmark's order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name. @p seed feeds both the workload seed and the
 * fault seed of every point. @p shortRun shrinks the simulated windows
 * for the self-test. Fatal on an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      bool shortRun);

/** Metric suffix of a design. */
const char *designKey(middletier::Design design);

} // namespace smartds::perfbench

#endif // SMARTDS_PERFBENCH_WORKLOADS_H_
