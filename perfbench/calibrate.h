/**
 * @file
 * Host-speed probe: a fixed integer loop that uses no simulator code.
 *
 * On a shared host the same pass of the simulator ran up to 60% slower
 * for minutes at a time, and from one second to the next by 15%; a plain
 * integer loop slowed down with it: the core itself ran slower (clock, or
 * a busy sibling hyperthread). runProbed() samples the probe on the
 * thread doing the work, every 20 ms, and scales each stretch of work by
 * the probe speed measured right after it. The sum is the work's
 * *reference seconds*: what it would take on a core that runs the whole
 * probe in kReferenceProbeSeconds. Code changes to the simulator move the
 * work and not the probe, so they show in reference seconds in full.
 */

#ifndef SMARTDS_PERFBENCH_CALIBRATE_H_
#define SMARTDS_PERFBENCH_CALIBRATE_H_

#include <functional>

namespace smartds::perfbench {

/**
 * Probe time of the reference core: a quiet core of a 4-vCPU 2.1 GHz Xeon
 * VM ran the probe (16 M rounds of splitmix64) in about 25 ms.
 */
constexpr double kReferenceProbeSeconds = 0.025;

/** Host and reference seconds of one piece of work, probes excluded. */
struct ProbedSeconds
{
    double host = 0.0;
    double reference = 0.0;
};

/**
 * Run @p work on this thread while a timer signal aimed at this thread
 * runs a 1/16 slice of the probe every 20 ms of host time; one more
 * 1/4 probe after @p work scales its last stretch. Not reentrant, and
 * @p work must leave SIGALRM alone.
 */
ProbedSeconds runProbed(const std::function<void()> &work);

} // namespace smartds::perfbench

#endif // SMARTDS_PERFBENCH_CALIBRATE_H_
