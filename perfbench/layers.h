/**
 * @file
 * Timed replays of single layers through their public APIs, in host
 * nanoseconds (or seconds) per operation. All but the kernel replay, which
 * is one long run, return the median of several timed batches, so one slow
 * batch on a shared host does not move them.
 */

#ifndef SMARTDS_PERFBENCH_LAYERS_H_
#define SMARTDS_PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>

#include "common/units.h"

namespace smartds::perfbench {

/** Host wall-clock stopwatch (never feeds simulated state). */
class Stopwatch
{
  public:
    Stopwatch() : start_(std::chrono::steady_clock::now()) {}

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

/**
 * sim::Simulator schedule + dispatch cost: @p events self-rescheduling
 * events kept @p depth deep in the pending heap. ns per event.
 */
double kernelNsPerEvent(std::uint64_t events, unsigned depth);

/** sim::FairShareResource: 4 KiB transfers over @p flows flows. ns each. */
double fairShareNs(unsigned flows, unsigned batches);

/** sim::BandwidthServer: back-to-back 4 KiB transfers. ns each. */
double bandwidthServerNs(unsigned batches);

/**
 * sim::ClusterSim: one token per domain hopping to the next domain via
 * post()/runUntil(). Host ns per synchronization round.
 */
double pdesRoundNs(unsigned domains, unsigned shards, unsigned rounds);

/** net::Port::send -> arrival between two fabric nodes. ns per message. */
double portSendNs(unsigned batches);

/**
 * middletier::HotBlockCache lookup (+ insert on miss) over a Zipf(@p
 * theta) key stream of @p clients virtual disks of @p diskBytes each.
 * ns per operation.
 */
double cacheOpNs(Bytes capacity, Bytes diskBytes, unsigned clients,
                 double theta, std::uint64_t seed, unsigned ops);

/** corpus::RatioSampler construction as the experiment builds it. s. */
double ratioSamplerSeconds(unsigned batches);

/** lz4::compress of every 4 KiB corpus block at effort 1. ns per block. */
double lz4CompressNsPerBlock(unsigned batches);

} // namespace smartds::perfbench

#endif // SMARTDS_PERFBENCH_LAYERS_H_
