/**
 * @file
 * Multi-SmartNIC server scale-up and fleet-sizing model (paper §5.5).
 *
 * SmartDS only moves headers across PCIe and host memory, so a 4U server
 * with two 1x4 PCIe gen3 x16 switches can host eight SmartDS cards. This
 * model takes per-card measurements (throughput, host-memory and PCIe
 * bandwidth, cores per port) and checks every host-side budget — memory
 * bandwidth, PCIe root ports, CPU cores — to compute the achievable
 * aggregate and the middle-tier server reduction versus the CPU-only
 * baseline (the paper's 2.8 Tbps and 51.6x).
 */

#ifndef SMARTDS_CLUSTER_SCALE_UP_H_
#define SMARTDS_CLUSTER_SCALE_UP_H_

#include "common/calibration.h"
#include "common/units.h"

namespace smartds::cluster {

/** Per-card measurements and host budgets. */
struct ScaleUpInputs
{
    /** Storage traffic one card consumes (SmartDS-6: ~348 Gbps). */
    double perCardGbps = 348.0;
    /** Host memory bandwidth one card occupies (~49 Gbps). */
    double hostMemoryPerCardGbps = 49.0;
    /** PCIe bandwidth one card occupies (~12.4 Gbps). */
    double pciePerCardGbps = 12.4;
    /** Networking ports per card. */
    unsigned portsPerCard = 6;
    /** Host cores needed per port (paper: two). */
    unsigned coresPerPort = 2;

    /** Cards per PCIe switch and switches per server (2 x 1x4). */
    unsigned cardsPerSwitch = calibration::smartdsCardsPerSwitch;
    unsigned switchesPerServer = 2;

    /** Host budgets. */
    double hostMemoryBudgetGbps = 8 * 153.6; ///< eight DDR4-2400 channels
    double pcieRootGbps = 102.4;             ///< per switch root port
    unsigned hostCores = calibration::hostLogicalCores;

    /** CPU-only middle-tier server throughput to compare against. */
    double cpuOnlyGbps = 54.0;
};

/** Scale-up verdict. */
struct ScaleUpReport
{
    unsigned cards = 0;
    double totalGbps = 0.0;
    double hostMemoryGbps = 0.0;
    double pciePerSwitchGbps = 0.0;
    unsigned coresNeeded = 0;
    bool memoryFeasible = false;
    bool pcieFeasible = false;
    bool coresFeasible = false;
    /** Equivalent CPU-only middle-tier servers replaced. */
    double serverReduction = 0.0;
};

/** Evaluate a server carrying @p cards SmartDS cards. */
ScaleUpReport evaluateScaleUp(const ScaleUpInputs &inputs, unsigned cards);

/** Largest feasible card count for the given budgets. */
unsigned maxFeasibleCards(const ScaleUpInputs &inputs);

} // namespace smartds::cluster

#endif // SMARTDS_CLUSTER_SCALE_UP_H_
