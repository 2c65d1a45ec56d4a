/**
 * @file
 * Calibration constants for the simulated testbed.
 *
 * Single source of truth for every rate, latency and capacity quoted in
 * the paper's Section 5.1 platform description and in its measured
 * endpoints. Benchmarks and default configurations all read from here so
 * that a calibration change propagates everywhere consistently.
 *
 * Paper platform: 4x AMAX XP04A201G servers, each 2x Xeon Silver 4214
 * (12C/24T @ 2.2 GHz), 8x32 GiB DDR4-2400, 16 MiB LLC (DDIO 2/11 ways),
 * Mellanox ConnectX-5 100 GbE, prototype on Xilinx VCU128 (HBM, up to 6x
 * 100 GbE ports), baselines on Alveo U280 ("Acc") and BlueField-2 ("BF2").
 */

#ifndef SMARTDS_COMMON_CALIBRATION_H_
#define SMARTDS_COMMON_CALIBRATION_H_

#include "common/time.h"
#include "common/units.h"

namespace smartds::calibration {

// ---------------------------------------------------------------- Host CPU

/** Logical cores per middle-tier server (2 sockets x 12 cores x 2 SMT). */
constexpr unsigned hostLogicalCores = 48;

/** Physical cores per middle-tier server. */
constexpr unsigned hostPhysicalCores = 24;

/** Host core frequency (Hz). */
constexpr double hostCoreHz = 2.2e9;

/**
 * LZ4 software compression throughput of one logical core with the
 * sibling idle (paper Section 5.2: ~2.1 Gbps).
 */
constexpr BytesPerSecond lz4CompressPerCore = gbps(2.1);

/**
 * Combined LZ4 throughput of the two SMT siblings of one physical core
 * (paper: ~2.7 Gbps), i.e. the second sibling adds only ~0.6 Gbps.
 */
constexpr BytesPerSecond lz4CompressPerSmtPair = gbps(2.7);

/** Decompression-to-compression throughput ratio (paper Section 2.2.3). */
constexpr double lz4DecompressSpeedup = 7.0;

/**
 * Per-request software cost on the host CPU excluding (de)compression:
 * RDMA completion handling, header parse, routing decision and the posts
 * for the replicated sends. Calibrated so the CPU-only design peaks near
 * 54 Gbps over 48 logical cores (Section 5.5's implied baseline).
 */
constexpr Tick hostPerRequestSoftwareCost = 2400 * ticksPerNanosecond;

/** Header parse / prepare cost alone (used where parse is split out). */
constexpr Tick hostHeaderParseCost = 600 * ticksPerNanosecond;

/**
 * Per-request host software cost when serving through SmartDS: the CPU
 * only parses the 64-byte header and posts descriptors, never touching
 * payloads, so two cores saturate one 100 GbE port (Section 5.2).
 */
constexpr Tick smartdsHostRequestCost = 1050 * ticksPerNanosecond;

// ------------------------------------------------------------- Host memory

/** Achievable host memory bandwidth (paper Section 3.1.2: ~120 GB/s). */
constexpr BytesPerSecond hostMemoryBandwidth = 120e9;

/** Idle memory access latency. */
constexpr Tick hostMemoryIdleLatency = 90 * ticksPerNanosecond;

/**
 * Additional memory access latency at full utilisation. Calibrated so
 * that a window-limited 100 Gbps DMA stream degrades to ~46% under full
 * MLC pressure, the paper's Figure 4 endpoint.
 */
constexpr Tick hostMemoryLoadedExtraLatency = 3900 * ticksPerNanosecond;

/**
 * Peak memory bandwidth one Intel MLC injector core demands with no
 * delay between requests (read + write combined, limited by load/store
 * throughput and memory-level parallelism).
 */
constexpr BytesPerSecond mlcPerCoreBandwidth = 14e9;

/** LSM compaction processing rate of one host core (maintenance). */
constexpr BytesPerSecond hostCompactionPerCore = gbps(8.0);

/**
 * Memory-level parallelism of one core's software streaming loop: how
 * many cache-line misses it keeps in flight. Caps a core's achievable
 * bandwidth at mlp x 64 B / loaded-latency, which is what makes software
 * compression collapse under memory pressure (Figure 9) while hardware
 * engines with deep pipelines do not.
 */
constexpr unsigned hostCoreMlp = 8;

// -------------------------------------------------------------------- PCIe

/** Achievable PCIe 3.0 x16 bandwidth per direction (~104 Gbps). */
constexpr BytesPerSecond pcieGen3x16Bandwidth = gbps(104.0);

/** Achievable PCIe 4.0 x16 bandwidth per direction (~2x gen3). */
constexpr BytesPerSecond pcieGen4x16Bandwidth = gbps(208.0);

/**
 * Base link latency of a DMA. Together with 4 KiB serialisation and the
 * idle memory access this totals the ~1.4 us unloaded DMA latency of the
 * paper's Table 1.
 */
constexpr Tick pcieIdleLatency = 1050 * ticksPerNanosecond;

/**
 * Loaded-latency calibration (paper Table 1: 11.3 us H2D, 6.6 us D2H at
 * heavy load). H2D (DMA read) queues deeper because the read request must
 * round-trip before data flows; expressed as outstanding-request depth.
 */
constexpr unsigned pcieH2dQueueDepth = 37;
constexpr unsigned pcieD2hQueueDepth = 21;

/** Typical DMA transaction size used for latency probing. */
constexpr Bytes pcieProbeBytes = 4096;

/**
 * Streaming DMA byte window of a commodity NIC / accelerator card, per
 * direction. Calibrated against Figure 4: with this window an unloaded
 * 100 GbE stream saturates the line, and under full MLC pressure the
 * loaded memory latency caps it near 46% — the paper's measured
 * endpoint.
 */
constexpr Bytes deviceDmaWindowBytes = 32 * 1024;

// ----------------------------------------------------------------- Network

/** Raw line rate of one 100 GbE port. */
constexpr BytesPerSecond lineRate100G = gbps(100.0);

/**
 * Achievable RoCE goodput on a 100 GbE port for 4 KiB-payload messages
 * (Ethernet + IP/UDP/BTH framing at 4096 B MTU leaves ~94 Gbps).
 */
constexpr BytesPerSecond roceGoodput100G = gbps(94.0);

/** MTU used by the RoCE stack. */
constexpr Bytes roceMtu = 4096;

/** One-way propagation + switching delay between servers. */
constexpr Tick networkOneWayDelay = 1500 * ticksPerNanosecond;

/** Block-storage message header size (paper Section 4: ~64 B). */
constexpr Bytes storageHeaderBytes = 64;

/** Data-block (payload) size of one I/O request (paper: 4 KiB). */
constexpr Bytes storageBlockBytes = 4096;

/** Replication factor for writes (paper: 3-way). */
constexpr unsigned replicationFactor = 3;

// ---------------------------------------------------------------- SmartDS

/** Compression-engine throughput per SmartDS port (paper: 100 Gbps). */
constexpr BytesPerSecond smartdsEnginePerPort = gbps(100.0);

/**
 * Fixed pipeline latency of the FPGA compression engine on a 4 KiB block
 * (a ~250 MHz pipeline is slower per block than a 4.9 GHz core; Figure 7b
 * shows the Acc FPGA path costing several extra microseconds).
 */
constexpr Tick fpgaEngineBlockLatency = 13 * ticksPerMicrosecond;

/** SmartDS HBM capacity and achievable bandwidth (VCU128: 8 GiB, 3.4 Tbps). */
constexpr Bytes smartdsHbmBytes = gibibytes(8);
constexpr BytesPerSecond smartdsHbmBandwidth = gbps(3400.0);

/** Maximum networking ports on the VCU128 prototype. */
constexpr unsigned smartdsMaxPorts = 6;

/**
 * SmartDS cards behind one PCIe switch in the Section 5.5 host (two 1x4
 * gen3 x16 switches).
 */
constexpr unsigned smartdsCardsPerSwitch = 4;

/** Split/Assemble module fixed processing latency per message. */
constexpr Tick smartdsSplitLatency = 300 * ticksPerNanosecond;

/** Doorbell/descriptor fetch cost over PCIe (small, header-sized DMA). */
constexpr Bytes smartdsDescriptorBytes = 64;

// -------------------------------------------------------------------- BF2

/** BlueField-2 total compression-engine throughput (paper: ~40 Gbps). */
constexpr BytesPerSecond bf2EngineBandwidth = gbps(40.0);

/** BlueField-2 networking ports. */
constexpr unsigned bf2Ports = 2;

/** BlueField-2 Arm cores (8x A72) and their relative parse slowdown. */
constexpr unsigned bf2ArmCores = 8;
constexpr double bf2ArmSlowdown = 2.0;

/**
 * BlueField-2 achievable device-DRAM bandwidth. Two DDR4-3200 channels
 * give 51.2 GB/s theoretical; ~0.7x achievable.
 */
constexpr BytesPerSecond bf2DeviceMemoryBandwidth = 0.7 * 51.2e9;

/** BF2 engine fixed block latency (off-path accelerator hop). */
constexpr Tick bf2EngineBlockLatency = 6 * ticksPerMicrosecond;

// ---------------------------------------------------------------- Storage

/** NVMe append latency on the storage server. */
constexpr Tick storageAppendLatency = 25 * ticksPerMicrosecond;

/** Per-storage-server ingest bandwidth (not a bottleneck by design). */
constexpr BytesPerSecond storageIngestBandwidth = gbps(90.0);

// ---------------------------------------------------- Erasure coding (EC)

/**
 * Software RS(k, m) encode rate per host core (stripe bytes/s). GF(256)
 * table multiply-accumulate streams at tens of GB/s with SIMD (ISA-L
 * class); a portable scalar loop on a 4.9 GHz core lands around 22 Gbps
 * of stripe data for the m-parity products.
 */
constexpr BytesPerSecond hostEcEncodeRate = gbps(22.0);

/**
 * Software RS decode rate per host core on a *degraded* read (matrix
 * inversion amortised away; dominated by k multiply-accumulate streams,
 * slightly slower than encode due to the gather access pattern).
 */
constexpr BytesPerSecond hostEcDecodeRate = gbps(18.0);

/**
 * SmartDS RS engine throughput per port. The GF(256) MAC array is
 * structurally the same systolic datapath as the LZ4 match engine and
 * is provisioned to line rate so EC never throttles the split path
 * (NetACC/Di Girolamo: erasure coding is a line-rate NIC offload).
 */
constexpr BytesPerSecond smartdsEcEnginePerPort = gbps(100.0);

/** Fixed pipeline latency of the device RS engine per stripe. */
constexpr Tick smartdsEcEngineLatency = 1 * ticksPerMicrosecond;

// ------------------------------------------------------- Failure handling

/**
 * Initial per-replica acknowledgement timeout. A healthy replica write
 * round-trips in tens of microseconds even under load, so 800us is far
 * outside the loaded tail yet still ~600x shorter than a crash outage —
 * the middle tier re-places the replica long before the client notices.
 */
constexpr Tick replicaAckTimeout = 800 * ticksPerMicrosecond;

/** Upper bound for the exponential ack-timeout backoff. */
constexpr Tick replicaAckTimeoutCap = 6400 * ticksPerMicrosecond;

/** Replica send attempts after the first before giving up on a block. */
constexpr unsigned replicaMaxRetries = 4;

/** Consecutive timeouts before a storage node is suspected unhealthy. */
constexpr unsigned nodeSuspectThreshold = 2;

// --------------------------------------------------------------- Clients

/** Per-VM-client software overhead for issuing/completing one request. */
constexpr Tick clientPerRequestCost = 500 * ticksPerNanosecond;

} // namespace smartds::calibration

#endif // SMARTDS_COMMON_CALIBRATION_H_
