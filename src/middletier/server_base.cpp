#include "middletier/server_base.h"

#include "common/logging.h"

namespace smartds::middletier {

const char *
designName(Design d)
{
    switch (d) {
      case Design::CpuOnly:
        return "CPU-only";
      case Design::Accelerator:
        return "Acc";
      case Design::Bf2:
        return "BF2";
      case Design::SmartDs:
        return "SmartDS";
    }
    panic("unknown design");
}

FailoverStats &
FailoverStats::operator+=(const FailoverStats &o)
{
    replicaTimeouts += o.replicaTimeouts;
    replicaRetries += o.replicaRetries;
    replicaReplacements += o.replicaReplacements;
    replicasAbandoned += o.replicasAbandoned;
    staleAcks += o.staleAcks;
    nodesSuspected += o.nodesSuspected;
    quorumCompletions += o.quorumCompletions;
    repairsScheduled += o.repairsScheduled;
    corruptionsDetected += o.corruptionsDetected;
    readFailovers += o.readFailovers;
    readsUnserved += o.readsUnserved;
    stripesEncoded += o.stripesEncoded;
    degradedReads += o.degradedReads;
    replicaBytesSent += o.replicaBytesSent;
    return *this;
}

} // namespace smartds::middletier
