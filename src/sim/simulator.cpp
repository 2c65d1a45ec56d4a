#include "sim/simulator.h"

#include <cstring>

#include "common/checksum.h"

namespace smartds::sim {

namespace {

/** Timing domain the calling thread is executing; see currentDomain(). */
// simlint: allow(shared-sim-state): thread-local by definition — each
// PDES worker thread reads and writes only its own copy (set from the
// domain it is executing), so shards cannot observe each other through
// it; the single-domain default 0 reproduces the legacy behaviour
thread_local unsigned tCurrentDomain = 0;

} // namespace

unsigned
currentDomain() noexcept
{
    return tCurrentDomain;
}

DomainScope::DomainScope(unsigned domain) noexcept
    : saved_(tCurrentDomain)
{
    tCurrentDomain = domain;
}

DomainScope::~DomainScope()
{
    tCurrentDomain = saved_;
}

const char *
eventTagName(EventTag tag)
{
    switch (tag) {
      case EventTag::Generic: return "generic";
      case EventTag::Net: return "net";
      case EventTag::Nic: return "nic";
      case EventTag::Host: return "host";
      case EventTag::Device: return "device";
      case EventTag::Storage: return "storage";
      case EventTag::Client: return "client";
      case EventTag::Maintenance: return "maintenance";
      case EventTag::Test: return "test";
    }
    return "unknown";
}

Tick
Simulator::run()
{
    const DomainScope scope(domain_);
    while (step()) {
    }
    return now_;
}

void
Simulator::foldEvent(Tick when, std::uint64_t seq, EventTag tag)
{
    // Little-endian packed (tick, seq, tag): 8 + 8 + 1 bytes. memcpy of
    // fixed-width integers is byte-order-stable on every platform this
    // tree targets (all little-endian), so the hash is comparable across
    // process layouts — which is exactly what the fig07_determinism
    // perturbation harness relies on.
    std::uint8_t buf[17];
    const std::uint64_t w = static_cast<std::uint64_t>(when);
    std::memcpy(buf, &w, 8);
    std::memcpy(buf + 8, &seq, 8);
    buf[16] = static_cast<std::uint8_t>(tag);
    stateHash_ = xxhash32(buf, sizeof buf, stateHash_);
    if (windowEvents_ != 0) {
        if (windowCount_ == 0) {
            windowFirstEvent_ = hashedEvents_;
            windowFirstTick_ = when;
        }
        windowLastTick_ = when;
        if (++windowCount_ >= windowEvents_)
            flushWindow();
    }
    ++hashedEvents_;
}

void
Simulator::flushWindow()
{
    windows_.push_back({stateHash_, windowFirstEvent_, windowCount_,
                        windowFirstTick_, windowLastTick_});
    windowCount_ = 0;
}

DsanDivergence
compareDsanWindows(const std::vector<DsanWindow> &a,
                   const std::vector<DsanWindow> &b)
{
    DsanDivergence out;
    const std::size_t n = std::min(a.size(), b.size());
    std::size_t at = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i].hash != b[i].hash || a[i].events != b[i].events) {
            at = i;
            break;
        }
    }
    if (at == n && a.size() == b.size())
        return out; // identical streams
    out.diverged = true;
    out.windowIndex = at;
    const DsanWindow &w = at < a.size() ? a[at] : b[at];
    out.firstEvent = w.firstEvent;
    out.events = w.events;
    out.firstTick = w.firstTick;
    out.lastTick = w.lastTick;
    return out;
}

Tick
Simulator::runUntil(Tick deadline)
{
    const DomainScope scope(domain_);
    while (dispatchUpTo(deadline)) {
    }
    if (now_ < deadline)
        now_ = deadline;
    return now_;
}

} // namespace smartds::sim
