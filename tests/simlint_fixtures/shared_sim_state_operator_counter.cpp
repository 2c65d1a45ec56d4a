// Fixture for shared-sim-state, the counting-allocator half (see
// shared_sim_state_operator_sim.cpp). The test lints it as
// tests/alloc_counter.cpp, outside the entry directories.

namespace fixture {

unsigned long newCalls = 0; // false positive guard: only operator new uses it

int framesSeen = 0; // violation: noteFrame() is reached from stepFrames()

void
noteFrame()
{
    ++framesSeen;
}

} // namespace fixture

void *
operator new(unsigned long size)
{
    ++fixture::newCalls;
    return fixture::rawAlloc(size);
}

void
operator delete(void *p) noexcept
{
    fixture::rawFree(p);
}
