// Fixture for shared-sim-state: class-specific operator new/delete
// defined in an entry directory, as a pooled coroutine promise defines
// them. The test lints this file as src/sim/frame_pool.cpp beside
// shared_sim_state_operator_counter.cpp (as tests/alloc_counter.cpp),
// whose counting global operator new bumps a mutable global. Indexed
// under the token before '(', both definitions would be functions named
// `new`, and the by-name call graph would reach the counter from here.

namespace fixture {

struct Frame
{
    static void *operator new(unsigned long size);
    static void operator delete(void *p, unsigned long size) noexcept;
};

void *
Frame::operator new(unsigned long size)
{
    return takeBlock(size);
}

void
Frame::operator delete(void *p, unsigned long size) noexcept
{
    giveBlock(p, size);
}

void
stepFrames()
{
    noteFrame();
}

} // namespace fixture
