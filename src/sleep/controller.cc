#include "sleep/controller.hh"

#include <string>

#include "sim/logging.hh"

namespace ulp::sleep {

SleepController::SleepController(core::Network &net) : network(net)
{
    const scenario::NetworkSpec &spec = network.spec();
    for (unsigned i = 0; i < network.numNodes(); ++i) {
        const NodeSleep &cfg = spec.nodes[i].sleep;
        if (cfg.policy == Policy::None)
            continue;
        auto st = std::make_unique<NodeState>();
        st->index = i;
        st->policy = cfg.policy;
        st->periodTicks = sim::secondsToTicks(cfg.schedule.periodSeconds);
        st->onTicks = sim::secondsToTicks(cfg.schedule.onSeconds);
        if (st->periodTicks == 0 || st->onTicks == 0 ||
            st->onTicks >= st->periodTicks) {
            // Degenerate schedule (always awake / never awake): the
            // scenario validator rejects these; specs built by hand just
            // get the always-awake behaviour.
            continue;
        }
        NodeState *state = st.get();
        st->event = std::make_unique<sim::EventFunctionWrapper>(
            [this, state] { tick(*state); },
            "node" + std::to_string(i) + ".sleep");
        if (cfg.policy == Policy::Light) {
            network.node(i).radio().setRxWakeHook(
                [this, state] { frameWake(*state); });
        }
        // First transition: the schedule starts awake, so the first
        // boundary is the end of on-window zero.
        queueOf(*state).schedule(state->event.get(), state->onTicks);
        states.push_back(std::move(st));
    }
}

std::uint64_t
SleepController::sum(std::uint64_t NodeState::*counter) const
{
    std::uint64_t total = 0;
    for (const auto &st : states)
        total += (*st).*counter;
    return total;
}

sim::EventQueue &
SleepController::queueOf(const NodeState &st)
{
    return network.shardSimulation(network.shardOf(st.index)).eventq();
}

sim::Tick
SleepController::nowOf(const NodeState &st)
{
    return network.shardSimulation(network.shardOf(st.index)).curTick();
}

void
SleepController::tick(NodeState &st)
{
    // Where in the schedule are we? Purely a function of time, so a
    // frame-wake that moved the event cannot desynchronise the grid.
    const sim::Tick now = nowOf(st);
    const std::uint64_t k = now / st.periodTicks;
    const sim::Tick phase = now - k * st.periodTicks;
    core::SensorNode &node = network.node(st.index);

    sim::Tick next;
    if (phase < st.onTicks) {
        // Inside an on-window: make sure the node is awake, sleep at its
        // end.
        if (st.policy == Policy::Deep)
            network.wakeNodeFromDeepSleep(st.index);
        else
            node.lightSleepExit();
        next = k * st.periodTicks + st.onTicks;
    } else {
        // On-window over: sleep until the next period starts.
        if (node.alive() && !node.inDeepSleep()) {
            if (st.policy == Policy::Deep) {
                node.deepSleepEnter();
                ++st.deepSleeps;
            } else if (!node.inLightSleep()) {
                node.lightSleepEnter();
                ++st.lightSleeps;
            }
        }
        next = (k + 1) * st.periodTicks;
    }
    queueOf(st).reschedule(st.event.get(), next);
}

void
SleepController::frameWake(NodeState &st)
{
    core::SensorNode &node = network.node(st.index);
    if (!node.inLightSleep())
        return;
    node.lightSleepExit();
    ++st.frameWakes;
    // Stay awake through the end of the *next* on-window: the next
    // boundary strictly after now at which tick() decides to sleep.
    const sim::Tick now = nowOf(st);
    const std::uint64_t k = now / st.periodTicks;
    const sim::Tick phase = now - k * st.periodTicks;
    const sim::Tick next = phase < st.onTicks
                               ? k * st.periodTicks + st.onTicks
                               : (k + 1) * st.periodTicks + st.onTicks;
    queueOf(st).reschedule(st.event.get(), next);
}

} // namespace ulp::sleep
