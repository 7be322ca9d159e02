/**
 * @file
 * The per-node sleep-policy engine. One self-rescheduling event per
 * sleeping node, on that node's own shard queue, drives the periodic
 * sense-and-send schedule declared in the scenario's [sleep] section:
 * awake for the first onSeconds of every periodSeconds, asleep for the
 * rest.
 *
 * Light sleep additionally wires RadioDevice::setRxWakeHook so an
 * incoming frame wakes the node *before* the RX interrupt is serviced;
 * the node then stays awake until the end of the next on-window (the
 * controller reschedules its event to the next boundary strictly after
 * the wake).
 *
 * Determinism: every scheduled tick is k*period or k*period+on — pure
 * functions of scenario constants — and all transitions run on the
 * owning shard, so the schedule is K-invariant by construction and the
 * K=1 stats oracle holds for any thread count. The transition counters
 * live in each node's own state for the same reason: only the owning
 * shard's worker writes them.
 */

#ifndef ULP_SLEEP_CONTROLLER_HH
#define ULP_SLEEP_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/network.hh"
#include "sleep/policy.hh"

namespace ulp::sleep {

class SleepController
{
  public:
    /** Reads each node's NodeSpec::sleep from the network's spec; nodes
     *  with Policy::None (or a degenerate schedule) are left alone. */
    explicit SleepController(core::Network &network);

    SleepController(const SleepController &) = delete;
    SleepController &operator=(const SleepController &) = delete;

    /** Nodes this controller actually drives. */
    unsigned managedNodes() const
    {
        return static_cast<unsigned>(states.size());
    }

    /** Transition totals over every managed node. */
    std::uint64_t lightSleeps() const { return sum(&NodeState::lightSleeps); }
    std::uint64_t deepSleeps() const { return sum(&NodeState::deepSleeps); }
    std::uint64_t frameWakes() const { return sum(&NodeState::frameWakes); }

  private:
    struct NodeState
    {
        unsigned index = 0;
        Policy policy = Policy::None;
        sim::Tick periodTicks = 0;
        sim::Tick onTicks = 0;
        std::unique_ptr<sim::EventFunctionWrapper> event;
        /** Written only by the owning shard's worker, so the totals are
         *  K-invariant. */
        std::uint64_t lightSleeps = 0;
        std::uint64_t deepSleeps = 0;
        std::uint64_t frameWakes = 0;
    };

    std::uint64_t sum(std::uint64_t NodeState::*counter) const;

    void tick(NodeState &st);
    void frameWake(NodeState &st);
    sim::EventQueue &queueOf(const NodeState &st);
    sim::Tick nowOf(const NodeState &st);

    core::Network &network;
    std::vector<std::unique_ptr<NodeState>> states;
};

} // namespace ulp::sleep

#endif // ULP_SLEEP_CONTROLLER_HH
