/**
 * @file
 * The interrupt division of the system bus: 6 address lines (64 codes)
 * with centralized arbitration (paper §4.3.1). Each slave keeps its
 * request asserted until the event processor signals that it has read the
 * interrupt address; among simultaneous requests the arbiter picks the
 * lowest code. A slave re-raising a code whose previous assertion has not
 * been consumed loses that event — the paper's "if the system begins to
 * be overloaded, events will simply be dropped" (§4.2.4).
 */

#ifndef ULP_CORE_INTERRUPT_BUS_HH
#define ULP_CORE_INTERRUPT_BUS_HH

#include <bitset>
#include <optional>

#include "core/interrupts.hh"
#include "sim/sim_object.hh"

namespace ulp::fabric {
class EventSink;
} // namespace ulp::fabric

namespace ulp::core {

class InterruptBus : public sim::SimObject
{
  public:
    InterruptBus(sim::Simulation &simulation, const std::string &name,
                 sim::SimObject *parent = nullptr);

    /**
     * Assert @p irq. If the same code is already asserted the new event
     * is dropped (counted). Notifies the listener (the EP) that work is
     * available.
     */
    void post(Irq irq);

    /** Any request currently asserted? */
    bool pending() const { return asserted.any(); }

    /**
     * Arbitrate: return and clear the lowest asserted code; empty when
     * nothing is pending.
     */
    std::optional<Irq> take();

    /** Peek at the code arbitration would currently grant. */
    std::optional<Irq> peek() const;

    /**
     * The event processor registers here to be poked on posts. A typed
     * port rather than a std::function: one virtual call per accepted
     * post, no per-post closure indirection.
     */
    void setSink(fabric::EventSink *event_sink) { sink = event_sink; }

    /**
     * Full supply loss (node death): every asserted request line goes
     * away with the devices driving it. Not counted as drops — nothing
     * was arbitrated away, the requesters themselves lost power.
     */
    void clearPending() { asserted.reset(); }

    std::uint64_t posted() const
    {
        return static_cast<std::uint64_t>(statPosted.value());
    }
    std::uint64_t dropped() const
    {
        return static_cast<std::uint64_t>(statDropped.value());
    }

  private:
    std::bitset<numIrqCodes> asserted;
    fabric::EventSink *sink = nullptr;

    sim::stats::Scalar statPosted;
    sim::stats::Scalar statDropped;
    sim::stats::Scalar statTaken;

    sim::TelemetrySink *obs = nullptr;
    std::uint32_t obsId = 0;
};

} // namespace ulp::core

#endif // ULP_CORE_INTERRUPT_BUS_HH
