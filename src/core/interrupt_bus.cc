#include "core/interrupt_bus.hh"

#include "fabric/event_port.hh"
#include "sim/logging.hh"
#include "sim/telemetry.hh"

namespace ulp::core {

namespace {

/** Irq channel record kinds (the Record's `b` field). */
enum : std::uint16_t { irqPost = 0, irqDeliver = 1, irqDrop = 2 };

} // namespace

InterruptBus::InterruptBus(sim::Simulation &simulation,
                           const std::string &name, sim::SimObject *parent)
    : sim::SimObject(simulation, name, parent),
      statPosted(this, "posted", "interrupt assertions accepted"),
      statDropped(this, "dropped",
                  "events lost because the code was already asserted"),
      statTaken(this, "taken", "interrupts granted to the event processor"),
      obs(simulation.telemetry())
{
    if (obs)
        obsId = obs->registerComponent(this->name());
}

void
InterruptBus::post(Irq irq)
{
    auto code = static_cast<unsigned>(irq);
    if (code == 0 || code >= numIrqCodes)
        sim::panic("interrupt code %u out of range", code);

    if (asserted.test(code)) {
        ++statDropped;
        if (obs && obs->wants(sim::TelemetryChannel::Irq)) {
            obs->record(curTick(), obsId, sim::TelemetryChannel::Irq,
                        static_cast<std::uint8_t>(code), irqDrop,
                        asserted.to_ullong());
        }
        return;
    }
    asserted.set(code);
    ++statPosted;
    if (obs && obs->wants(sim::TelemetryChannel::Irq)) {
        obs->record(curTick(), obsId, sim::TelemetryChannel::Irq,
                    static_cast<std::uint8_t>(code), irqPost,
                    asserted.to_ullong());
    }
    if (sink)
        sink->eventPosted();
}

std::optional<Irq>
InterruptBus::peek() const
{
    if (!asserted.any())
        return std::nullopt;
    for (unsigned code = 1; code < numIrqCodes; ++code) {
        if (asserted.test(code))
            return static_cast<Irq>(code);
    }
    return std::nullopt;
}

std::optional<Irq>
InterruptBus::take()
{
    std::optional<Irq> irq = peek();
    if (irq) {
        asserted.reset(static_cast<unsigned>(*irq));
        ++statTaken;
        if (obs && obs->wants(sim::TelemetryChannel::Irq)) {
            obs->record(curTick(), obsId, sim::TelemetryChannel::Irq,
                        static_cast<std::uint8_t>(*irq), irqDeliver,
                        asserted.to_ullong());
        }
    }
    return irq;
}

} // namespace ulp::core
