/**
 * @file
 * The data division of the system bus (paper §4.3.1): 16 address lines,
 * 8 data lines, one read and one write control line, one byte moved per
 * bus cycle. The event processor and the microcontroller are the only
 * masters; the "bus arbiter, which is currently just a mux" grants the
 * bus to the microcontroller whenever it is awake — the EP must sit in
 * WAIT_BUS until the uC goes back to sleep (Figure 2).
 */

#ifndef ULP_CORE_BUS_HH
#define ULP_CORE_BUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/memory_map.hh"
#include "sim/sim_object.hh"

namespace ulp::core {

struct AddrRange
{
    map::Addr base = 0;
    std::uint32_t size = 0;

    bool
    contains(map::Addr addr) const
    {
        return addr >= base && static_cast<std::uint32_t>(addr) <
                                   static_cast<std::uint32_t>(base) + size;
    }
};

/** A memory-mapped slave on the data bus. */
class BusSlave
{
  public:
    virtual ~BusSlave() = default;

    virtual AddrRange addrRange() const = 0;

    /** @param offset address minus the slave's base. */
    virtual std::uint8_t busRead(map::Addr offset) = 0;
    virtual void busWrite(map::Addr offset, std::uint8_t value) = 0;

    /**
     * Fault injection: a wedged slave no longer responds. The bus sees
     * idle-high reads (0xFF -- which has every busy bit set, so polling
     * masters observe "stuck busy") and drops writes.
     */
    virtual bool busWedged() const { return false; }
};

class DataBus : public sim::SimObject
{
  public:
    enum class Master { EventProcessor, Microcontroller };

    DataBus(sim::Simulation &simulation, const std::string &name,
            sim::SimObject *parent = nullptr);

    /** Attach a slave; overlapping ranges are a configuration error. */
    void addSlave(BusSlave *slave);

    /** One read bus transaction (one cycle on the wire). */
    std::uint8_t read(map::Addr addr);

    /** One write bus transaction. */
    void write(map::Addr addr, std::uint8_t value);

    /**
     * The mux: the microcontroller owns the bus while awake. Set by the
     * microcontroller wrapper on wake/sleep.
     */
    void setMcuHoldsBus(bool holds);

    /** May the event processor drive the bus right now? */
    bool availableForEp() const { return !mcuHoldsBus; }

    std::uint64_t transactions() const
    {
        return static_cast<std::uint64_t>(statReads.value() +
                                          statWrites.value());
    }

    std::uint64_t wedgedAccesses() const
    {
        return static_cast<std::uint64_t>(statWedged.value());
    }

  private:
    BusSlave *findSlave(map::Addr addr) const;

    std::vector<BusSlave *> slaves;
    bool mcuHoldsBus = false;

    sim::stats::Scalar statReads;
    sim::stats::Scalar statWrites;
    sim::stats::Scalar statUnmapped;
    sim::stats::Scalar statWedged;

    sim::TelemetrySink *obs = nullptr;
    std::uint32_t obsId = 0;
};

} // namespace ulp::core

#endif // ULP_CORE_BUS_HH
