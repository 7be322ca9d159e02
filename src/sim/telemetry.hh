/**
 * @file
 * The recording half of the telemetry subsystem (the storage half lives
 * in src/obs/). Components do not know how trace records are buffered or
 * exported; they see only this narrow sink interface, installed on their
 * Simulation before construction. A null sink (the default) disables
 * telemetry at the cost of one pointer test per instrumentation site, so
 * tracing can stay compiled in everywhere.
 *
 * Each shard of a parallel run gets its own sink, and a component only
 * ever records to the sink of the shard it lives on — recording needs no
 * synchronisation beyond what the sink itself provides (obs::EventLog
 * uses one SPSC ring per shard).
 *
 * Components register once (at construction) for a small integer id and
 * then emit fixed-size records: (tick, component, channel, a, b, payload).
 * The meaning of a/b/payload is per-channel:
 *
 *   Power:  a = new PowerState, b = old PowerState
 *   Bus:    a = 1 mcu acquired the bus / 0 released it
 *   EpFsm:  a = new EventProcessor::State, b = old, payload = irq code
 *   Irq:    a = irq code, b = 0 post / 1 deliver / 2 drop,
 *           payload = asserted bitset after the operation
 *   Mac:    a = Probe id (radio/MAC milestones), payload = running count
 *   Probe:  a = Probe id (all other milestones), payload = running count
 *   Energy: payload = bit_cast<uint64_t>(cumulative joules), periodic
 *   SleepState: a = new sleep state, b = old (0 awake, 1 light sleep,
 *           2 deep sleep, 3 radio MAC sleep between superframes)
 *   Fabric: a = irq code, b = 0 linked-delivered / 1 sink-busy drop /
 *           2 threshold-filtered, payload = fabric sink id
 */

#ifndef ULP_SIM_TELEMETRY_HH
#define ULP_SIM_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/types.hh"

namespace ulp::sim {

enum class TelemetryChannel : std::uint8_t {
    Power = 0, ///< power-state transitions (EnergyTracker::setState)
    Bus,       ///< data-bus ownership (mcu grant/release)
    EpFsm,     ///< event-processor state machine transitions
    Irq,       ///< interrupt bus post/deliver/drop
    Mac,       ///< radio/MAC probe milestones (TX, retry, ACK, ...)
    Probe,     ///< every other probe milestone
    Energy,    ///< periodic cumulative-energy samples
    SleepState, ///< node/radio sleep-policy transitions
    Fabric,     ///< event-fabric routed deliveries/drops
    NumChannels,
};

/** SleepState channel codes (the a/b record fields). */
enum class SleepCode : std::uint8_t {
    Awake = 0,
    LightSleep = 1,
    DeepSleep = 2,
    MacSleep = 3, ///< radio-only: asleep between 802.15.4 superframes
};

constexpr unsigned numTelemetryChannels =
    static_cast<unsigned>(TelemetryChannel::NumChannels);

constexpr std::uint32_t allTelemetryChannels =
    (1u << numTelemetryChannels) - 1;

/** Short lower-case channel name, as used by --trace-channels. */
constexpr const char *
telemetryChannelName(TelemetryChannel channel)
{
    switch (channel) {
      case TelemetryChannel::Power:
        return "power";
      case TelemetryChannel::Bus:
        return "bus";
      case TelemetryChannel::EpFsm:
        return "ep";
      case TelemetryChannel::Irq:
        return "irq";
      case TelemetryChannel::Mac:
        return "mac";
      case TelemetryChannel::Probe:
        return "probe";
      case TelemetryChannel::Energy:
        return "energy";
      case TelemetryChannel::SleepState:
        return "sleep";
      case TelemetryChannel::Fabric:
        return "fabric";
      case TelemetryChannel::NumChannels:
        break;
    }
    return "unknown";
}

/**
 * Destination for telemetry records, one per shard. Implemented by
 * obs::ShardLog; the sim layer defines only the contract.
 *
 * Threading: registerComponent() and addEnergyProbe() are construction
 * -time, single-threaded. record() may be called from the owning shard's
 * worker thread concurrently with a consumer draining the sink.
 */
class TelemetrySink
{
  public:
    virtual ~TelemetrySink() = default;

    /**
     * Register a component by hierarchical name; returns the id to put
     * in records. Names must be unique per sink (per shard).
     */
    virtual std::uint32_t registerComponent(const std::string &name) = 0;

    /**
     * Register a cumulative-energy getter for the Energy channel; the
     * sink's periodic sampler (if any) calls it at each sample tick.
     */
    virtual void addEnergyProbe(std::uint32_t component,
                                std::function<double()> joules) = 0;

    /** Append one record; lock-free, drop-counting on overflow. */
    virtual void record(Tick tick, std::uint32_t component,
                        TelemetryChannel channel, std::uint8_t a,
                        std::uint16_t b, std::uint64_t payload) = 0;

    /** Is @p channel enabled? Checked by instrumentation at setup. */
    bool
    wants(TelemetryChannel channel) const
    {
        return channelMask >> static_cast<unsigned>(channel) & 1u;
    }

    /** Sampler events run on the owning shard's queue: kernel work the
     *  model did not ask for. */
    std::uint64_t samplerEvents() const { return samplerFires; }

  protected:
    std::uint32_t channelMask = allTelemetryChannels;
    std::uint64_t samplerFires = 0;
};

} // namespace ulp::sim

#endif // ULP_SIM_TELEMETRY_HH
