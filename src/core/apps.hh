/**
 * @file
 * The paper's staged test applications (§6.1.2), written in event
 * processor and microcontroller assembly exactly as the authors mapped
 * them by hand:
 *
 *   v1  periodically collect samples and transmit packets (Figure 5)
 *   v2  v1 + transmit only if the sample passes the threshold filter
 *   v3  v2 + receive and forward incoming messages (multi-hop routing)
 *   v4  v3 + handle incoming reconfiguration messages (sampling period /
 *       threshold changes) — irregular events that wake the uC
 *
 * plus the two SNAP-comparison microbenchmarks (§6.1.3):
 *
 *   blink  a timer periodically toggles an LED-like register
 *   sense  periodically sample the ADC and feed a running statistic
 *
 * Each NodeApp bundles the EP ISR program, the uC image (init code and
 * irregular-event handlers), and the wakeup vector bindings.
 *
 * Every node runs the same program up to a few constants, so an app is
 * assembled once per *shape* (app name, chained timers, watchdog, MAC
 * retries) into a process-wide template, and the build functions copy
 * that template and write the node's `P_*` parameter bytes into it.
 * The result is byte-identical to assembling the app from source with
 * the node's values (assembleFromSource).
 */

#ifndef ULP_CORE_APPS_HH
#define ULP_CORE_APPS_HH

#include <cstdint>
#include <map>
#include <string>

#include "core/ep_assembler.hh"
#include "core/sensor_node.hh"
#include "mcu/assembler.hh"

namespace ulp::core::apps {

struct AppParams
{
    /**
     * Sampling period in system clock cycles (1000 = 100 Hz @ 100 kHz).
     * Periods beyond 16 bits are realised by chaining timer 0 into
     * timer 1 (paper §4.3.4), so multi-minute sampling intervals (the
     * Great Duck Island deployment sampled every 70 s) work unchanged.
     */
    std::uint32_t samplePeriodCycles = 1000;

    /** Threshold for v2+ filtering. */
    std::uint8_t threshold = 0;

    /** Destination short address for data packets (base station). */
    std::uint16_t dest = 0x0000;

    /**
     * MAC retry budget for unicast data transmissions (0 = legacy
     * fire-and-forget radio). Non-zero also enables auto-ACK so peer
     * nodes running the same app acknowledge our frames.
     */
    std::uint8_t macRetries = 0;

    /**
     * Watchdog timeout in system clock cycles (0 = no watchdog).
     * Rounded up to the hardware's 256-cycle units. When set, the uC
     * init code arms the watchdog, the periodic timer ISR kicks it, and
     * a bark re-runs init via wakeup vector 7.
     */
    std::uint32_t watchdogCycles = 0;
};

/** Wire length of a one-sample data frame (9 header + 1 payload + 2 FCS). */
constexpr unsigned sampleFrameBytes = 12;

/** Transfer window used on the receive path (covers command frames). */
constexpr unsigned rxFrameBytes = 16;

/** uC reconfiguration command payload offsets within a command frame. */
constexpr unsigned cmdTargetOffset = 9;  ///< 0 = timer period, 1 = threshold
constexpr unsigned cmdValueHiOffset = 10;
constexpr unsigned cmdValueLoOffset = 11;

struct NodeApp
{
    std::string name;
    EpProgram ep;
    mcu::Image mcu;
    std::uint16_t initEntry = 0;
    /** uC wakeup vector index -> handler address. */
    std::map<std::uint8_t, std::uint16_t> vectors;
};

NodeApp buildApp1(const AppParams &params = {});
NodeApp buildApp2(const AppParams &params = {});
NodeApp buildApp3(const AppParams &params = {});
NodeApp buildApp4(const AppParams &params = {});
NodeApp buildBlink(const AppParams &params = {});
NodeApp buildSense(const AppParams &params = {});

/**
 * Listen-only base station: the radio stays in RX, received frames run
 * through the message processor (duplicate suppression, local-delivery
 * accounting), and nothing is sampled or transmitted. Scenario sinks
 * default to this app.
 */
NodeApp buildSink(const AppParams &params = {});

/** Build an application by scenario name: app1..app4, blink, sense,
 *  sink. Unknown names are fatal (the message lists the valid set). */
NodeApp buildByName(const std::string &name, const AppParams &params = {});

/**
 * Assemble @p name from source with @p params' values written into the
 * `.equ` header instead of left as holes to bind: the reference the
 * template path must reproduce. Same names as buildByName.
 */
NodeApp assembleFromSource(const std::string &name,
                           const AppParams &params = {});

/** Load programs and vectors into @p node and run the uC init code. */
void install(SensorNode &node, const NodeApp &app);

} // namespace ulp::core::apps

#endif // ULP_CORE_APPS_HH
