#include "core/apps.hh"

#include <array>
#include <memory>
#include <mutex>

#include "core/memory_map.hh"
#include "sim/logging.hh"

namespace ulp::core::apps {

namespace {

// ---------------------------------------------------------------------------
// Event processor ISR fragments. These mirror the paper's Figure 5 code;
// comments name the pipeline stage each ISR implements.
// ---------------------------------------------------------------------------

/** v1 send path: timer alarm -> sample -> message processor. */
const char *epTimerIsrNoFilter = R"(
; Timer interrupt: collect sensor data, stage it for packet preparation
timer_isr:
    SWITCHON SENSOR
    READ SENSOR_DATA            ; reg <- sample
    SWITCHOFF SENSOR
    SWITCHON MSGPROC
    WRITE MSG_PAYLOAD           ; payload[0] <- reg
    WRITEI MSG_PAYLOAD_LEN, 1
    WRITEI MSG_CTRL, 1          ; CMD_PREPARE
    TERMINATE
)";

/** v2 send path: the sample goes through the threshold filter first. */
const char *epTimerIsrFilter = R"(
; Timer interrupt: collect sensor data, pass it to the threshold filter
timer_isr:
    SWITCHON SENSOR
    READ SENSOR_DATA            ; reg <- sample
    SWITCHOFF SENSOR
    SWITCHON FILTER
    WRITE FILTER_DATA           ; starts the comparison (3 cycles)
    TERMINATE

; Sample met the threshold: stage it for packet preparation
filter_pass_isr:
    READ FILTER_RESULT          ; confirm the decision word
    READ FILTER_DATA            ; reg <- the filtered sample
    SWITCHON MSGPROC
    WRITE MSG_PAYLOAD
    WRITEI MSG_PAYLOAD_LEN, 1
    WRITEI MSG_CTRL, 1          ; CMD_PREPARE
    WRITEI FILTER_CTRL, 1       ; re-arm interrupt mode for the next sample
    SWITCHOFF FILTER
    TERMINATE

; Sample below threshold: nothing to send
filter_fail_isr:
    SWITCHOFF FILTER
    TERMINATE
)";

/** Message prepared: move the frame to the radio and transmit. */
const char *epTxReadyIsr = R"(
; Prepared message: move it into the radio TX FIFO and fire
txready_isr:
    SWITCHON RADIO
    WRITEI RADIO_TXLEN, 12
    TRANSFER MSG_OUTBUF, RADIO_TXFIFO, 12
    SWITCHOFF MSGPROC
    WRITEI RADIO_CTRL, 1        ; CMD_TX
    TERMINATE
)";

/** TX complete: gate the radio (send-only apps v1/v2). */
const char *epTxDoneGateRadio = R"(
txdone_isr:
    SWITCHOFF RADIO
    TERMINATE
)";

/** TX complete on a listening node: the radio must stay on. */
const char *epTxDoneKeepRadio = R"(
txdone_isr:
    TERMINATE
)";

/** v3 receive path: move the frame to the message processor. */
const char *epRxIsrs = R"(
; Radio received a frame: hand it to the message processor to classify
rxdone_isr:
    SWITCHON MSGPROC
    READ RADIO_RXLEN
    WRITE MSG_IN_LEN
    TRANSFER RADIO_RXFIFO, MSG_INBUF, 16
    WRITEI MSG_CTRL, 2          ; CMD_PROCESS_RX
    TERMINATE

; Regular message: forward it
forward_isr:
    WRITEI RADIO_TXLEN, 12
    TRANSFER MSG_OUTBUF, RADIO_TXFIFO, 12
    SWITCHOFF MSGPROC
    WRITEI RADIO_CTRL, 1        ; CMD_TX
    TERMINATE

; Duplicate or local delivery: just clean up
drop_isr:
    SWITCHOFF MSGPROC
    TERMINATE
)";

/** v4 irregular path: only the uC knows what to do. */
const char *epIrregularIsr = R"(
; Irregular message: wake the microcontroller at vector 0
irregular_isr:
    WAKEUP 0
)";

/** Watchdog bark: the uC hung and was force-reset; re-run init. */
const char *epWatchdogIsr = R"(
watchdog_isr:
    WAKEUP 7
)";

/**
 * Insert a watchdog kick at the top of the periodic timer ISR so the
 * countdown restarts as long as regular operation continues.
 */
std::string
withWatchdogKick(std::string isr_source)
{
    const std::string label = "timer_isr:";
    auto pos = isr_source.find(label);
    if (pos == std::string::npos)
        sim::fatal("timer ISR source has no timer_isr label");
    isr_source.insert(pos + label.size(),
                      "\n    WRITEI WDT_KICK, 1        ; feed the watchdog");
    return isr_source;
}

/** A fast chained tick needs only acknowledgement, no work. */
const char *epNullIsr = R"(
null_isr:
    TERMINATE
)";

std::string
epIsrBindingsV1(bool chained)
{
    std::string s;
    if (chained) {
        s += ".isr Timer0, null_isr\n"
             ".isr Timer1, timer_isr\n";
    } else {
        s += ".isr Timer0, timer_isr\n";
    }
    s += ".isr MsgTxReady, txready_isr\n"
         ".isr RadioTxDone, txdone_isr\n"
         ".isr RadioTxFail, txdone_isr\n";
    return s;
}

const char *epIsrBindingsWatchdog = ".isr Watchdog, watchdog_isr\n";

const char *epIsrBindingsFilter = R"(
.isr FilterPass, filter_pass_isr
.isr FilterFail, filter_fail_isr
)";

const char *epIsrBindingsRx = R"(
.isr RadioRxDone, rxdone_isr
.isr MsgRxForward, forward_isr
.isr MsgRxDrop, drop_isr
.isr MsgRxLocal, drop_isr
)";

const char *epIsrBindingsIrregular = R"(
.isr MsgRxIrregular, irregular_isr
)";

// ---------------------------------------------------------------------------
// Microcontroller code.
// ---------------------------------------------------------------------------

/**
 * Split the 32-bit sampling period into timer loads. Short periods use
 * timer 0 alone; longer ones run timer 0 as a fast periodic tick chained
 * into timer 1, which counts tick completions.
 */
struct TimerPlan
{
    bool chained;
    std::uint16_t load0;
    std::uint16_t load1;
};

TimerPlan
planTimers(std::uint32_t period_cycles)
{
    if (period_cycles == 0)
        period_cycles = 1;
    if (period_cycles <= 0xFFFF)
        return {false, static_cast<std::uint16_t>(period_cycles), 0};
    std::uint32_t tick = 50'000;
    std::uint32_t count = (period_cycles + tick - 1) / tick;
    if (count > 0xFFFF)
        sim::fatal("sampling period %u cycles exceeds the chained range",
                   period_cycles);
    return {true, static_cast<std::uint16_t>(tick),
            static_cast<std::uint16_t>(count)};
}

/**
 * The node-specific constants of the uC code: byte-valued `P_*`
 * symbols, in paramNames() order. The code uses each one only as an
 * `LDI` immediate, so a shape's template takes a node's values by
 * patching bytes.
 */
constexpr std::size_t numParams = 11;
using ParamValues = std::array<std::uint8_t, numParams>;

const std::array<std::string, numParams> &
paramNames()
{
    static const std::array<std::string, numParams> names = {
        "P_CHAINED", "P_PERIOD1_HI", "P_PERIOD1_LO", "P_PERIOD_HI",
        "P_PERIOD_LO", "P_THRESH", "P_DEST_HI", "P_DEST_LO",
        "P_MACCTRL", "P_WDT_HI", "P_WDT_LO"};
    return names;
}

/** The one place AppParams become uC constants. */
ParamValues
paramValues(const AppParams &params)
{
    TimerPlan plan = planTimers(params.samplePeriodCycles);
    // MAC control: bits 0-2 retry budget, bit 3 auto-ACK (paired with a
    // non-zero retry budget so symmetric apps acknowledge each other).
    unsigned macctrl =
        params.macRetries ? (0x08u | (params.macRetries & 0x07u)) : 0;
    // Watchdog load register counts 256-cycle units; round the request up.
    std::uint32_t wdt_load = (params.watchdogCycles + 255) / 256;
    if (wdt_load > 0xFFFF)
        wdt_load = 0xFFFF;
    auto byte = [](unsigned v) { return static_cast<std::uint8_t>(v); };
    return {byte(plan.chained ? 1 : 0), byte(plan.load1 >> 8),
            byte(plan.load1 & 0xFF), byte(plan.load0 >> 8),
            byte(plan.load0 & 0xFF), params.threshold,
            byte(params.dest >> 8), byte(params.dest & 0xFF),
            byte(macctrl), byte(wdt_load >> 8), byte(wdt_load & 0xFF)};
}

/** The `.equ` lines defining @p values (from-source assembly). */
std::string
paramEquates(const ParamValues &values)
{
    std::string s;
    for (std::size_t i = 0; i < values.size(); ++i)
        s += sim::csprintf(".equ %s, %u\n", paramNames()[i].c_str(),
                           values[i]);
    return s;
}

/** Fixed uC constants: code base, command-frame fields, ACL, scratch. */
std::string
mcuConstHeader()
{
    return sim::csprintf(
        ".equ MCU_CODE, %u\n"
        ".equ MSG_INBUF_CMD, %u\n"
        ".equ MSG_INBUF_VHI, %u\n"
        ".equ MSG_INBUF_VLO, %u\n"
        ".equ MSG_INBUF_SRC_LO, %u\n"
        ".equ MSG_INBUF_SRC_HI, %u\n"
        ".equ ACL_HI, %u\n"
        ".equ ACL_LO, %u\n"
        ".equ SCRATCH, %u\n",
        map::mcuCodeBase,
        map::msgBase + map::msgInBuf + cmdTargetOffset,
        map::msgBase + map::msgInBuf + cmdValueHiOffset,
        map::msgBase + map::msgInBuf + cmdValueLoOffset,
        map::msgBase + map::msgInBuf + 7,
        map::msgBase + map::msgInBuf + 8,
        0x00, 0x42,
        map::mcuCodeBase - 2);
}

enum class AppKind : std::uint8_t
{
    App1, App2, App3, App4, Blink, Sense, Sink
};

/**
 * What of AppParams changes an app's instruction stream; everything
 * else reaches the code only as `P_*` byte values. Templates are keyed
 * by it.
 */
struct Shape
{
    AppKind kind;
    bool chained;  ///< period beyond 16 bits: timer 0 chained into timer 1
    bool watchdog; ///< arm the watchdog, kick it, re-run init on a bark
    bool mac;      ///< program the MAC retry / auto-ACK register

    auto operator<=>(const Shape &) const = default;
};

/** The staged applications vary with @p params; the microbenchmarks
 *  and the sink run fixed code. */
Shape
shapeOf(AppKind kind, const AppParams &params)
{
    switch (kind) {
      case AppKind::App1:
      case AppKind::App2:
      case AppKind::App3:
      case AppKind::App4:
        return {kind, params.samplePeriodCycles > 0xFFFF,
                params.watchdogCycles > 0, params.macRetries > 0};
      default:
        return {kind, false, false, false};
    }
}

/** The params whose values reach the code: blink and the sink model no
 *  MAC retries or watchdog. */
AppParams
effectiveParams(AppKind kind, AppParams params)
{
    if (kind == AppKind::Blink || kind == AppKind::Sink) {
        params.macRetries = 0;
        params.watchdogCycles = 0;
    }
    return params;
}

/**
 * System initialization (an irregular task by definition): configure the
 * slaves for the application, then go to sleep forever (regular operation
 * is entirely the EP's business).
 */
std::string
mcuInit(const Shape &shape, bool use_filter, bool radio_rx,
        bool enable_timer)
{
    std::string s = "\n.org MCU_CODE\ninit:\n"
                    "    LDI r0, P_DEST_HI\n"
                    "    STS MSG_DEST_HI, r0\n"
                    "    LDI r0, P_DEST_LO\n"
                    "    STS MSG_DEST_LO, r0\n"
                    "    LDI r0, 1\n"
                    "    STS MSG_PAYLOAD_LEN, r0\n";
    if (shape.mac) {
        s += "    LDI r0, P_MACCTRL\n"
             "    STS RADIO_MACCTRL, r0\n";
    }
    if (use_filter) {
        s += "    LDI r0, P_THRESH\n"
             "    STS FILTER_THRESH, r0\n"
             "    LDI r0, 1\n"
             "    STS FILTER_CTRL, r0\n";
    }
    if (radio_rx) {
        s += "    LDI r0, 2\n"
             "    STS RADIO_CTRL, r0\n"; // RX on
    }
    if (enable_timer) {
        s += "    LDI r0, P_PERIOD_HI\n"
             "    STS TIMER0_LOADHI, r0\n"
             "    LDI r0, P_PERIOD_LO\n"
             "    STS TIMER0_LOADLO, r0\n";
        if (shape.chained) {
            s += "    LDI r0, P_PERIOD1_HI\n"
                 "    STS TIMER1_LOADHI, r0\n"
                 "    LDI r0, P_PERIOD1_LO\n"
                 "    STS TIMER1_LOADLO, r0\n"
                 "    LDI r0, 7\n"          // enable | reload | chain
                 "    STS TIMER1_CTRL, r0\n";
        }
        s += "    LDI r0, 3\n"              // enable | reload
             "    STS TIMER0_CTRL, r0\n";
    }
    if (shape.watchdog) {
        // Arm last so the first kick (from the timer ISR) lands well
        // inside the first countdown window.
        s += "    LDI r0, P_WDT_HI\n"
             "    STS WDT_LOADHI, r0\n"
             "    LDI r0, P_WDT_LO\n"
             "    STS WDT_LOADLO, r0\n"
             "    LDI r0, 1\n"
             "    STS WDT_CTRL, r0\n";
    }
    s += "    SLEEP\n";
    return s;
}

/**
 * v4 irregular-event handler: decode a reconfiguration command from the
 * message processor's IN buffer and apply it. MARK 1 fires after a timer
 * change, MARK 2 after a threshold change, MARK 4 after a route update
 * (measurement hooks).
 */
const char *mcuReconfigHandler = R"(
reconfig:
    LDS r0, MSG_IN_LEN          ; sanity: a command frame is >= 12 bytes
    CPI r0, 12
    JC rc_invalid
    LDS r0, MSG_INBUF           ; FCF: really a command frame?
    ANDI r0, 7
    CPI r0, 3
    JNZ rc_invalid
    LDS r0, MSG_INBUF_SRC_HI    ; authorised reconfigurer only
    CPI r0, ACL_HI
    JNZ rc_invalid
    LDS r0, MSG_INBUF_SRC_LO
    CPI r0, ACL_LO
    JNZ rc_invalid
    LDS r0, MSG_INBUF_CMD
    CPI r0, 0
    JNZ rc_not_timer
    ; --- timer period change ---
    LDS r1, MSG_INBUF_VHI
    LDS r2, MSG_INBUF_VLO
    MOV r3, r1                  ; reject a zero period
    OR r3, r2
    JZ rc_invalid
    LDI r3, 0                   ; pause while rewriting
    STS TIMER0_CTRL, r3
    STS TIMER0_LOADHI, r1
    STS TIMER0_LOADLO, r2
    LDI r3, 3                   ; restart periodic
    STS TIMER0_CTRL, r3
    MARK 1
    LDS r4, SCRATCH             ; applied-reconfigurations counter
    INC r4
    STS SCRATCH, r4
    SLEEP
rc_not_timer:
    CPI r0, 1
    JNZ rc_not_thresh
    ; --- filter threshold change ---
    LDS r1, MSG_INBUF_VHI
    STS FILTER_THRESH, r1
    MARK 2
    LDS r4, SCRATCH
    INC r4
    STS SCRATCH, r4
    SLEEP
rc_not_thresh:
    CPI r0, 2
    JNZ rc_invalid
    ; --- route update: repoint the wildcard uplink at a new parent ---
    LDS r1, MSG_INBUF_VHI
    LDS r2, MSG_INBUF_VLO
    LDI r3, 0xFF
    STS MSG_ROUTE_ORIG_HI, r3   ; wildcard origin (0xFFFF)
    STS MSG_ROUTE_ORIG_LO, r3
    STS MSG_ROUTE_NEXT_HI, r1
    STS MSG_ROUTE_NEXT_LO, r2
    LDI r3, 4                   ; CmdRouteAdd: replaces the old wildcard
    STS MSG_CTRL, r3
    STS MSG_DEST_HI, r1         ; own traffic follows the new parent too
    STS MSG_DEST_LO, r2
    MARK 4
    LDS r4, SCRATCH
    INC r4
    STS SCRATCH, r4
    SLEEP
rc_invalid:
    MARK 3
    SLEEP
)";

// ---------------------------------------------------------------------------
// Assembly of complete applications.
// ---------------------------------------------------------------------------

/** One application's code for a shape; the uC part leaves `P_*`
 *  undefined. */
struct AppSource
{
    const char *name;
    std::string ep;
    std::string mcu;
};

/** The staged apps' shared send path: timer ISR (+ watchdog kick),
 *  message-ready ISR and timer bindings. */
std::string
epSendPath(const Shape &shape, const char *timer_isr)
{
    std::string isr = shape.watchdog ? withWatchdogKick(timer_isr)
                                     : std::string(timer_isr);
    return isr + epTxReadyIsr;
}

/** Watchdog EP plumbing shared by the staged applications. */
std::string
epWatchdogParts(const Shape &shape)
{
    if (!shape.watchdog)
        return "";
    return std::string(epWatchdogIsr) + epIsrBindingsWatchdog;
}

AppSource
sourceOf(const Shape &shape)
{
    const std::string header = mcuConstHeader();
    switch (shape.kind) {
      case AppKind::App1:
        return {"app1-sample-send",
                epSendPath(shape, epTimerIsrNoFilter) + epTxDoneGateRadio +
                    epNullIsr + epIsrBindingsV1(shape.chained) +
                    epWatchdogParts(shape),
                header + mcuInit(shape, false, false, true)};
      case AppKind::App2:
        return {"app2-sample-filter-send",
                epSendPath(shape, epTimerIsrFilter) + epTxDoneGateRadio +
                    epNullIsr + epIsrBindingsV1(shape.chained) +
                    epIsrBindingsFilter + epWatchdogParts(shape),
                header + mcuInit(shape, true, false, true)};
      case AppKind::App3:
        return {"app3-multihop",
                epSendPath(shape, epTimerIsrFilter) + epTxDoneKeepRadio +
                    epRxIsrs + epNullIsr + epIsrBindingsV1(shape.chained) +
                    epIsrBindingsFilter + epIsrBindingsRx +
                    epWatchdogParts(shape),
                header + mcuInit(shape, true, true, true)};
      case AppKind::App4:
        return {"app4-reconfigurable",
                epSendPath(shape, epTimerIsrFilter) + epTxDoneKeepRadio +
                    epRxIsrs + epIrregularIsr + epNullIsr +
                    epIsrBindingsV1(shape.chained) + epIsrBindingsFilter +
                    epIsrBindingsRx + epIsrBindingsIrregular +
                    epWatchdogParts(shape),
                header + mcuInit(shape, true, true, true) +
                    mcuReconfigHandler};
      case AppKind::Blink:
        // SNAP comparison: a timer interrupt toggles an LED. The "LED"
        // is a scratch byte; the EP writes alternating values from two
        // tiny ISRs is overkill, a single WRITEI models the set-LED
        // operation.
        return {"blink", R"(
blink_isr:
    WRITEI 0x0700, 1            ; LED register in scratch space
    TERMINATE
.isr Timer0, blink_isr
)",
                header + mcuInit(shape, false, false, true)};
      case AppKind::Sense:
        // SNAP comparison: periodically sample the ADC and feed a
        // running statistic. The threshold filter block plays the
        // accumulator role (data-processing slave), with interrupts
        // disabled.
        return {"sense", R"(
sense_isr:
    SWITCHON SENSOR
    READ SENSOR_DATA
    SWITCHOFF SENSOR
    WRITE FILTER_DATA
    TERMINATE
.isr Timer0, sense_isr
)",
                header + "\n.org MCU_CODE\ninit:\n"
                         "    LDI r0, 0\n"
                         "    STS FILTER_CTRL, r0\n" // no irqs
                         "    LDI r0, P_PERIOD_HI\n"
                         "    STS TIMER0_LOADHI, r0\n"
                         "    LDI r0, P_PERIOD_LO\n"
                         "    STS TIMER0_LOADLO, r0\n"
                         "    LDI r0, 3\n"
                         "    STS TIMER0_CTRL, r0\n"
                         "    SLEEP\n"};
      case AppKind::Sink:
        // Listen-only: the receive pipeline of app3 with no timer,
        // filter or send path. The forward ISR stays bound so a sink
        // given routing-CAM entries can still relay (tree roots that
        // uplink elsewhere).
        return {"sink-listen",
                std::string(epTxDoneKeepRadio) + epRxIsrs +
                    ".isr RadioTxDone, txdone_isr\n"
                    ".isr RadioTxFail, txdone_isr\n" +
                    epIsrBindingsRx,
                header + mcuInit(shape, false, true, false)};
    }
    sim::panic("unhandled app kind");
}

/** Assemble the EP side and wire up entry points around @p image. */
NodeApp
link(const Shape &shape, const AppSource &source, mcu::Image image)
{
    NodeApp app;
    app.name = source.name;
    app.ep = epAssemble(source.ep);
    app.mcu = std::move(image);
    app.initEntry = app.mcu.symbol("init");
    if (app.mcu.hasSymbol("reconfig"))
        app.vectors[0] = app.mcu.symbol("reconfig");
    // A bark re-runs init (full reconfiguration) via wakeup vector 7.
    if (shape.watchdog)
        app.vectors[7] = app.initEntry;
    return app;
}

/** A shape's image with every `P_*` byte and symbol left to bind. */
struct Template
{
    NodeApp app;
    std::vector<mcu::ParamFixup> fixups;
};

/**
 * The process-wide template for @p shape, assembled from source on
 * first use. Templates are immutable once published, so callers bind
 * outside the lock.
 */
std::shared_ptr<const Template>
templateFor(const Shape &shape)
{
    static std::mutex mutex;
    static std::map<Shape, std::shared_ptr<const Template>> memo;
    std::lock_guard<std::mutex> lock(mutex);
    std::shared_ptr<const Template> &slot = memo[shape];
    if (!slot) {
        AppSource source = sourceOf(shape);
        auto t = std::make_shared<Template>();
        mcu::Image image = mcu::assemble(source.mcu, epDefaultSymbols(),
                                         paramNames(), t->fixups);
        for (const std::string &name : paramNames())
            image.symbols[name] = 0;
        t->app = link(shape, source, std::move(image));
        slot = std::move(t);
    }
    return slot;
}

/** Copy @p t and write @p values into its parameter bytes and symbols. */
NodeApp
bindParams(const Template &t, const ParamValues &values)
{
    NodeApp app = t.app;
    for (const mcu::ParamFixup &f : t.fixups)
        app.mcu.chunks[f.chunk].bytes[f.offset] = values[f.param];
    for (std::size_t i = 0; i < values.size(); ++i)
        app.mcu.symbols.find(paramNames()[i])->second = values[i];
    return app;
}

NodeApp
build(AppKind kind, const AppParams &params)
{
    AppParams p = effectiveParams(kind, params);
    ParamValues values = paramValues(p);
    return bindParams(*templateFor(shapeOf(kind, p)), values);
}

AppKind
kindByName(const std::string &name)
{
    static const std::pair<const char *, AppKind> kinds[] = {
        {"app1", AppKind::App1},   {"app2", AppKind::App2},
        {"app3", AppKind::App3},   {"app4", AppKind::App4},
        {"blink", AppKind::Blink}, {"sense", AppKind::Sense},
        {"sink", AppKind::Sink}};
    for (const auto &[n, kind] : kinds) {
        if (name == n)
            return kind;
    }
    sim::fatal("unknown app '%s' (valid: app1, app2, app3, app4, blink, "
               "sense, sink)",
               name.c_str());
}

} // namespace

NodeApp
buildApp1(const AppParams &params)
{
    return build(AppKind::App1, params);
}

NodeApp
buildApp2(const AppParams &params)
{
    return build(AppKind::App2, params);
}

NodeApp
buildApp3(const AppParams &params)
{
    return build(AppKind::App3, params);
}

NodeApp
buildApp4(const AppParams &params)
{
    return build(AppKind::App4, params);
}

NodeApp
buildBlink(const AppParams &params)
{
    return build(AppKind::Blink, params);
}

NodeApp
buildSense(const AppParams &params)
{
    return build(AppKind::Sense, params);
}

NodeApp
buildSink(const AppParams &params)
{
    return build(AppKind::Sink, params);
}

NodeApp
buildByName(const std::string &name, const AppParams &params)
{
    return build(kindByName(name), params);
}

NodeApp
assembleFromSource(const std::string &name, const AppParams &params)
{
    AppKind kind = kindByName(name);
    AppParams p = effectiveParams(kind, params);
    Shape shape = shapeOf(kind, p);
    AppSource source = sourceOf(shape);
    return link(shape, source,
                mcu::assemble(paramEquates(paramValues(p)) + source.mcu,
                              epDefaultSymbols()));
}

void
install(SensorNode &node, const NodeApp &app)
{
    node.loadEpProgram(app.ep);
    node.loadMcuProgram(app.mcu);
    for (const auto &[index, handler] : app.vectors)
        node.setMcuVector(index, handler);
    node.boot(app.initEntry);
}

} // namespace ulp::core::apps
