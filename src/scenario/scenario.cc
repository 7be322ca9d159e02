#include "scenario/scenario.hh"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace ulp::scenario {

namespace {

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

/** Parser state: current position for diagnostics. */
struct Cursor
{
    const std::string &file;
    unsigned line = 0;

    [[noreturn]] void
    fail(const std::string &message) const
    {
        // line 0 = not a file position (programmatic override contexts).
        if (line == 0)
            sim::fatal("%s: %s", file.c_str(), message.c_str());
        sim::fatal("%s:%u: %s", file.c_str(), line, message.c_str());
    }
};

std::string
trim(const std::string &s)
{
    const char *ws = " \t\r";
    auto b = s.find_first_not_of(ws);
    if (b == std::string::npos)
        return "";
    auto e = s.find_last_not_of(ws);
    return s.substr(b, e - b + 1);
}

std::uint64_t
parseUnsigned(const Cursor &at, const std::string &key,
              const std::string &value, std::uint64_t max)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.c_str(), &end, 0);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        value[0] == '-') {
        at.fail("'" + key + "' needs an unsigned integer, got '" + value +
                "'");
    }
    if (v > max) {
        at.fail("'" + key + "' value " + value + " exceeds the maximum " +
                std::to_string(max));
    }
    return v;
}

double
parseDouble(const Cursor &at, const std::string &key,
            const std::string &value)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE)
        at.fail("'" + key + "' needs a number, got '" + value + "'");
    return v;
}

double
parseProbability(const Cursor &at, const std::string &key,
                 const std::string &value)
{
    double v = parseDouble(at, key, value);
    if (v < 0.0 || v > 1.0)
        at.fail("'" + key + "' must be in [0, 1], got '" + value + "'");
    return v;
}

void
parseScenarioKey(const Cursor &at, Scenario &sc, const std::string &key,
                 const std::string &value)
{
    if (key == "name")
        sc.name = value;
    else if (key == "seconds") {
        sc.seconds = parseDouble(at, key, value);
        if (!(sc.seconds > 0.0))
            at.fail("'seconds' must be positive");
    } else if (key == "seed")
        sc.seed = parseUnsigned(at, key, value, UINT64_MAX);
    else if (key == "threads") {
        sc.threads =
            static_cast<unsigned>(parseUnsigned(at, key, value, 1024));
        if (sc.threads == 0)
            at.fail("'threads' must be at least 1");
    } else
        at.fail("unknown key '" + key + "' in [scenario]");
}

void
parseNodesKey(const Cursor &at, Scenario &sc, const std::string &key,
              const std::string &value)
{
    Scenario::Nodes &n = sc.nodes;
    if (key == "count") {
        n.count =
            static_cast<unsigned>(parseUnsigned(at, key, value, 65'534));
        if (n.count == 0)
            at.fail("'count' must be at least 1");
    } else if (key == "app")
        n.app = value;
    else if (key == "period")
        n.period =
            static_cast<std::uint32_t>(parseUnsigned(at, key, value,
                                                     UINT32_MAX));
    else if (key == "period-stagger")
        n.periodStagger =
            static_cast<unsigned>(parseUnsigned(at, key, value, 65'535));
    else if (key == "threshold")
        n.threshold =
            static_cast<unsigned>(parseUnsigned(at, key, value, 255));
    else if (key == "mac-retries")
        n.macRetries =
            static_cast<unsigned>(parseUnsigned(at, key, value, 7));
    else if (key == "watchdog")
        n.watchdog =
            static_cast<std::uint32_t>(parseUnsigned(at, key, value,
                                                     UINT32_MAX));
    else if (key == "dest")
        n.dest =
            static_cast<unsigned>(parseUnsigned(at, key, value, 65'534));
    else if (key == "signal")
        n.signal = value;
    else if (key == "noise")
        n.noise = parseDouble(at, key, value);
    else if (key == "placement") {
        if (value == "grid")
            n.placement = Placement::Grid;
        else if (value == "uniform")
            n.placement = Placement::Uniform;
        else if (value == "explicit")
            n.placement = Placement::Explicit;
        else
            at.fail("'placement' must be grid, uniform or explicit, got '" +
                    value + "'");
    } else if (key == "grid-cols")
        n.gridCols =
            static_cast<unsigned>(parseUnsigned(at, key, value, 65'534));
    else if (key == "spacing") {
        n.spacing = parseDouble(at, key, value);
        if (!(n.spacing > 0.0))
            at.fail("'spacing' must be positive");
    } else if (key == "area") {
        n.area = parseDouble(at, key, value);
        if (n.area < 0.0)
            at.fail("'area' must be non-negative");
    } else
        at.fail("unknown key '" + key + "' in [nodes]");
}

void
parseRadioKey(const Cursor &at, Scenario &sc, const std::string &key,
              const std::string &value)
{
    Scenario::Radio &r = sc.radio;
    if (key == "model") {
        if (value == "broadcast")
            r.model = RadioModel::Broadcast;
        else if (value == "spatial")
            r.model = RadioModel::Spatial;
        else
            at.fail("'model' must be broadcast or spatial, got '" + value +
                    "'");
    } else if (key == "bit-rate") {
        r.bitRate = parseDouble(at, key, value);
        if (!(r.bitRate > 0.0))
            at.fail("'bit-rate' must be positive");
    } else if (key == "loss")
        r.loss = parseProbability(at, key, value);
    else if (key == "path-loss-exponent") {
        r.spatial.pathLossExponent = parseDouble(at, key, value);
        if (!(r.spatial.pathLossExponent > 0.0))
            at.fail("'path-loss-exponent' must be positive");
    } else if (key == "reference-loss-db")
        r.spatial.referenceLossDb = parseDouble(at, key, value);
    else if (key == "tx-power-dbm")
        r.spatial.txPowerDbm = parseDouble(at, key, value);
    else if (key == "sensitivity-dbm")
        r.spatial.sensitivityDbm = parseDouble(at, key, value);
    else if (key == "fade-margin-db") {
        r.spatial.fadeMarginDb = parseDouble(at, key, value);
        if (r.spatial.fadeMarginDb < 0.0)
            at.fail("'fade-margin-db' must be non-negative");
    } else if (key == "interference-margin-db") {
        r.spatial.interferenceMarginDb = parseDouble(at, key, value);
        if (r.spatial.interferenceMarginDb < 0.0)
            at.fail("'interference-margin-db' must be non-negative");
    } else
        at.fail("unknown key '" + key + "' in [radio]");
}

void
parseRoutesKey(const Cursor &at, Scenario &sc, const std::string &key,
               const std::string &value)
{
    Scenario::Routes &r = sc.routes;
    if (key == "sink")
        r.sink = static_cast<unsigned>(parseUnsigned(at, key, value, 65'533));
    else if (key == "mode") {
        if (value == "auto")
            r.mode = RouteMode::Auto;
        else if (value == "explicit")
            r.mode = RouteMode::Explicit;
        else if (value == "none")
            r.mode = RouteMode::None;
        else
            at.fail("'mode' must be auto, explicit or none, got '" + value +
                    "'");
    } else if (key == "min-prob")
        r.minProb = parseProbability(at, key, value);
    else
        at.fail("unknown key '" + key + "' in [routes]");
}

/** One `source -> sink` fabric link. */
fabric::Link
parseLink(const Cursor &at, const std::string &key, const std::string &text)
{
    auto arrow = text.find("->");
    if (arrow == std::string::npos) {
        at.fail("'" + key + "' entries are 'source -> sink', got '" + text +
                "'");
    }
    std::string src = trim(text.substr(0, arrow));
    std::string dst = trim(text.substr(arrow + 2));
    auto source = fabric::parseSource(src);
    if (!source)
        at.fail("'" + key + "': unknown event source '" + src + "'");
    auto sink = fabric::parseSink(dst);
    if (!sink)
        at.fail("'" + key + "': unknown event sink '" + dst + "'");
    return {*source, *sink};
}

/**
 * The fabric routes by interrupt request line, so two links on the same
 * line (e.g. adc.done and adc.threshold) can never both be armed —
 * reject at the declaring line rather than at network construction.
 */
void
checkNewLink(const Cursor &at, const std::string &key,
             const std::vector<fabric::Link> &prior, const fabric::Link &link)
{
    for (const fabric::Link &p : prior) {
        if (fabric::sourceIrq(p.source) == fabric::sourceIrq(link.source)) {
            at.fail("'" + key + "': '" +
                    std::string(fabric::sourceName(link.source)) +
                    "' routes the same request line as the earlier '" +
                    fabric::sourceName(p.source) + "' link");
        }
    }
}

void
parseEventsKey(const Cursor &at, Scenario &sc, const std::string &key,
               const std::string &value)
{
    Scenario::Events &e = *sc.events;
    if (key == "link") {
        fabric::Link link = parseLink(at, key, value);
        checkNewLink(at, key, e.links, link);
        e.links.push_back(link);
    } else
        at.fail("unknown key '" + key + "' in [events]");
}

/** Comma-separated link list for [node N] `links`; "none" = empty. */
std::vector<fabric::Link>
parseLinkList(const Cursor &at, const std::string &key,
              const std::string &value)
{
    std::vector<fabric::Link> links;
    if (value == "none")
        return links;
    std::istringstream list(value);
    std::string item;
    while (std::getline(list, item, ',')) {
        item = trim(item);
        if (item.empty())
            at.fail("'" + key + "' has an empty entry");
        fabric::Link link = parseLink(at, key, item);
        checkNewLink(at, key, links, link);
        links.push_back(link);
    }
    return links;
}

ulp::sleep::Policy
parseSleepPolicy(const Cursor &at, const std::string &key,
                 const std::string &value)
{
    if (value == "none")
        return ulp::sleep::Policy::None;
    if (value == "light")
        return ulp::sleep::Policy::Light;
    if (value == "deep")
        return ulp::sleep::Policy::Deep;
    at.fail("'" + key + "' must be none, light or deep, got '" + value +
            "'");
}

void
parseMacKey(const Cursor &at, Scenario &sc, const std::string &key,
            const std::string &value)
{
    Scenario::Mac &m = *sc.mac;
    if (key == "mode") {
        if (value == "csma")
            m.mode = ulp::sleep::MacMode::Csma;
        else if (value == "beacon")
            m.mode = ulp::sleep::MacMode::Beacon;
        else
            at.fail("'mode' must be csma or beacon, got '" + value + "'");
    } else if (key == "beacon-order")
        m.beaconOrder =
            static_cast<unsigned>(parseUnsigned(at, key, value, 14));
    else if (key == "sf-order")
        m.sfOrder = static_cast<unsigned>(parseUnsigned(at, key, value, 14));
    else if (key == "guard")
        m.guard = static_cast<unsigned>(parseUnsigned(at, key, value, 255));
    else if (key == "drift-ppm") {
        m.driftPpm = parseDouble(at, key, value);
        if (m.driftPpm < 0.0)
            at.fail("'drift-ppm' must be non-negative");
    } else if (key == "coordinator")
        m.coordinator =
            static_cast<unsigned>(parseUnsigned(at, key, value, 65'533));
    else
        at.fail("unknown key '" + key + "' in [mac]");
}

void
parseSleepKey(const Cursor &at, Scenario &sc, const std::string &key,
              const std::string &value)
{
    Scenario::Sleep &s = *sc.sleep;
    if (key == "policy")
        s.policy = parseSleepPolicy(at, key, value);
    else if (key == "period") {
        s.period = parseDouble(at, key, value);
        if (!(s.period > 0.0))
            at.fail("'period' must be positive (seconds)");
    } else if (key == "on") {
        s.on = parseDouble(at, key, value);
        if (!(s.on > 0.0))
            at.fail("'on' must be positive (seconds)");
    } else
        at.fail("unknown key '" + key + "' in [sleep]");
}

void
parseNodeKey(const Cursor &at, NodeOverride &o, const std::string &key,
             const std::string &value)
{
    if (key == "app")
        o.app = value;
    else if (key == "period")
        o.period =
            static_cast<std::uint32_t>(parseUnsigned(at, key, value,
                                                     UINT32_MAX));
    else if (key == "threshold")
        o.threshold =
            static_cast<unsigned>(parseUnsigned(at, key, value, 255));
    else if (key == "mac-retries")
        o.macRetries =
            static_cast<unsigned>(parseUnsigned(at, key, value, 7));
    else if (key == "watchdog")
        o.watchdog =
            static_cast<std::uint32_t>(parseUnsigned(at, key, value,
                                                     UINT32_MAX));
    else if (key == "signal")
        o.signal = value;
    else if (key == "noise")
        o.noise = parseDouble(at, key, value);
    else if (key == "x")
        o.x = parseDouble(at, key, value);
    else if (key == "y")
        o.y = parseDouble(at, key, value);
    else if (key == "address")
        o.address =
            static_cast<unsigned>(parseUnsigned(at, key, value, 65'534));
    else if (key == "seed")
        o.seed = parseUnsigned(at, key, value, UINT64_MAX);
    else if (key == "dest")
        o.dest =
            static_cast<unsigned>(parseUnsigned(at, key, value, 65'534));
    else if (key == "next-hop")
        o.nextHop =
            static_cast<unsigned>(parseUnsigned(at, key, value, 65'533));
    else if (key == "domain")
        o.domain =
            static_cast<unsigned>(parseUnsigned(at, key, value, 255));
    else if (key == "sleep-policy")
        o.sleepPolicy = parseSleepPolicy(at, key, value);
    else if (key == "sleep-period") {
        o.sleepPeriod = parseDouble(at, key, value);
        if (!(*o.sleepPeriod > 0.0))
            at.fail("'sleep-period' must be positive (seconds)");
    } else if (key == "sleep-on") {
        o.sleepOn = parseDouble(at, key, value);
        if (!(*o.sleepOn > 0.0))
            at.fail("'sleep-on' must be positive (seconds)");
    } else if (key == "links")
        o.links = parseLinkList(at, key, value);
    else
        at.fail("unknown key '" + key + "' in [node N]");
}

/**
 * Source lines of every fail/revive entry, parallel to the event
 * vectors. Range checks (node index, event time) need the whole file —
 * [nodes] count or [scenario] seconds may come later — so they run
 * after parsing, against these recorded positions.
 */
struct LifecycleLines
{
    std::vector<unsigned> fail;
    std::vector<unsigned> revive;
};

void
parseLifecycleEvents(const Cursor &at, const std::string &key,
                     const std::string &value,
                     std::vector<LifecycleEvent> &events,
                     std::vector<unsigned> &lines)
{
    std::istringstream list(value);
    std::string item;
    while (std::getline(list, item, ',')) {
        item = trim(item);
        if (item.empty())
            at.fail("'" + key + "' has an empty entry");
        auto sep = item.find('@');
        if (sep == std::string::npos) {
            at.fail("'" + key + "' entries are node@seconds, got '" + item +
                    "'");
        }
        LifecycleEvent ev;
        ev.node = static_cast<unsigned>(
            parseUnsigned(at, key, trim(item.substr(0, sep)), 65'534));
        ev.atSeconds = parseDouble(at, key, trim(item.substr(sep + 1)));
        if (ev.atSeconds < 0.0)
            at.fail("'" + key + "' time must be non-negative");
        events.push_back(ev);
        lines.push_back(at.line);
    }
}

void
parseLifecycleKey(const Cursor &at, Scenario &sc, LifecycleLines &lines,
                  const std::string &key, const std::string &value)
{
    Scenario::Lifecycle &l = *sc.lifecycle;
    if (key == "fail")
        parseLifecycleEvents(at, key, value, l.fail, lines.fail);
    else if (key == "revive")
        parseLifecycleEvents(at, key, value, l.revive, lines.revive);
    else if (key == "repair") {
        if (value == "none")
            l.repair = RepairPolicy::None;
        else if (value == "periodic")
            l.repair = RepairPolicy::Periodic;
        else if (value == "triggered")
            l.repair = RepairPolicy::Triggered;
        else
            at.fail("'repair' must be none, periodic or triggered, got '" +
                    value + "'");
    } else if (key == "repair-period") {
        l.repairPeriod = parseDouble(at, key, value);
        if (!(l.repairPeriod > 0.0))
            at.fail("'repair-period' must be positive");
    } else if (key == "metric") {
        if (value == "hops")
            l.metric = RouteMetric::Hops;
        else if (value == "energy")
            l.metric = RouteMetric::Energy;
        else
            at.fail("'metric' must be hops or energy, got '" + value + "'");
    } else if (key == "energy-weight") {
        l.energyWeight = parseDouble(at, key, value);
        if (l.energyWeight < 0.0)
            at.fail("'energy-weight' must be non-negative");
    } else if (key == "battery") {
        l.battery = parseDouble(at, key, value);
        if (l.battery < 0.0)
            at.fail("'battery' must be non-negative (joules; 0 disables)");
    } else if (key == "battery-initial")
        l.batteryInitial = parseDouble(at, key, value);
    else if (key == "harvest") {
        l.harvest = parseDouble(at, key, value);
        if (l.harvest < 0.0)
            at.fail("'harvest' must be non-negative");
    } else if (key == "battery-interval") {
        l.batteryInterval = parseDouble(at, key, value);
        if (!(l.batteryInterval > 0.0))
            at.fail("'battery-interval' must be positive");
    } else if (key == "revive-level")
        l.reviveLevel = parseProbability(at, key, value);
    else
        at.fail("unknown key '" + key + "' in [lifecycle]");
}

void
parseFaultKey(const Cursor &at, Scenario &sc, const std::string &key,
              const std::string &value)
{
    if (key == "campaign")
        sc.fault->campaign = value;
    else if (key == "node")
        sc.fault->node =
            static_cast<unsigned>(parseUnsigned(at, key, value, 65'533));
    else
        at.fail("unknown key '" + key + "' in [fault]");
}

void
parseTraceKey(const Cursor &at, Scenario &sc, const std::string &key,
              const std::string &value)
{
    if (key == "out")
        sc.trace->out = value;
    else if (key == "channels")
        sc.trace->channels = value;
    else if (key == "energy-period") {
        sc.trace->energyPeriod = parseDouble(at, key, value);
        if (!(sc.trace->energyPeriod > 0.0))
            at.fail("'energy-period' must be positive (seconds)");
    } else
        at.fail("unknown key '" + key + "' in [trace]");
}

// ---------------------------------------------------------------------------
// Printing.
// ---------------------------------------------------------------------------

/** Shortest decimal form that parses back to exactly @p v. */
std::string
formatDouble(double v)
{
    char buf[64];
    for (int precision : {15, 17}) {
        std::snprintf(buf, sizeof buf, "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

const char *
placementName(Placement p)
{
    switch (p) {
      case Placement::Grid: return "grid";
      case Placement::Uniform: return "uniform";
      case Placement::Explicit: return "explicit";
    }
    return "?";
}

const char *
routeModeName(RouteMode m)
{
    switch (m) {
      case RouteMode::Auto: return "auto";
      case RouteMode::Explicit: return "explicit";
      case RouteMode::None: return "none";
    }
    return "?";
}

const char *
repairPolicyName(RepairPolicy p)
{
    switch (p) {
      case RepairPolicy::None: return "none";
      case RepairPolicy::Periodic: return "periodic";
      case RepairPolicy::Triggered: return "triggered";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Cross-key validation.
// ---------------------------------------------------------------------------

/**
 * Whole-scenario constraints no single key can check. @p lifecycleLines
 * carries the source line of each fail/revive entry when coming from
 * parseScenario (so diagnostics point at the offending entry); it is
 * null when re-validating after programmatic overrides.
 */
void
validateParsed(Cursor &at, const Scenario &sc,
               const LifecycleLines *lifecycleLines)
{
    if (sc.lifecycle) {
        auto checkEvents = [&](const std::string &key,
                               const std::vector<LifecycleEvent> &events,
                               const std::vector<unsigned> *lines) {
            for (std::size_t i = 0; i < events.size(); ++i) {
                at.line = lines ? (*lines)[i] : 0;
                if (events[i].node >= sc.nodes.count) {
                    at.fail("'" + key + "' node " +
                            std::to_string(events[i].node) +
                            " is out of range (count = " +
                            std::to_string(sc.nodes.count) + ")");
                }
                if (events[i].atSeconds >= sc.seconds) {
                    at.fail("'" + key + "' time " +
                            formatDouble(events[i].atSeconds) +
                            " is at or past the end of the run (seconds = " +
                            formatDouble(sc.seconds) + ")");
                }
            }
        };
        checkEvents("fail", sc.lifecycle->fail,
                    lifecycleLines ? &lifecycleLines->fail : nullptr);
        checkEvents("revive", sc.lifecycle->revive,
                    lifecycleLines ? &lifecycleLines->revive : nullptr);
    }
    at.line = 0;
    for (const auto &[index, o] : sc.overrides) {
        if (index >= sc.nodes.count) {
            at.fail("[node " + std::to_string(index) +
                    "] is out of range (count = " +
                    std::to_string(sc.nodes.count) + ")");
        }
        (void)o;
    }
    // Fabric links: the msgproc.tx sink forwards the event's datum as
    // the message payload, so it needs a datum-carrying source.
    {
        auto checkLinks = [&](const std::string &where,
                              const std::vector<fabric::Link> &links) {
            for (const fabric::Link &l : links) {
                if (l.sink == fabric::Sink::MsgProcTx &&
                    !fabric::sourceCarriesDatum(l.source)) {
                    at.fail(where + " link '" + fabric::linkName(l) +
                            "': msgproc.tx needs a datum-carrying source "
                            "(adc.done, adc.threshold, filter.pass or "
                            "filter.fail)");
                }
            }
        };
        if (sc.events)
            checkLinks("[events]", sc.events->links);
        for (const auto &[index, o] : sc.overrides) {
            if (o.links)
                checkLinks("[node " + std::to_string(index) + "]", *o.links);
        }
    }
    if (sc.mac && sc.mac->mode == ulp::sleep::MacMode::Beacon) {
        const Scenario::Mac &m = *sc.mac;
        if (m.sfOrder > m.beaconOrder) {
            at.fail("[mac] sf-order (" + std::to_string(m.sfOrder) +
                    ") must not exceed beacon-order (" +
                    std::to_string(m.beaconOrder) + ")");
        }
        if (!m.coordinator && !sc.routes.sink) {
            at.fail("[mac] mode = beacon needs a coordinator "
                    "(set [mac] coordinator or [routes] sink)");
        }
        if (m.coordinator && *m.coordinator >= sc.nodes.count)
            at.fail("[mac] coordinator is out of range");
    }
    // Sleep schedules: every node's *effective* on-window must fit
    // inside its effective period, whichever of the [sleep] defaults
    // and [node N] overrides each value comes from.
    {
        const Scenario::Sleep defaults =
            sc.sleep ? *sc.sleep : Scenario::Sleep{};
        for (unsigned i = 0; i < sc.nodes.count; ++i) {
            auto it = sc.overrides.find(i);
            const NodeOverride *o =
                it == sc.overrides.end() ? nullptr : &it->second;
            const ulp::sleep::Policy policy =
                o && o->sleepPolicy ? *o->sleepPolicy : defaults.policy;
            if (policy == ulp::sleep::Policy::None)
                continue;
            const double period =
                o && o->sleepPeriod ? *o->sleepPeriod : defaults.period;
            const double on = o && o->sleepOn ? *o->sleepOn : defaults.on;
            if (on >= period) {
                at.fail("node " + std::to_string(i) +
                        ": sleep on-window (" + formatDouble(on) +
                        "s) must be shorter than the period (" +
                        formatDouble(period) + "s)");
            }
        }
    }
    if (sc.fault && sc.fault->campaign.empty())
        at.fail("[fault] needs a 'campaign' file");
    if (sc.fault && sc.fault->node >= sc.nodes.count)
        at.fail("[fault] node is out of range");
    if (sc.routes.sink && *sc.routes.sink >= sc.nodes.count)
        at.fail("[routes] sink is out of range");
    if (sc.threads > sc.nodes.count)
        at.fail("more threads (" + std::to_string(sc.threads) +
                ") than nodes (" + std::to_string(sc.nodes.count) + ")");
    if (sc.nodes.placement == Placement::Explicit) {
        for (unsigned i = 0; i < sc.nodes.count; ++i) {
            auto it = sc.overrides.find(i);
            if (it == sc.overrides.end() || !it->second.x || !it->second.y) {
                at.fail("placement = explicit but [node " +
                        std::to_string(i) + "] has no x/y");
            }
        }
    }
}

} // namespace

Scenario
parseScenario(const std::string &text, const std::string &filename)
{
    Scenario sc;
    Cursor at{filename};

    enum class Section
    {
        None,
        Scenario,
        Nodes,
        Radio,
        Mac,
        Routes,
        Events,
        Sleep,
        Lifecycle,
        Node,
        Fault,
        Trace,
    };
    Section section = Section::None;
    NodeOverride *override = nullptr;
    LifecycleLines lifecycleLines;

    std::istringstream in(text);
    std::string raw;
    while (std::getline(in, raw)) {
        ++at.line;
        // Strip comments ('#' or ';' to end of line), then whitespace.
        auto hash = raw.find_first_of("#;");
        if (hash != std::string::npos)
            raw.erase(hash);
        std::string line = trim(raw);
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']')
                at.fail("unterminated section header '" + line + "'");
            std::string sec = trim(line.substr(1, line.size() - 2));
            if (sec == "scenario")
                section = Section::Scenario;
            else if (sec == "nodes")
                section = Section::Nodes;
            else if (sec == "radio")
                section = Section::Radio;
            else if (sec == "mac") {
                section = Section::Mac;
                if (!sc.mac)
                    sc.mac.emplace();
            } else if (sec == "routes")
                section = Section::Routes;
            else if (sec == "events") {
                section = Section::Events;
                if (!sc.events)
                    sc.events.emplace();
            } else if (sec == "sleep") {
                section = Section::Sleep;
                if (!sc.sleep)
                    sc.sleep.emplace();
            } else if (sec == "lifecycle") {
                section = Section::Lifecycle;
                if (!sc.lifecycle)
                    sc.lifecycle.emplace();
            } else if (sec == "fault") {
                section = Section::Fault;
                if (!sc.fault)
                    sc.fault.emplace();
            } else if (sec == "trace") {
                section = Section::Trace;
                if (!sc.trace)
                    sc.trace.emplace();
            } else if (sec.rfind("node ", 0) == 0) {
                std::string index = trim(sec.substr(5));
                unsigned node = static_cast<unsigned>(
                    parseUnsigned(at, "node", index, 65'534));
                // A second [node N] header would silently merge into
                // (and partly overwrite) the first — reject it instead.
                if (sc.overrides.count(node)) {
                    at.fail("duplicate [node " + std::to_string(node) +
                            "] section");
                }
                section = Section::Node;
                override = &sc.overrides[node];
            } else if (sec == "campaign") {
                at.fail("'[campaign]' makes this a campaign spec, not a "
                        "scenario: use 'ulpsim campaign run " + at.file +
                        "'");
            } else
                at.fail("unknown section '[" + sec + "]'");
            continue;
        }

        auto eq = line.find('=');
        if (eq == std::string::npos)
            at.fail("expected 'key = value', got '" + line + "'");
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            at.fail("empty key");
        if (value.empty())
            at.fail("'" + key + "' has an empty value");

        switch (section) {
          case Section::None:
            at.fail("'" + key + "' appears before any [section]");
          case Section::Scenario:
            parseScenarioKey(at, sc, key, value);
            break;
          case Section::Nodes:
            parseNodesKey(at, sc, key, value);
            break;
          case Section::Radio:
            parseRadioKey(at, sc, key, value);
            break;
          case Section::Mac:
            parseMacKey(at, sc, key, value);
            break;
          case Section::Routes:
            parseRoutesKey(at, sc, key, value);
            break;
          case Section::Events:
            parseEventsKey(at, sc, key, value);
            break;
          case Section::Sleep:
            parseSleepKey(at, sc, key, value);
            break;
          case Section::Lifecycle:
            parseLifecycleKey(at, sc, lifecycleLines, key, value);
            break;
          case Section::Node:
            parseNodeKey(at, *override, key, value);
            break;
          case Section::Fault:
            parseFaultKey(at, sc, key, value);
            break;
          case Section::Trace:
            parseTraceKey(at, sc, key, value);
            break;
        }
    }

    validateParsed(at, sc, &lifecycleLines);

    return sc;
}

Scenario
parseScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        sim::fatal("cannot open scenario file '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return parseScenario(text.str(), path);
}

std::string
printScenario(const Scenario &sc)
{
    std::ostringstream os;
    os << "[scenario]\n"
       << "name = " << sc.name << "\n"
       << "seconds = " << formatDouble(sc.seconds) << "\n"
       << "seed = " << sc.seed << "\n"
       << "threads = " << sc.threads << "\n";

    const Scenario::Nodes &n = sc.nodes;
    os << "\n[nodes]\n"
       << "count = " << n.count << "\n"
       << "app = " << n.app << "\n"
       << "period = " << n.period << "\n"
       << "period-stagger = " << n.periodStagger << "\n"
       << "threshold = " << n.threshold << "\n"
       << "mac-retries = " << n.macRetries << "\n"
       << "watchdog = " << n.watchdog << "\n"
       << "dest = " << n.dest << "\n"
       << "signal = " << n.signal << "\n"
       << "noise = " << formatDouble(n.noise) << "\n"
       << "placement = " << placementName(n.placement) << "\n"
       << "grid-cols = " << n.gridCols << "\n"
       << "spacing = " << formatDouble(n.spacing) << "\n"
       << "area = " << formatDouble(n.area) << "\n";

    const Scenario::Radio &r = sc.radio;
    os << "\n[radio]\n"
       << "model = "
       << (r.model == RadioModel::Spatial ? "spatial" : "broadcast") << "\n"
       << "bit-rate = " << formatDouble(r.bitRate) << "\n"
       << "loss = " << formatDouble(r.loss) << "\n"
       << "path-loss-exponent = " << formatDouble(r.spatial.pathLossExponent)
       << "\n"
       << "reference-loss-db = " << formatDouble(r.spatial.referenceLossDb)
       << "\n"
       << "tx-power-dbm = " << formatDouble(r.spatial.txPowerDbm) << "\n"
       << "sensitivity-dbm = " << formatDouble(r.spatial.sensitivityDbm)
       << "\n"
       << "fade-margin-db = " << formatDouble(r.spatial.fadeMarginDb) << "\n"
       << "interference-margin-db = "
       << formatDouble(r.spatial.interferenceMarginDb) << "\n";

    if (sc.mac) {
        const Scenario::Mac &m = *sc.mac;
        os << "\n[mac]\n"
           << "mode = "
           << (m.mode == ulp::sleep::MacMode::Beacon ? "beacon" : "csma")
           << "\n"
           << "beacon-order = " << m.beaconOrder << "\n"
           << "sf-order = " << m.sfOrder << "\n"
           << "guard = " << m.guard << "\n"
           << "drift-ppm = " << formatDouble(m.driftPpm) << "\n";
        if (m.coordinator)
            os << "coordinator = " << *m.coordinator << "\n";
    }

    os << "\n[routes]\n";
    if (sc.routes.sink)
        os << "sink = " << *sc.routes.sink << "\n";
    os << "mode = " << routeModeName(sc.routes.mode) << "\n"
       << "min-prob = " << formatDouble(sc.routes.minProb) << "\n";

    if (sc.events) {
        os << "\n[events]\n";
        for (const fabric::Link &l : sc.events->links)
            os << "link = " << fabric::linkName(l) << "\n";
    }

    if (sc.sleep) {
        const Scenario::Sleep &s = *sc.sleep;
        os << "\n[sleep]\n"
           << "policy = " << ulp::sleep::policyName(s.policy) << "\n"
           << "period = " << formatDouble(s.period) << "\n"
           << "on = " << formatDouble(s.on) << "\n";
    }

    if (sc.lifecycle) {
        const Scenario::Lifecycle &l = *sc.lifecycle;
        os << "\n[lifecycle]\n";
        auto events = [&os](const char *key,
                            const std::vector<LifecycleEvent> &list) {
            if (list.empty())
                return;
            os << key << " = ";
            for (std::size_t i = 0; i < list.size(); ++i) {
                if (i)
                    os << ", ";
                os << list[i].node << "@" << formatDouble(list[i].atSeconds);
            }
            os << "\n";
        };
        events("fail", l.fail);
        events("revive", l.revive);
        os << "repair = " << repairPolicyName(l.repair) << "\n"
           << "repair-period = " << formatDouble(l.repairPeriod) << "\n"
           << "metric = "
           << (l.metric == RouteMetric::Energy ? "energy" : "hops") << "\n"
           << "energy-weight = " << formatDouble(l.energyWeight) << "\n"
           << "battery = " << formatDouble(l.battery) << "\n"
           << "battery-initial = " << formatDouble(l.batteryInitial) << "\n"
           << "harvest = " << formatDouble(l.harvest) << "\n"
           << "battery-interval = " << formatDouble(l.batteryInterval) << "\n"
           << "revive-level = " << formatDouble(l.reviveLevel) << "\n";
    }

    for (const auto &[index, o] : sc.overrides) {
        os << "\n[node " << index << "]\n";
        if (o.app)
            os << "app = " << *o.app << "\n";
        if (o.period)
            os << "period = " << *o.period << "\n";
        if (o.threshold)
            os << "threshold = " << *o.threshold << "\n";
        if (o.macRetries)
            os << "mac-retries = " << *o.macRetries << "\n";
        if (o.watchdog)
            os << "watchdog = " << *o.watchdog << "\n";
        if (o.signal)
            os << "signal = " << *o.signal << "\n";
        if (o.noise)
            os << "noise = " << formatDouble(*o.noise) << "\n";
        if (o.x)
            os << "x = " << formatDouble(*o.x) << "\n";
        if (o.y)
            os << "y = " << formatDouble(*o.y) << "\n";
        if (o.address)
            os << "address = " << *o.address << "\n";
        if (o.seed)
            os << "seed = " << *o.seed << "\n";
        if (o.dest)
            os << "dest = " << *o.dest << "\n";
        if (o.nextHop)
            os << "next-hop = " << *o.nextHop << "\n";
        if (o.domain)
            os << "domain = " << *o.domain << "\n";
        if (o.sleepPolicy)
            os << "sleep-policy = " << ulp::sleep::policyName(*o.sleepPolicy)
               << "\n";
        if (o.sleepPeriod)
            os << "sleep-period = " << formatDouble(*o.sleepPeriod) << "\n";
        if (o.sleepOn)
            os << "sleep-on = " << formatDouble(*o.sleepOn) << "\n";
        if (o.links) {
            os << "links = ";
            if (o.links->empty())
                os << "none";
            for (std::size_t i = 0; i < o.links->size(); ++i) {
                if (i)
                    os << ", ";
                os << fabric::linkName((*o.links)[i]);
            }
            os << "\n";
        }
    }

    if (sc.fault) {
        os << "\n[fault]\n"
           << "campaign = " << sc.fault->campaign << "\n"
           << "node = " << sc.fault->node << "\n";
    }
    if (sc.trace) {
        os << "\n[trace]\n";
        if (!sc.trace->out.empty())
            os << "out = " << sc.trace->out << "\n";
        os << "channels = " << sc.trace->channels << "\n"
           << "energy-period = " << formatDouble(sc.trace->energyPeriod)
           << "\n";
    }
    return os.str();
}

void
applyScenarioKey(Scenario &sc, const std::string &dottedKey,
                 const std::string &value, const std::string &context)
{
    Cursor at{context};
    auto dot = dottedKey.find('.');
    if (dot == std::string::npos || dot == 0 ||
        dot + 1 == dottedKey.size()) {
        at.fail("override key '" + dottedKey +
                "' must be section.key (e.g. nodes.period) or node.N.key");
    }
    std::string section = dottedKey.substr(0, dot);
    std::string key = dottedKey.substr(dot + 1);
    if (value.empty())
        at.fail("'" + dottedKey + "' has an empty value");

    if (section == "scenario")
        parseScenarioKey(at, sc, key, value);
    else if (section == "nodes")
        parseNodesKey(at, sc, key, value);
    else if (section == "radio")
        parseRadioKey(at, sc, key, value);
    else if (section == "mac") {
        if (!sc.mac)
            sc.mac.emplace();
        parseMacKey(at, sc, key, value);
    } else if (section == "routes")
        parseRoutesKey(at, sc, key, value);
    else if (section == "events") {
        if (!sc.events)
            sc.events.emplace();
        parseEventsKey(at, sc, key, value);
    } else if (section == "sleep") {
        if (!sc.sleep)
            sc.sleep.emplace();
        parseSleepKey(at, sc, key, value);
    } else if (section == "lifecycle") {
        if (!sc.lifecycle)
            sc.lifecycle.emplace();
        LifecycleLines lines; // positions are meaningless for overrides
        parseLifecycleKey(at, sc, lines, key, value);
    } else if (section == "fault") {
        if (!sc.fault)
            sc.fault.emplace();
        parseFaultKey(at, sc, key, value);
    } else if (section == "trace") {
        if (!sc.trace)
            sc.trace.emplace();
        parseTraceKey(at, sc, key, value);
    } else if (section == "node") {
        auto dot2 = key.find('.');
        if (dot2 == std::string::npos || dot2 == 0 ||
            dot2 + 1 == key.size()) {
            at.fail("per-node override key '" + dottedKey +
                    "' must be node.N.key (e.g. node.3.period)");
        }
        unsigned node = static_cast<unsigned>(
            parseUnsigned(at, "node", key.substr(0, dot2), 65'534));
        parseNodeKey(at, sc.overrides[node], key.substr(dot2 + 1), value);
    } else
        at.fail("unknown section '" + section + "' in override key '" +
                dottedKey + "'");
}

void
validateScenario(const Scenario &sc, const std::string &context)
{
    Cursor at{context};
    validateParsed(at, sc, nullptr);
}

} // namespace ulp::scenario
