/**
 * @file
 * The lowered network description: the single configuration surface in
 * front of `core::Network` (the historical per-node-lambda Config shim
 * is gone). A NodeSpec is one node, fully resolved: its hardware
 * configuration, its application (by scenario name or as a prebuilt
 * image), its position, and its routing-CAM preload. A NetworkSpec is
 * the whole network plus the kernel/channel parameters.
 *
 * Everything here is plain data with a small fluent builder — no
 * lambdas, no deferred resolution — so a spec can be compared, printed,
 * and handed to `core::Network`'s constructor. The scenario parser
 * (scenario/scenario.hh) lowers its declarative form into this; tests
 * and benches build specs directly with the builder.
 *
 * Header-only on purpose: core/network.cc consumes it while
 * scenario/lower.cc produces it, and keeping it free of a .cc file keeps
 * the ulp_core <-> ulp_scenario link acyclic.
 */

#ifndef ULP_SCENARIO_SPEC_HH
#define ULP_SCENARIO_SPEC_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/apps.hh"
#include "core/message_processor.hh"
#include "core/node_config.hh"
#include "fabric/links.hh"
#include "net/channel.hh"
#include "net/spatial.hh"
#include "sim/telemetry.hh"
#include "sleep/policy.hh"

namespace ulp::scenario {

/** One fully resolved node. */
struct NodeSpec
{
    /** Hardware configuration (address, clock, power models, sensor). */
    core::NodeConfig config;

    /** Application by scenario name (apps::buildByName). */
    std::string app = "app1";

    /** Application parameters (period, threshold, dest, MAC, watchdog). */
    core::apps::AppParams params;

    /** Position in meters (used only under a spatial radio model). */
    double x = 0.0;
    double y = 0.0;

    /** Broadcast interference domain (used only without a spatial
     *  model; the spatial model derives domains from positions). */
    unsigned domain = 0;

    /** Routing-CAM preload: installed after the app boots. */
    std::vector<core::MessageProcessor::Route> routes;

    /**
     * Escape hatch for tests and benches: a prebuilt application image
     * used verbatim instead of `app`/`params`. Shared, so copies of a
     * spec do not copy the image.
     */
    std::shared_ptr<const core::apps::NodeApp> prebuiltApp;

    /**
     * Event-fabric links armed on this node ([events] section plus
     * per-node overrides). The fabric's threshold comparator uses
     * params.threshold.
     */
    std::vector<fabric::Link> links;

    /** Resolved sleep policy (scenario [sleep] + per-node overrides);
     *  driven by sleep::SleepController, not by the node itself. */
    ulp::sleep::NodeSleep sleep;

    /** This node is the beacon coordinator when the network MAC is
     *  beacon-enabled (lowering marks the routes sink by default). */
    bool macCoordinator = false;

    // --- fluent builder ---------------------------------------------------
    NodeSpec &
    withConfig(const core::NodeConfig &c)
    {
        config = c;
        return *this;
    }
    NodeSpec &
    withApp(std::string name)
    {
        app = std::move(name);
        return *this;
    }
    NodeSpec &
    withParams(const core::apps::AppParams &p)
    {
        params = p;
        return *this;
    }
    NodeSpec &
    at(double px, double py)
    {
        x = px;
        y = py;
        return *this;
    }
    NodeSpec &
    inDomain(unsigned d)
    {
        domain = d;
        return *this;
    }
    NodeSpec &
    withRoute(std::uint16_t origin, std::uint16_t next_hop)
    {
        routes.push_back({origin, next_hop});
        return *this;
    }
    NodeSpec &
    withPrebuiltApp(core::apps::NodeApp a)
    {
        prebuiltApp =
            std::make_shared<const core::apps::NodeApp>(std::move(a));
        return *this;
    }
    NodeSpec &
    withLink(fabric::Source source, fabric::Sink sink)
    {
        links.push_back({source, sink});
        return *this;
    }

    /** Resolve the application image this node boots. */
    core::apps::NodeApp
    buildApp() const
    {
        if (prebuiltApp)
            return *prebuiltApp;
        return core::apps::buildByName(app, params);
    }
};

/** The whole lowered network. */
struct NetworkSpec
{
    std::vector<NodeSpec> nodes;

    /** Simulation shards (worker threads). 1 = sequential kernel. */
    unsigned threads = 1;

    /** Seed for the sequential broadcast channel's loss RNG. */
    std::uint64_t channelSeed = 1;

    double bitRate = net::Channel::defaultBitRate;

    /**
     * When set, the network runs on net::SpatialMedium (log-distance
     * path loss over the NodeSpec positions) for every thread count;
     * when empty, on the flat broadcast medium: net::Channel at
     * threads = 1, net::SpatialMedium over a full-mesh model at K > 1.
     */
    std::optional<net::SpatialConfig> spatial;

    /**
     * Optional per-shard telemetry sink factory (obs::EventLog::sink
     * wrapped in a lambda). Installed on each shard's Simulation before
     * any node is constructed, so every component registers.
     */
    std::function<sim::TelemetrySink *(unsigned)> telemetrySink;

    /** Network-wide MAC selection ([mac] section). With MacMode::Beacon
     *  the network builder programs every radio's beacon registers. */
    ulp::sleep::MacConfig mac;

    // --- fluent builder ---------------------------------------------------
    NodeSpec &
    addNode()
    {
        nodes.emplace_back();
        return nodes.back();
    }
    NetworkSpec &
    withThreads(unsigned k)
    {
        threads = k;
        return *this;
    }
    NetworkSpec &
    withSpatial(const net::SpatialConfig &cfg)
    {
        spatial = cfg;
        return *this;
    }

    /** Node positions in index order (spatial-model input). */
    std::vector<net::Position>
    positions() const
    {
        std::vector<net::Position> p;
        p.reserve(nodes.size());
        for (const NodeSpec &n : nodes)
            p.push_back({n.x, n.y});
        return p;
    }
};

} // namespace ulp::scenario

#endif // ULP_SCENARIO_SPEC_HH
