/**
 * @file
 * Scenario-engine tests: the declarative configuration path must be a
 * faithful front end for the simulator, not a second implementation.
 *
 *  - parse/print round-trip identity and line-numbered diagnostics
 *  - deterministic placement (grid geometry, seeded uniform draws)
 *  - lowering conventions: addresses, seeds, stagger, BFS route trees
 *  - end-to-end multi-hop: a 3-node relay chain delivers distant
 *    packets to the sink through the routing CAM
 *  - the K = 1/2/4 oracle on a 64-node spatial multi-hop network:
 *    identical counters and a byte-identical merged stats tree
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/network.hh"
#include "scenario/lower.hh"
#include "scenario/scenario.hh"
#include "sim/logging.hh"

using namespace ulp;
using scenario::Placement;
using scenario::RadioModel;
using scenario::RouteMode;
using scenario::Scenario;

namespace {

/** Parse @p text expecting a diagnostic that contains @p where. */
void
expectParseError(const std::string &text, const std::string &where)
{
    try {
        scenario::parseScenario(text, "bad.ini");
        FAIL() << "expected a parse error mentioning '" << where << "'";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
            << "diagnostic was: " << e.what();
    }
}

/** An N-node line with 40 m pitch: node i only hears i-1 and i+1. */
Scenario
chainScenario(unsigned count)
{
    Scenario sc;
    sc.name = "chain";
    sc.seconds = 5.0;
    sc.seed = 7;
    sc.nodes.count = count;
    sc.nodes.app = "app3";
    sc.nodes.period = 2000;
    sc.nodes.placement = Placement::Explicit;
    sc.radio.model = RadioModel::Spatial;
    sc.radio.spatial.pathLossExponent = 2.8;
    sc.radio.spatial.sensitivityDbm = -90.0;
    sc.routes.sink = 0;
    for (unsigned i = 0; i < count; ++i) {
        sc.overrides[i].x = 40.0 * i;
        sc.overrides[i].y = 0.0;
    }
    return sc;
}

/** A count-node square grid routing to a corner sink. */
Scenario
gridScenario(unsigned count, unsigned threads, double seconds)
{
    Scenario sc;
    sc.name = "grid";
    sc.seconds = seconds;
    sc.seed = 42;
    sc.threads = threads;
    sc.nodes.count = count;
    sc.nodes.app = "app3";
    sc.nodes.period = 2000;
    sc.nodes.placement = Placement::Grid;
    sc.nodes.spacing = 40.0;
    sc.radio.model = RadioModel::Spatial;
    sc.radio.spatial.pathLossExponent = 2.8;
    sc.radio.spatial.sensitivityDbm = -90.0;
    sc.routes.sink = 0;
    return sc;
}

core::Network::Counters
runScenario(const Scenario &sc, std::string *stats = nullptr)
{
    scenario::Lowered low = scenario::lower(sc);
    core::Network network(low.spec);
    network.runForSeconds(low.seconds);
    if (stats) {
        std::ostringstream os;
        network.dumpStats(os);
        *stats = os.str();
    }
    return network.counters();
}

// ---------------------------------------------------------------------------
// Parse / print.
// ---------------------------------------------------------------------------

TEST(ScenarioParse, RoundTripIdentity)
{
    const char *text = R"(
        [scenario]
        name = round-trip      ; trailing comment
        seconds = 2.5
        seed = 99
        threads = 2

        [nodes]
        count = 9
        app = app4
        period = 1500
        threshold = 100
        signal = sine:60,5
        noise = 1.25
        placement = uniform
        area = 150

        [radio]
        model = spatial
        path-loss-exponent = 2.75
        sensitivity-dbm = -88.5

        [routes]
        sink = 8
        min-prob = 0.5

        [node 8]
        app = sink
        x = 75
        y = 75

        [node 3]
        period = 4000
        mac-retries = 3

        [fault]
        campaign = plan.txt
        node = 2

        [trace]
        out = trace-dir
        channels = Radio,Power
    )";
    Scenario sc = scenario::parseScenario(text, "round.ini");
    EXPECT_EQ(sc.name, "round-trip");
    EXPECT_EQ(sc.nodes.count, 9u);
    EXPECT_EQ(sc.radio.model, RadioModel::Spatial);
    ASSERT_TRUE(sc.routes.sink);
    EXPECT_EQ(*sc.routes.sink, 8u);
    ASSERT_TRUE(sc.fault);
    EXPECT_EQ(sc.fault->campaign, "plan.txt");
    ASSERT_TRUE(sc.overrides.at(3).macRetries);

    // The canonical printed form parses back to the identical value, and
    // printing is a fixed point.
    std::string printed = scenario::printScenario(sc);
    Scenario again = scenario::parseScenario(printed, "printed.ini");
    EXPECT_EQ(sc, again);
    EXPECT_EQ(printed, scenario::printScenario(again));
}

TEST(ScenarioParse, DefaultsRoundTrip)
{
    Scenario defaults;
    Scenario parsed = scenario::parseScenario(
        scenario::printScenario(defaults), "defaults.ini");
    EXPECT_EQ(defaults, parsed);
}

TEST(ScenarioParse, DiagnosticsCarryFileAndLine)
{
    expectParseError("[nodes]\ncount = twelve\n", "bad.ini:2:");
    expectParseError("count = 4\n", "bad.ini:1:");        // before a section
    expectParseError("[nodes]\n\n\nbogus = 1\n", "bad.ini:4:");
    expectParseError("[warp]\n", "bad.ini:1:");
    expectParseError("[nodes]\ncount\n", "bad.ini:2:");
    expectParseError("[radio]\nloss = 1.5\n", "[0, 1]");
    expectParseError("[nodes]\ncount = 2\n[node 5]\nperiod = 9\n",
                     "out of range");
    expectParseError("[scenario]\nthreads = 4\n[nodes]\ncount = 2\n",
                     "threads");
    expectParseError("[nodes]\nplacement = explicit\ncount = 2\n",
                     "no x/y");
}

TEST(ScenarioParse, CampaignSpecPointsAtCampaignRun)
{
    const std::string spec = "# an ensemble\n[campaign]\nname = e\n"
                             "[axis]\nseed = 1..4\n";
    expectParseError(spec, "bad.ini:2:");
    expectParseError(spec, "use 'ulpsim campaign run bad.ini'");
}

TEST(ScenarioParse, DuplicateNodeSectionIsRejected)
{
    expectParseError(
        "[nodes]\ncount = 4\n[node 1]\nperiod = 9\n[node 1]\nx = 1\n",
        "bad.ini:5:");
    expectParseError(
        "[nodes]\ncount = 4\n[node 1]\nperiod = 9\n[node 1]\nx = 1\n",
        "duplicate [node 1]");
}

TEST(ScenarioParse, LifecycleDiagnosticsCarryFileAndLine)
{
    // Out-of-range node and out-of-range time point at the entry's own
    // line, even though [nodes]/[scenario] may be parsed later.
    expectParseError("[nodes]\ncount = 2\n[lifecycle]\nfail = 5@0.5\n",
                     "bad.ini:4:");
    expectParseError("[nodes]\ncount = 2\n[lifecycle]\nfail = 5@0.5\n",
                     "out of range");
    expectParseError(
        "[lifecycle]\nrevive = 1@3.0\n[nodes]\ncount = 2\n",
        "bad.ini:2:");
    expectParseError(
        "[lifecycle]\nrevive = 1@3.0\n[nodes]\ncount = 2\n",
        "past the end");
    expectParseError("[lifecycle]\nfail = 3\n", "node@seconds");
    expectParseError("[lifecycle]\nfail = 1@-0.5\n", "non-negative");
    expectParseError("[lifecycle]\nrepair = sometimes\n",
                     "none, periodic or triggered");
    expectParseError("[lifecycle]\nmetric = luck\n", "hops or energy");
    expectParseError("[lifecycle]\nrepair-period = 0\n", "positive");
    expectParseError("[lifecycle]\nwarp = 1\n", "unknown key");
}

TEST(ScenarioParse, LifecycleRoundTrip)
{
    const char *text = R"(
        [scenario]
        seconds = 6

        [nodes]
        count = 16
        app = app4

        [routes]
        sink = 0

        [lifecycle]
        fail = 1@1.5, 5@2
        revive = 5@4.25
        repair = triggered
        repair-period = 0.25
        metric = energy
        energy-weight = 2.5
        battery = 0.02
        battery-initial = 0.01
        harvest = 0.0001
        battery-interval = 0.05
        revive-level = 0.25
    )";
    Scenario sc = scenario::parseScenario(text, "lifecycle.ini");
    ASSERT_TRUE(sc.lifecycle);
    ASSERT_EQ(sc.lifecycle->fail.size(), 2u);
    EXPECT_EQ(sc.lifecycle->fail[1].node, 5u);
    EXPECT_EQ(sc.lifecycle->fail[1].atSeconds, 2.0);
    ASSERT_EQ(sc.lifecycle->revive.size(), 1u);
    EXPECT_EQ(sc.lifecycle->repair, scenario::RepairPolicy::Triggered);
    EXPECT_EQ(sc.lifecycle->metric, scenario::RouteMetric::Energy);
    EXPECT_EQ(sc.lifecycle->battery, 0.02);
    EXPECT_EQ(sc.lifecycle->reviveLevel, 0.25);

    std::string printed = scenario::printScenario(sc);
    Scenario again = scenario::parseScenario(printed, "printed.ini");
    EXPECT_EQ(sc, again);
    EXPECT_EQ(printed, scenario::printScenario(again));
}

// ---------------------------------------------------------------------------
// Lowering.
// ---------------------------------------------------------------------------

TEST(ScenarioLower, GridPlacementGeometry)
{
    Scenario sc = gridScenario(6, 1, 0.1);
    sc.nodes.gridCols = 3;
    scenario::Lowered low = scenario::lower(sc);
    ASSERT_EQ(low.spec.nodes.size(), 6u);
    EXPECT_DOUBLE_EQ(low.spec.nodes[4].x, 40.0); // row 1, col 1
    EXPECT_DOUBLE_EQ(low.spec.nodes[4].y, 40.0);
    EXPECT_DOUBLE_EQ(low.spec.nodes[2].x, 80.0); // row 0, col 2
    EXPECT_DOUBLE_EQ(low.spec.nodes[2].y, 0.0);
}

TEST(ScenarioLower, UniformPlacementIsSeedDeterministic)
{
    Scenario sc;
    sc.seed = 1234;
    sc.nodes.count = 32;
    sc.nodes.placement = Placement::Uniform;
    sc.nodes.area = 200.0;
    sc.routes.mode = RouteMode::None;

    scenario::Lowered a = scenario::lower(sc);
    scenario::Lowered b = scenario::lower(sc);
    sc.seed = 1235;
    scenario::Lowered c = scenario::lower(sc);

    bool moved = false;
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_EQ(a.spec.nodes[i].x, b.spec.nodes[i].x);
        EXPECT_EQ(a.spec.nodes[i].y, b.spec.nodes[i].y);
        EXPECT_GE(a.spec.nodes[i].x, 0.0);
        EXPECT_LE(a.spec.nodes[i].x, 200.0);
        EXPECT_GE(a.spec.nodes[i].y, 0.0);
        EXPECT_LE(a.spec.nodes[i].y, 200.0);
        moved |= a.spec.nodes[i].x != c.spec.nodes[i].x;
    }
    EXPECT_TRUE(moved); // a different seed really moves the nodes
}

TEST(ScenarioLower, LegacyAddressSeedAndStaggerConventions)
{
    Scenario sc;
    sc.seed = 50;
    sc.nodes.count = 3;
    sc.nodes.period = 1000;
    sc.routes.mode = RouteMode::None;
    sc.overrides[2].address = 77;
    sc.overrides[2].period = 123;

    scenario::Lowered low = scenario::lower(sc);
    EXPECT_EQ(low.spec.nodes[0].config.address, 1);
    EXPECT_EQ(low.spec.nodes[1].config.address, 2);
    EXPECT_EQ(low.spec.nodes[2].config.address, 77);
    EXPECT_EQ(low.spec.nodes[1].config.seed, 51u);
    EXPECT_EQ(low.spec.nodes[0].params.samplePeriodCycles, 1000u);
    EXPECT_EQ(low.spec.nodes[1].params.samplePeriodCycles, 1037u);
    EXPECT_EQ(low.spec.nodes[2].params.samplePeriodCycles, 123u);
}

TEST(ScenarioLower, ChainRoutesFollowTheLine)
{
    scenario::Lowered low = scenario::lower(chainScenario(4));
    EXPECT_EQ(low.depth, (std::vector<unsigned>{0, 1, 2, 3}));
    EXPECT_EQ(low.maxDepth(), 3u);
    // The sink runs the base-station app and holds no routes; each relay
    // holds one wildcard route toward its parent and sends there too.
    EXPECT_EQ(low.spec.nodes[0].app, "sink");
    EXPECT_TRUE(low.spec.nodes[0].routes.empty());
    for (unsigned i = 1; i < 4; ++i) {
        ASSERT_EQ(low.spec.nodes[i].routes.size(), 1u);
        EXPECT_EQ(low.spec.nodes[i].routes[0].origin,
                  core::MessageProcessor::routeWildcard);
        EXPECT_EQ(low.spec.nodes[i].routes[0].nextHop, i); // address i-1+1
        EXPECT_EQ(low.spec.nodes[i].params.dest, i);
    }
}

TEST(ScenarioLower, UnreachableNodeIsFatal)
{
    Scenario sc = chainScenario(3);
    sc.overrides[2].x = 5000.0; // far out of range of everyone
    EXPECT_THROW(scenario::lower(sc), sim::FatalError);
}

TEST(ScenarioLower, ExplicitRouteCycleIsFatal)
{
    Scenario sc = chainScenario(3);
    sc.routes.mode = RouteMode::Explicit;
    sc.overrides[1].nextHop = 2;
    sc.overrides[2].nextHop = 1;
    EXPECT_THROW(scenario::lower(sc), sim::FatalError);
}

// ---------------------------------------------------------------------------
// End-to-end multi-hop.
// ---------------------------------------------------------------------------

TEST(ScenarioMultihop, ThreeHopChainDeliversToSink)
{
    Scenario sc = chainScenario(4);
    sc.seconds = 3.0;
    scenario::Lowered low = scenario::lower(sc);
    core::Network network(low.spec);
    network.runForSeconds(sc.seconds);

    const core::MessageProcessor &mp = network.node(0).msgProc();
    EXPECT_GT(mp.localDeliveries(), 0u);
    // Every origin's packets arrive — including node 3's, which can only
    // get here through the routing CAMs of nodes 2 and 1 (addresses are
    // 1 + index, so origin addresses are 2, 3, 4).
    const auto &by_source = mp.localDeliveriesBySource();
    ASSERT_EQ(by_source.size(), 3u);
    EXPECT_GT(by_source.at(2), 0u);
    EXPECT_GT(by_source.at(3), 0u);
    EXPECT_GT(by_source.at(4), 0u);
    // Relays re-address rather than flood: node 1 forwarded traffic.
    EXPECT_GT(network.node(1).msgProc().forwarded(), 0u);
}

TEST(ScenarioMultihop, ThreadCountOracle)
{
    // The acceptance oracle: a 64-node spatial multi-hop grid at
    // K = 1, 2, 4 shards — identical headline counters and a
    // byte-identical merged statistics tree.
    std::string s1, s2, s4;
    core::Network::Counters k1 = runScenario(gridScenario(64, 1, 0.4), &s1);
    core::Network::Counters k2 = runScenario(gridScenario(64, 2, 0.4), &s2);
    core::Network::Counters k4 = runScenario(gridScenario(64, 4, 0.4), &s4);

    EXPECT_GT(k1.framesSent, 0u);
    EXPECT_GT(k1.framesDelivered, 0u);
    EXPECT_EQ(k1, k2);
    EXPECT_EQ(k1, k4);
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1, s4);
}

} // namespace
