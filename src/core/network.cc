#include "core/network.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/partition.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/telemetry.hh"

namespace ulp::core {

Network::Network(const scenario::NetworkSpec &spec)
{
    build(spec);
}

void
Network::build(const scenario::NetworkSpec &spec)
{
    builtSpec = spec;
    const unsigned N = static_cast<unsigned>(spec.nodes.size());
    const unsigned K = spec.threads;
    if (N == 0)
        sim::fatal("Network: need at least one node");
    if (K == 0)
        sim::fatal("Network: need at least one thread");
    if (K > N)
        sim::fatal("Network: more threads (%u) than nodes (%u)", K, N);

    unsigned domains = 1;
    for (const scenario::NodeSpec &n : spec.nodes)
        domains = std::max(domains, n.domain + 1);

    if (spec.spatial) {
        model = std::make_unique<net::SpatialModel>(*spec.spatial,
                                                    spec.positions());
    } else if (K > 1) {
        if (domains > 1) {
            sim::fatal("Network: multiple broadcast domains require "
                       "threads=1 (or the spatial model, which supports "
                       "any thread count)");
        }
        // A flat broadcast domain is the degenerate spatial model, so
        // the sharded kernel runs it on the same medium.
        model = std::make_unique<net::SpatialModel>(
            net::SpatialModel::fullMesh(N));
    }
    // The spatial medium runs on the relay fabric at every K; the K=1
    // scheduler path is a plain run, so nothing is lost.
    if (model)
        relay = std::make_unique<net::FrameRelay>(K, spec.bitRate);

    // Spatial scenarios with K > 1 partition by locality (recursive
    // coordinate bisection), so each shard owns a compact tile and
    // cross-shard radio traffic is confined to tile borders. Everything
    // else keeps the contiguous block partition.
    nodeByIndex.resize(N, nullptr);
    if (spec.spatial && K > 1) {
        shardOfNode = localityPartition(spec.positions(), K);
    } else {
        shardOfNode.assign(N, 0);
        for (unsigned s = 0; s < K; ++s) {
            for (unsigned i = s * N / K; i < (s + 1) * N / K; ++i)
                shardOfNode[i] = s;
        }
    }
    std::vector<std::vector<unsigned>> members(K);
    for (unsigned i = 0; i < N; ++i)
        members[shardOfNode[i]].push_back(i);

    shards.resize(K);
    for (unsigned s = 0; s < K; ++s) {
        Shard &shard = shards[s];
        shard.simulation = std::make_unique<sim::Simulation>();
        if (spec.telemetrySink)
            shard.simulation->setTelemetry(spec.telemetrySink(s));

        net::Medium *medium = nullptr;
        if (model) {
            shard.spatialMedium = std::make_unique<net::SpatialMedium>(
                *shard.simulation, "channel", *relay, s, *model);
            medium = shard.spatialMedium.get();
        } else {
            // One Channel per broadcast domain. The single-domain name
            // stays "channel" so existing stat layouts are unchanged.
            for (unsigned d = 0; d < domains; ++d) {
                shard.channels.push_back(std::make_unique<net::Channel>(
                    *shard.simulation,
                    domains == 1 ? "channel"
                                 : "channel" + std::to_string(d),
                    spec.bitRate, spec.channelSeed + d));
            }
        }

        // Nodes are constructed in ascending global index within their
        // shard and keep their global names, so the merged stat tree
        // matches the sequential kernel's.
        shard.nodes.reserve(members[s].size());
        shard.simulation->eventq().reserve(members[s].size() * 8 + 64);
        for (unsigned i : members[s]) {
            const scenario::NodeSpec &ns = spec.nodes[i];
            if (!shard.channels.empty())
                medium = shard.channels[ns.domain].get();
            shard.nodes.push_back(std::make_unique<SensorNode>(
                *shard.simulation, "node" + std::to_string(i), ns.config,
                medium));
            SensorNode *node = shard.nodes.back().get();
            nodeByIndex[i] = node;
            if (shard.spatialMedium)
                shard.spatialMedium->bind(&node->radio(), i);
            apps::install(*node, ns.buildApp());
            for (const MessageProcessor::Route &r : ns.routes)
                node->msgProc().preloadRoute(r.origin, r.nextHop);
            node->setReviveHook([this, i] { reviveNodeNow(i); });
            applyNodePlatformConfig(i);
        }
    }

    // Adaptive lookahead: shard pairs whose tiles can never interact
    // (bounding boxes further apart than the interference reach) are
    // severed outright — they neither wait on one another nor exchange
    // records. In the zero-propagation-delay radio model every coupled
    // pair keeps the global (min airtime) lookahead, and so does every
    // pair of the full mesh.
    if (spec.spatial && K > 1) {
        struct Box
        {
            double min_x, max_x, min_y, max_y;
        };
        std::vector<Box> box(K);
        for (unsigned s = 0; s < K; ++s) {
            Box b{1e300, -1e300, 1e300, -1e300};
            for (unsigned i : members[s]) {
                const net::Position &p = model->position(i);
                b.min_x = std::min(b.min_x, p.x);
                b.max_x = std::max(b.max_x, p.x);
                b.min_y = std::min(b.min_y, p.y);
                b.max_y = std::max(b.max_y, p.y);
            }
            box[s] = b;
        }
        const double reach = model->interferenceRangeMeters();
        for (unsigned a = 0; a < K; ++a) {
            for (unsigned b = a + 1; b < K; ++b) {
                bool decoupled;
                if (reach <= 0.0) {
                    // Even co-located nodes are below the interference
                    // floor: nothing ever crosses any shard boundary.
                    decoupled = true;
                } else {
                    const double dx = std::max(
                        {0.0, box[a].min_x - box[b].max_x,
                         box[b].min_x - box[a].max_x});
                    const double dy = std::max(
                        {0.0, box[a].min_y - box[b].max_y,
                         box[b].min_y - box[a].max_y});
                    // Inflate the reach a hair so floating-point rounding
                    // in the closed-form inverse can never sever a pair
                    // the exact predicate still accepts.
                    decoupled = std::hypot(dx, dy) >
                                reach * (1.0 + 1e-9) + 1e-9;
                }
                if (decoupled) {
                    relay->setPairLookahead(a, b, sim::maxTick);
                    relay->setPairLookahead(b, a, sim::maxTick);
                }
            }
        }
    }
}

Network::~Network() = default;

net::Channel *
Network::broadcastChannel(unsigned domain)
{
    if (shards.empty() || domain >= shards[0].channels.size())
        return nullptr;
    return shards[0].channels[domain].get();
}

void
Network::runForSeconds(double seconds)
{
    runUntilTick(ran + sim::secondsToTicks(seconds));
}

void
Network::runUntilTick(sim::Tick end)
{
    if (end < ran)
        sim::fatal("Network: runUntilTick(%llu) is in the past (ran %llu)",
                   (unsigned long long)end, (unsigned long long)ran);
    if (!relay) {
        shards[0].simulation->runUntil(end);
    } else {
        sim::ParallelScheduler scheduler(relay->lookahead());
        for (Shard &shard : shards)
            scheduler.addShard(shard.simulation->eventq(),
                               shard.spatialMedium.get());
        // Mirror the relay's pair topology into the scheduler: severed
        // pairs free-run past one another, the rest keep the default.
        for (unsigned a = 0; a < relay->numShards(); ++a) {
            for (unsigned b = 0; b < relay->numShards(); ++b) {
                if (a == b)
                    continue;
                const sim::Tick look = relay->pairLookahead(a, b);
                if (look != relay->lookahead())
                    scheduler.setPairLookahead(a, b, look);
            }
        }
        scheduler.run(end);
    }
    ran = end;
}

void
Network::powerOffNodeNow(unsigned node)
{
    nodeByIndex[node]->supplyDown();
}

void
Network::reviveNodeNow(unsigned node)
{
    SensorNode *n = nodeByIndex[node];
    if (n->alive())
        return;
    // A revived node must come back on the shard that built it: its
    // events, stats group and transmit counters live in that shard's
    // Simulation, and the partition (hence the sync topology) was
    // derived from it. A mid-run reshard would silently corrupt all
    // three, so treat any disagreement as fatal.
    const unsigned s = shardOfNode[node];
    if (&n->simulation() != shards[s].simulation.get())
        sim::panic("Network: node %u revived on a foreign shard", node);
    n->supplyUp();
    if (shards[s].spatialMedium)
        shards[s].spatialMedium->bind(&n->radio(), node);
    applyNodePlatformConfig(node);
    // Reinstall the factory image (SRAM did not survive) and boot. The
    // route CAM is intentionally left empty: repair re-teaches it.
    apps::install(*n, builtSpec.nodes[node].buildApp());
}

void
Network::wakeNodeFromDeepSleep(unsigned node)
{
    SensorNode *n = nodeByIndex[node];
    if (!n->inDeepSleep())
        return;
    const unsigned s = shardOfNode[node];
    if (&n->simulation() != shards[s].simulation.get())
        sim::panic("Network: node %u woken on a foreign shard", node);
    n->deepSleepWake();
    if (shards[s].spatialMedium)
        shards[s].spatialMedium->bind(&n->radio(), node);
    applyNodePlatformConfig(node);
    apps::install(*n, builtSpec.nodes[node].buildApp());
    // A scheduled wake knows its topology: restore the spec's preload
    // (deep sleep wiped the CAM along with the rest of the SRAM domain).
    for (const MessageProcessor::Route &r : builtSpec.nodes[node].routes)
        n->msgProc().preloadRoute(r.origin, r.nextHop);
}

void
Network::applyNodePlatformConfig(unsigned node)
{
    const scenario::NodeSpec &ns = builtSpec.nodes[node];
    // Event-fabric links first: they are retention state (wiped with the
    // CAMs on supply loss), so every build/revive/wake path re-arms them.
    if (!ns.links.empty()) {
        nodeByIndex[node]->fabric().configure(ns.links,
                                              ns.params.threshold);
    }
    if (builtSpec.mac.mode != sleep::MacMode::Beacon)
        return;
    RadioDevice &radio = nodeByIndex[node]->radio();
    const std::uint16_t addr = ns.config.address;
    radio.busWrite(map::radioBeaconOrder,
                   static_cast<std::uint8_t>(builtSpec.mac.beaconOrder));
    radio.busWrite(map::radioSfOrder,
                   static_cast<std::uint8_t>(builtSpec.mac.sfOrder));
    radio.busWrite(map::radioAddrHi, static_cast<std::uint8_t>(addr >> 8));
    radio.busWrite(map::radioAddrLo, static_cast<std::uint8_t>(addr));
    radio.busWrite(map::radioGuard,
                   static_cast<std::uint8_t>(
                       std::min(builtSpec.mac.guardSymbols, 255u)));
    radio.setBeaconDriftPpm(builtSpec.mac.driftPpm);
    // Mode last: a coordinator starts its beacon grid on the mode write,
    // so every other register must already hold its value.
    radio.busWrite(map::radioMacMode,
                   ns.macCoordinator ? RadioDevice::macModeBeaconCoord
                                     : RadioDevice::macModeBeaconDevice);
}

void
Network::scheduleNodePowerOff(unsigned node, sim::Tick when)
{
    auto event = std::make_unique<sim::EventFunctionWrapper>(
        [this, node] { powerOffNodeNow(node); },
        "node" + std::to_string(node) + ".lifecycle.fail");
    shards[shardOfNode[node]].simulation->eventq().schedule(event.get(),
                                                            when);
    lifecycleEvents.push_back(std::move(event));
}

void
Network::scheduleNodeRevive(unsigned node, sim::Tick when)
{
    auto event = std::make_unique<sim::EventFunctionWrapper>(
        [this, node] { reviveNodeNow(node); },
        "node" + std::to_string(node) + ".lifecycle.revive");
    shards[shardOfNode[node]].simulation->eventq().schedule(event.get(),
                                                            when);
    lifecycleEvents.push_back(std::move(event));
}

Network::Counters
Network::counters() const
{
    Counters c;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const Shard &shard = shards[s];
        // dumpStats folds every shard's channel stats into shard 0;
        // after that, the other shards' copies would double-count.
        const bool countChannel = !statsMerged || s == 0;
        c.eventsProcessed += shard.simulation->eventq().numProcessed();
        if (const sim::TelemetrySink *sink = shard.simulation->telemetry())
            c.eventsProcessed -= sink->samplerEvents();
        if (shard.spatialMedium) {
            c.eventsProcessed -= shard.spatialMedium->auxiliaryEvents();
            if (countChannel) {
                c.framesDelivered += shard.spatialMedium->framesDelivered();
                c.collisions += shard.spatialMedium->collisions();
            }
        } else {
            for (const auto &channel : shard.channels) {
                c.framesDelivered += channel->framesDelivered();
                c.collisions += channel->collisions();
            }
        }
        for (const auto &node : shard.nodes) {
            c.framesSent += node->radio().framesSent();
            c.epIsrs += node->ep().isrsExecuted();
            c.mcuWakeups += node->micro().wakeups();
            c.fabricLinked += node->fabric().linkedDelivered();
            c.fabricDrops += node->fabric().sinkBusyDrops();
        }
    }
    c.endTick = shards[0].simulation->curTick();
    return c;
}

void
Network::dumpStats(std::ostream &os)
{
    if (shards.size() == 1) {
        shards[0].simulation->dumpStats(os);
        return;
    }
    // Fold every shard's channel stats into shard 0's (once), then print
    // in the sequential layout: channel first, nodes in index order.
    if (!statsMerged) {
        for (std::size_t s = 1; s < shards.size(); ++s)
            shards[0].spatialMedium->mergeFrom(*shards[s].spatialMedium);
        statsMerged = true;
    }
    sim::stats::Dump out(os);
    out.group(*shards[0].spatialMedium);
    for (SensorNode *node : nodeByIndex)
        out.group(*node);
}

} // namespace ulp::core
