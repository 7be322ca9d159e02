/**
 * @file
 * N sensor nodes on a shared radio medium, runnable on either simulation
 * kernel: the single-threaded kernel (one Simulation) or the sharded
 * parallel kernel (K Simulations coupled by a net::FrameRelay under
 * sim::ParallelScheduler).
 *
 * The medium comes in two flavors, chosen by the spec:
 *
 *  - broadcast (default): one flat domain — net::Channel at threads = 1,
 *    and at K > 1 net::SpatialMedium per shard over a private
 *    net::SpatialModel::fullMesh() (everyone hears and interferes with
 *    everyone). Multiple independent broadcast domains
 *    (NodeSpec::domain) are supported sequentially, one net::Channel
 *    per domain.
 *  - spatial (NetworkSpec::spatial set): net::SpatialMedium over the
 *    node positions, for *every* thread count — the K=1 scheduler path
 *    degenerates to a plain run, so one implementation serves both and
 *    stays K-invariant by construction.
 *
 * The two kernels are required to produce identical statistics for the
 * same configuration — `threads=1` *is* the regression oracle for
 * `threads=K` — so this class is also where the per-shard stat trees are
 * merged back into the exact report the sequential kernel prints.
 *
 * The constructor takes a lowered scenario::NetworkSpec — the single
 * configuration path (the legacy per-node-lambda Config shim is gone;
 * build a spec with scenario::NetworkSpec/NodeSpec directly).
 *
 * Parallel-mode restrictions on the broadcast model: no channel loss
 * model and no Gilbert-Elliott bursts (see net/relay.hh for why;
 * campaign::wireScenarioRun rejects `[radio] loss` at K > 1) and a
 * single broadcast domain (enforced here). Every run needs at least one
 * node per shard.
 */

#ifndef ULP_CORE_NETWORK_HH
#define ULP_CORE_NETWORK_HH

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "core/apps.hh"
#include "core/sensor_node.hh"
#include "net/channel.hh"
#include "net/relay.hh"
#include "net/spatial_medium.hh"
#include "scenario/spec.hh"
#include "sim/simulation.hh"

namespace ulp::core {

class Network
{
  public:
    /** The headline counters both kernels must agree on. */
    struct Counters
    {
        /** Logical events: the parallel kernel's auxiliary cross-shard
         *  delivery copies and the telemetry energy samplers' fires are
         *  subtracted out, so the count is the same at every K and with
         *  tracing on or off. */
        std::uint64_t eventsProcessed = 0;
        std::uint64_t framesSent = 0;
        std::uint64_t framesDelivered = 0;
        std::uint64_t collisions = 0;
        std::uint64_t epIsrs = 0;
        std::uint64_t mcuWakeups = 0;
        /** Events the fabric serviced over links (EP never woke). */
        std::uint64_t fabricLinked = 0;
        /** Linked events dropped at a busy sink (§4.2.4 overload). */
        std::uint64_t fabricDrops = 0;
        sim::Tick endTick = 0;

        bool operator==(const Counters &) const = default;
    };

    explicit Network(const scenario::NetworkSpec &spec);
    ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    unsigned numNodes() const { return static_cast<unsigned>(nodeByIndex.size()); }
    unsigned threads() const { return static_cast<unsigned>(shards.size()); }

    SensorNode &node(unsigned index) { return *nodeByIndex[index]; }

    /** Shard simulations, e.g. for attaching telemetry energy samplers. */
    sim::Simulation &shardSimulation(unsigned shard)
    {
        return *shards[shard].simulation;
    }

    /** The shard a node's simulation lives on. */
    unsigned shardOf(unsigned node) const { return shardOfNode[node]; }

    /**
     * The sequential broadcast channel of @p domain (fault injection,
     * loss models); null under the spatial model or the parallel kernel.
     */
    net::Channel *broadcastChannel(unsigned domain = 0);

    /** The spatial model the network runs over; null in broadcast mode
     *  (also at K > 1, where the full-mesh model is private). */
    const net::SpatialModel *
    spatialModel() const
    {
        return builtSpec.spatial ? model.get() : nullptr;
    }

    /** Run all shards for @p seconds of simulated time. */
    void runForSeconds(double seconds);

    /**
     * Run all shards up to the absolute tick @p end (>= the ticks already
     * run). Segmented runs are how the resilience layer gets control
     * points: between segments every shard sits at the same tick and the
     * media have finalized in-flight state, so topology inspection and
     * route recomputation are race-free.
     */
    void runUntilTick(sim::Tick end);

    /** Total ticks simulated so far. */
    sim::Tick ranUntil() const { return ran; }

    // --- node lifecycle (survivable mesh) ---------------------------------
    /**
     * Full supply loss for @p node, now. Shard-local: call it only from
     * an event on the node's own shard or between run segments. Frames
     * the node already put on the air complete (see
     * RadioDevice::detachFromMedium); everything else stops.
     */
    void powerOffNodeNow(unsigned node);

    /**
     * Full revive for @p node, now: supply up, radio re-attached (and
     * re-bound under the spatial model), application image reinstalled
     * and booted. The route CAM stays empty — full supply loss wiped it,
     * and only a repair round (or a fresh preload) re-teaches routes —
     * so an un-repaired revived relay swallows its children's traffic.
     * Shard-local, like powerOffNodeNow().
     */
    void reviveNodeNow(unsigned node);

    /** Pre-schedule a lifecycle event on the node's own shard queue (the
     *  exact-tick, K-invariant path used by [lifecycle] schedules). */
    void scheduleNodePowerOff(unsigned node, sim::Tick when);
    void scheduleNodeRevive(unsigned node, sim::Tick when);

    /**
     * Wake @p node from deep sleep (SensorNode::deepSleepEnter), now.
     * Shard-local like reviveNodeNow. Unlike a revive, this is a
     * *scheduled* wake with known topology: the radio is re-bound, the
     * MAC registers are reprogrammed, the application image is
     * reinstalled, and the spec's routing-CAM preload is restored (a
     * revived crash victim instead waits for repair to re-teach routes).
     */
    void wakeNodeFromDeepSleep(unsigned node);

    /** The spec the network was built from (route repair re-derives
     *  addresses and applications from it). */
    const scenario::NetworkSpec &spec() const { return builtSpec; }

    Counters counters() const;

    /**
     * Print the full statistics tree in the sequential kernel's layout:
     * merged channel stats first, then every node in global index order.
     * Byte-identical across thread counts for oracle workloads.
     */
    void dumpStats(std::ostream &os);

  private:
    struct Shard
    {
        std::unique_ptr<sim::Simulation> simulation;
        /** Broadcast media, threads == 1 (one Channel per domain). */
        std::vector<std::unique_ptr<net::Channel>> channels;
        /** The relay-coupled medium: spatial at any K, broadcast at K > 1. */
        std::unique_ptr<net::SpatialMedium> spatialMedium;
        std::vector<std::unique_ptr<SensorNode>> nodes;
    };

    void build(const scenario::NetworkSpec &spec);

    /** Program the node's platform registers the scenario owns (beacon
     *  MAC mode, orders, address, guard, drift). Idempotent; re-run on
     *  revive and deep-sleep wake since gating wipes transaction state. */
    void applyNodePlatformConfig(unsigned node);

    /** The scenario's spatial model, or the full mesh of a K > 1
     *  broadcast run; null for a sequential broadcast run. */
    std::unique_ptr<net::SpatialModel> model;
    std::unique_ptr<net::FrameRelay> relay;
    std::vector<Shard> shards;
    std::vector<SensorNode *> nodeByIndex;
    std::vector<unsigned> shardOfNode;
    scenario::NetworkSpec builtSpec; ///< kept for lifecycle reinstalls
    std::vector<std::unique_ptr<sim::EventFunctionWrapper>> lifecycleEvents;
    sim::Tick ran = 0;        ///< total ticks simulated so far
    bool statsMerged = false; ///< channel stats folded into shard 0
};

} // namespace ulp::core

#endif // ULP_CORE_NETWORK_HH
