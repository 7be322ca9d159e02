/**
 * @file
 * Spatial radio medium: the shard-local net::Medium of the parallel
 * kernel. Where net::Channel models flat broadcast domains on the
 * single-threaded kernel, SpatialMedium consults a shared
 * net::SpatialModel for every per-receiver question — who decodes this
 * transmission, at what loss probability, and whose concurrent
 * transmissions corrupt it. A positioned scenario supplies its
 * log-distance model; a flat broadcast run at K>1 supplies
 * SpatialModel::fullMesh(), where everyone hears and interferes with
 * everyone, so there is one sharded medium for both radio models.
 *
 * It couples shards through the relay machinery (net::FrameRelay
 * mailboxes, sim::ShardCoupling sync protocol), and resolves
 * collision/corruption lazily at delivery time as pure functions of the
 * transmission-interval multiset, so K-shard runs produce statistics
 * bit-identical to sequential ones. A spatial scenario uses it for
 * *every* thread count, including K=1 (the ParallelScheduler's
 * single-shard path is a plain runUntil), so there is exactly one
 * spatial implementation to keep K-invariant.
 *
 * The K-invariant flight identity is (srcNode, srcTxSeq): a global node
 * index plus a per-source transmit counter kept here (a node lives on
 * exactly one shard, so the counter is deterministic). It keys the
 * canonical apply order, same-start collision tie-breaks, and the
 * counter-based per-link loss draws (SpatialModel::linkDelivers) — none
 * of which depend on global event interleaving.
 *
 * Per-receiver rules, for a flight f delivered at receiver r:
 *  - r hears f at all only when connected(f.src, r) — out-of-range
 *    receivers never see the frame and no statistic is charged;
 *  - f is corrupted at r iff some other flight g strictly overlaps f
 *    and either interferes(g.src, r) or g.src == r (half-duplex: a
 *    node transmitting cannot cleanly receive);
 *  - otherwise the link's loss draw decides delivered vs lost.
 * The transmit-side collision counter charges f iff a concurrently
 * audible transmission interferes *at the transmitter* (matching the
 * sequential Channel's transmit-time increment, restricted to flights
 * the transmitter can actually hear).
 *
 * Statistics carry the same names, descriptions and declaration order as
 * net::Channel so per-shard groups merge into byte-identical reports.
 *
 * Carrier sense for remote transmissions is applied at sync points —
 * deterministic for a fixed shard count but approximate across shard
 * counts; scenarios that need the K=1/2/4 identity gate must keep the
 * CSMA MAC off (macRetries = 0).
 */

#ifndef ULP_NET_SPATIAL_MEDIUM_HH
#define ULP_NET_SPATIAL_MEDIUM_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "net/medium.hh"
#include "net/pool.hh"
#include "net/relay.hh"
#include "net/spatial.hh"
#include "sim/parallel.hh"
#include "sim/sim_object.hh"

namespace ulp::net {

class SpatialMedium : public sim::SimObject,
                      public Medium,
                      public sim::ShardCoupling
{
  public:
    /**
     * @param relay  shared mailbox fabric (also defines the bit rate)
     * @param shard  this medium's shard index
     * @param model  shared, const spatial model (outlives the medium)
     */
    SpatialMedium(sim::Simulation &simulation, const std::string &name,
                  FrameRelay &relay, unsigned shard,
                  const SpatialModel &model);
    ~SpatialMedium() override;

    /**
     * Associate an attached transceiver with its global node index.
     * RadioDevice self-attaches in its constructor (before the owning
     * Network knows the pointer), so binding is a separate, second step;
     * transmitting through an unbound transceiver is a fatal error.
     */
    void bind(Transceiver *transceiver, unsigned node);

    // --- net::Medium ------------------------------------------------------
    void attach(Transceiver *transceiver) override;
    void detach(Transceiver *transceiver) override;
    sim::Tick transmit(Transceiver *sender, const Frame &frame) override;
    sim::Tick frameAirTicks(const Frame &frame) const override;

    // --- sim::ShardCoupling ----------------------------------------------
    sim::Tick nextSyncTick() const override;
    void publishOutbound() override;
    void applyInbound(sim::Tick up_to) override;
    void syncDone(sim::Tick tick) override;
    void finalize(sim::Tick end) override;

    std::uint64_t framesSent() const
    {
        return static_cast<std::uint64_t>(statFramesSent.value());
    }
    std::uint64_t framesDelivered() const
    {
        return static_cast<std::uint64_t>(statFramesDelivered.value());
    }
    std::uint64_t collisions() const
    {
        return static_cast<std::uint64_t>(statCollisions.value());
    }

    /**
     * Delivery events processed for *remote* flights. The sequential
     * kernel delivers each frame with a single event; a K-shard run uses
     * one per coupled shard. Subtracting this from the summed
     * EventQueue::numProcessed() recovers the logical event count.
     */
    std::uint64_t auxiliaryEvents() const { return auxEvents; }

  private:
    /** A transmission interval retained for overlap queries. */
    struct Flight
    {
        sim::Tick start;
        sim::Tick end;
        std::uint32_t srcNode;
        std::uint64_t srcTxSeq;
    };

    /**
     * A pending delivery (local or relayed): an intrusive queue event
     * allocated from the medium's pool, so the per-frame hot path makes
     * no heap allocation and no std::function indirection.
     */
    struct Delivery : public sim::Event
    {
        Delivery(SpatialMedium &owner, FlightRecord rec, bool local)
            : owner(owner), rec(std::move(rec)), local(local)
        {}

        void process() override { owner.deliver(*this); }
        std::string
        description() const override
        {
            return owner.name() + (local ? ".frameEnd" : ".remoteFrameEnd");
        }

        SpatialMedium &owner;
        FlightRecord rec;
        bool local;
        bool counted = false; ///< collision stat already settled
    };

    /** Transmit-time collision verdict for @p rec (at its transmitter). */
    bool collidesAtStart(const FlightRecord &rec) const;

    void applyRecord(const FlightRecord &record);
    void deliver(Delivery &delivery);
    void scheduleDelivery(Delivery *delivery, bool cross_shard);
    void senseFrameStart(const FlightRecord &record);

    FrameRelay &relay;
    unsigned shard;
    const SpatialModel &model;
    std::uint64_t nextLocalSeq = 0;
    std::uint64_t auxEvents = 0;
    sim::Tick maxAirTicks;

    /** Attached but not yet bound transceivers. */
    std::vector<Transceiver *> unbound;
    /** Bound transceivers by global node index (null: not on this shard). */
    std::vector<Transceiver *> byNode;
    std::unordered_map<Transceiver *, unsigned> nodeOf;
    /** Per-source transmit counters (only this shard's entries advance). */
    std::vector<std::uint64_t> txSeq;

    std::vector<Flight> window;
    ObjectPool<Delivery> deliveryPool;
    std::vector<Delivery *> deliveries;
    /** Records transmitted since the last publishOutbound() flush. */
    std::vector<FlightRecord> outbox;
    /** Delivery ticks that still need a pre-delivery sync. */
    std::multiset<sim::Tick> pendingSyncs;
    /** Per-source records drained but not yet applicable (start >= upTo). */
    std::vector<std::deque<FlightRecord>> staged;

    sim::stats::Scalar statFramesSent;
    sim::stats::Scalar statFramesDelivered;
    sim::stats::Scalar statFramesLost;
    sim::stats::Scalar statFramesCorrupted;
    sim::stats::Scalar statCollisions;
    sim::stats::Scalar statGeBadFrames;
};

} // namespace ulp::net

#endif // ULP_NET_SPATIAL_MEDIUM_HH
