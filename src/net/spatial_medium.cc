#include "net/spatial_medium.hh"

#include <algorithm>
#include <tuple>

#include "sim/logging.hh"

namespace ulp::net {

SpatialMedium::SpatialMedium(sim::Simulation &simulation,
                             const std::string &name, FrameRelay &relay,
                             unsigned shard, const SpatialModel &model)
    : sim::SimObject(simulation, name), relay(relay), shard(shard),
      model(model),
      maxAirTicks(sim::secondsToTicks(
          static_cast<double>(Frame::maxFrameBytes) * 8.0 /
          relay.bitRate())),
      byNode(model.numNodes(), nullptr),
      txSeq(model.numNodes(), 0),
      staged(relay.numShards()),
      statFramesSent(this, "framesSent", "frames put on the air"),
      statFramesDelivered(this, "framesDelivered",
                          "frame deliveries to receivers (intact)"),
      statFramesLost(this, "framesLost",
                     "per-receiver deliveries dropped by the loss model"),
      statFramesCorrupted(this, "framesCorrupted",
                          "per-receiver deliveries corrupted by collision"),
      statCollisions(this, "collisions",
                     "transmissions that overlapped another"),
      statGeBadFrames(this, "geBadFrames",
                      "frames delivered while the Gilbert-Elliott chain "
                      "was in the Bad state")
{
    if (shard >= relay.numShards())
        sim::panic("%s: shard %u out of range", this->name().c_str(), shard);
}

SpatialMedium::~SpatialMedium() = default;

void
SpatialMedium::attach(Transceiver *transceiver)
{
    if (nodeOf.count(transceiver) ||
        std::find(unbound.begin(), unbound.end(), transceiver) !=
            unbound.end()) {
        sim::panic("%s: transceiver attached twice", name().c_str());
    }
    unbound.push_back(transceiver);
}

void
SpatialMedium::bind(Transceiver *transceiver, unsigned node)
{
    auto it = std::find(unbound.begin(), unbound.end(), transceiver);
    if (it == unbound.end())
        sim::panic("%s: binding a transceiver that is not attached",
                   name().c_str());
    if (node >= model.numNodes())
        sim::panic("%s: node index %u outside the spatial model",
                   name().c_str(), node);
    if (byNode[node])
        sim::panic("%s: node %u bound twice", name().c_str(), node);
    unbound.erase(it);
    byNode[node] = transceiver;
    nodeOf[transceiver] = node;
}

void
SpatialMedium::detach(Transceiver *transceiver)
{
    auto it = nodeOf.find(transceiver);
    if (it != nodeOf.end()) {
        byNode[it->second] = nullptr;
        nodeOf.erase(it);
        return;
    }
    auto uit = std::find(unbound.begin(), unbound.end(), transceiver);
    if (uit != unbound.end())
        unbound.erase(uit);
}

sim::Tick
SpatialMedium::frameAirTicks(const Frame &frame) const
{
    double seconds =
        static_cast<double>(frame.sizeBytes()) * 8.0 / relay.bitRate();
    return sim::secondsToTicks(seconds);
}

void
SpatialMedium::scheduleDelivery(Delivery *delivery, bool cross_shard)
{
    if (cross_shard) {
        eventq().scheduleCrossShard(delivery, delivery->rec.end,
                                    delivery->rec.start);
    } else {
        eventq().schedule(delivery, delivery->rec.end);
    }
    // A delivery only needs a pre-resolution sync when some peer's
    // transmissions can actually reach this shard; at K=1 (or for a
    // spatially isolated shard) the pending set stays empty.
    if (!relay.inboundPeers(shard).empty())
        pendingSyncs.insert(delivery->rec.end);
    deliveries.push_back(delivery);
}

void
SpatialMedium::senseFrameStart(const FlightRecord &record)
{
    // Start-symbol detect reaches exactly the interference range; the
    // transmitter itself never carrier-senses its own frame.
    for (unsigned node : model.interferers(record.srcNode)) {
        if (Transceiver *t = byNode[node])
            t->frameStarted(record.end);
    }
}

sim::Tick
SpatialMedium::transmit(Transceiver *sender, const Frame &frame)
{
    auto it = nodeOf.find(sender);
    if (it == nodeOf.end())
        sim::panic("%s: transmit from an unbound transceiver",
                   name().c_str());
    const unsigned src = it->second;

    const sim::Tick start = curTick();
    const sim::Tick end = start + frameAirTicks(frame);

    FlightRecord record{start, end,          nextLocalSeq++,
                        src,   txSeq[src]++, frame};

    // Buffer for the coupled peers; the scheduler flushes the outbox
    // before every safe-tick publication, so the records are always
    // visible before any peer may rely on them.
    if (!relay.outboundPeers(shard).empty())
        outbox.push_back(record);

    window.push_back(
        {record.start, record.end, record.srcNode, record.srcTxSeq});

    Delivery *delivery =
        deliveryPool.acquire(*this, std::move(record), /*local=*/true);
    scheduleDelivery(delivery, /*cross_shard=*/false);

    ++statFramesSent;
    senseFrameStart(delivery->rec);
    return end;
}

void
SpatialMedium::publishOutbound()
{
    if (outbox.empty())
        return;
    for (unsigned to : relay.outboundPeers(shard)) {
        for (const FlightRecord &record : outbox) {
            if (!relay.mailbox(shard, to).push(record)) {
                sim::panic("%s: mailbox to shard %u overflowed "
                           "(raise FlightMailbox::capacity)",
                           name().c_str(), to);
            }
        }
    }
    outbox.clear();
}

sim::Tick
SpatialMedium::nextSyncTick() const
{
    return pendingSyncs.empty() ? sim::maxTick : *pendingSyncs.begin();
}

void
SpatialMedium::syncDone(sim::Tick tick)
{
    pendingSyncs.erase(tick);
}

void
SpatialMedium::applyRecord(const FlightRecord &record)
{
    window.push_back(
        {record.start, record.end, record.srcNode, record.srcTxSeq});

    Delivery *delivery = deliveryPool.acquire(*this, record, /*local=*/false);
    scheduleDelivery(delivery, /*cross_shard=*/true);

    // Carrier sense for remote transmissions, applied at the sync point
    // (see the file comment for the cross-K approximation).
    senseFrameStart(record);
}

void
SpatialMedium::applyInbound(sim::Tick up_to)
{
    for (unsigned from : relay.inboundPeers(shard)) {
        relay.mailbox(from, shard).drain(
            [&](const FlightRecord &rec) { staged[from].push_back(rec); });
    }

    // Canonical total order (start, srcNode, srcTxSeq) via a k-way front
    // merge; each source's records arrive in nondecreasing start order.
    for (;;) {
        std::deque<FlightRecord> *best = nullptr;
        for (auto &queue : staged) {
            if (queue.empty() || queue.front().start >= up_to)
                continue;
            if (!best ||
                std::tie(queue.front().start, queue.front().srcNode,
                         queue.front().srcTxSeq) <
                    std::tie(best->front().start, best->front().srcNode,
                             best->front().srcTxSeq)) {
                best = &queue;
            }
        }
        if (!best)
            break;
        applyRecord(best->front());
        best->pop_front();
    }
}

bool
SpatialMedium::collidesAtStart(const FlightRecord &rec) const
{
    // The sequential Channel charges statCollisions at transmit time when
    // another flight is on the air; spatially, only flights the
    // transmitter can hear count. Same-start groups are broken by the
    // canonical (srcNode, srcTxSeq) order — order-independent either way.
    for (const Flight &g : window) {
        if (g.srcNode == rec.srcNode && g.srcTxSeq == rec.srcTxSeq)
            continue;
        if (!model.interferes(g.srcNode, rec.srcNode))
            continue;
        if (g.start < rec.start && g.end > rec.start)
            return true;
        if (g.start == rec.start &&
            std::tie(g.srcNode, g.srcTxSeq) <
                std::tie(rec.srcNode, rec.srcTxSeq)) {
            return true;
        }
    }
    return false;
}

void
SpatialMedium::finalize(sim::Tick end)
{
    // Pull in every peer record with start <= end (all published by now);
    // their deliveries land after `end` and would fire in a later run
    // segment.
    applyInbound(end + 1);

    // Settle the collision stat for local flights still on the air at the
    // horizon (their delivery event lies beyond the run). The interval
    // window is complete for every start <= end, so the verdict is final.
    for (Delivery *delivery : deliveries) {
        if (!delivery->local || delivery->counted)
            continue;
        delivery->counted = true;
        if (collidesAtStart(delivery->rec))
            ++statCollisions;
    }
}

void
SpatialMedium::deliver(Delivery &delivery)
{
    // Retire the Delivery first (mirrors Channel::deliver): receiver
    // callbacks may transmit, and must see the medium without it. The
    // pooled slot itself stays live until the end of this function.
    auto it = std::find(deliveries.begin(), deliveries.end(), &delivery);
    if (it != deliveries.end())
        deliveries.erase(it);

    const FlightRecord &rec = delivery.rec;

    if (delivery.local) {
        if (!delivery.counted && collidesAtStart(rec))
            ++statCollisions;
    } else {
        ++auxEvents;
    }

    // Sources of the flights that strictly overlap this one: the only
    // candidates to corrupt it anywhere. Flights a receiver's callback
    // starts below begin at rec.end, so they can never join this set.
    std::vector<std::uint32_t> overlapping;
    for (const Flight &g : window) {
        if (g.srcNode == rec.srcNode && g.srcTxSeq == rec.srcTxSeq)
            continue;
        if (g.start < rec.end && rec.start < g.end)
            overlapping.push_back(g.srcNode);
    }

    // Deliver to every in-range receiver that lives on this shard, in
    // neighbors() order. Each receiver gets its own corruption verdict:
    // an overlapping flight corrupts here only if the receiver can hear
    // it (or is itself its transmitter — half-duplex).
    for (unsigned r : model.neighbors(rec.srcNode)) {
        Transceiver *t = byNode[r];
        if (!t)
            continue;

        bool corrupted = false;
        for (std::uint32_t src : overlapping) {
            if (src == r || model.interferes(src, r)) {
                corrupted = true;
                break;
            }
        }

        if (!corrupted && !model.linkDelivers(rec.srcNode, r, rec.srcTxSeq)) {
            ++statFramesLost;
            continue;
        }

        // Re-check the binding before each callback: an earlier
        // receiver's reaction may have detached this one.
        if (byNode[r] != t)
            continue;
        if (corrupted)
            ++statFramesCorrupted;
        else
            ++statFramesDelivered;
        t->frameArrived(rec.frame, corrupted);
    }

    // Retire window intervals too old to overlap any pending or future
    // flight: everything still undelivered ends at or after curTick(),
    // hence starts after curTick() - maxAirTicks. (Retiring here rather
    // than in applyInbound covers the K=1 scheduler path, which never
    // calls it.)
    const sim::Tick now = curTick();
    if (now > maxAirTicks) {
        const sim::Tick horizon = now - maxAirTicks;
        std::erase_if(window,
                      [&](const Flight &f) { return f.end <= horizon; });
    }

    deliveryPool.release(&delivery);
}

} // namespace ulp::net
