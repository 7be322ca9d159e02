#include "net/channel.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace ulp::net {

Channel::Channel(sim::Simulation &simulation, const std::string &name,
                 double bit_rate, std::uint64_t seed)
    : sim::SimObject(simulation, name),
      bitRate(bit_rate), random(seed),
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
    if (bit_rate <= 0.0)
        sim::fatal("channel bit rate must be positive");
}

void
Channel::attach(Transceiver *transceiver)
{
    if (std::find(transceivers.begin(), transceivers.end(), transceiver) !=
        transceivers.end()) {
        sim::panic("%s: transceiver attached twice", name().c_str());
    }
    transceivers.push_back(transceiver);
}

void
Channel::detach(Transceiver *transceiver)
{
    // Swap-remove: detach is O(1) and never shifts the tail. Receiver
    // order past the detach point changes, which only affects the order
    // of same-frame deliveries — never which frames are delivered.
    auto it = std::find(transceivers.begin(), transceivers.end(),
                        transceiver);
    if (it == transceivers.end())
        return;
    *it = transceivers.back();
    transceivers.pop_back();
}

void
Channel::setGilbertElliott(const GilbertElliott &model)
{
    if (model.pGoodToBad < 0.0 || model.pGoodToBad > 1.0 ||
        model.pBadToGood < 0.0 || model.pBadToGood > 1.0 ||
        model.lossGood < 0.0 || model.lossGood > 1.0 ||
        model.lossBad < 0.0 || model.lossBad > 1.0) {
        sim::fatal("Gilbert-Elliott parameters must be probabilities");
    }
    ge = model;
    geEnabled = true;
    geBad = false;
}

double
Channel::currentLossProbability()
{
    if (!geEnabled)
        return lossProbability;
    // One Markov step per frame: dwell times are geometric, so loss
    // arrives in bursts whose mean length is 1 / pBadToGood frames.
    if (geBad) {
        if (random.chance(ge.pBadToGood))
            geBad = false;
    } else {
        if (random.chance(ge.pGoodToBad))
            geBad = true;
    }
    if (geBad)
        ++statGeBadFrames;
    return geBad ? ge.lossBad : ge.lossGood;
}

sim::Tick
Channel::frameAirTicks(const Frame &frame) const
{
    double seconds = static_cast<double>(frame.sizeBytes()) * 8.0 / bitRate;
    return sim::secondsToTicks(seconds);
}

sim::Tick
Channel::transmit(Transceiver *sender, const Frame &frame)
{
    sim::Tick end = curTick() + frameAirTicks(frame);

    auto flight = std::make_unique<InFlight>();
    flight->sender = sender;
    flight->frame = frame;
    flight->corrupted = false;

    if (collisionsEnabled && activeTransmissions > 0) {
        ++statCollisions;
        flight->corrupted = true;
        for (auto &other : inFlight)
            other->corrupted = true;
    }

    InFlight *raw = flight.get();
    flight->endEvent = std::make_unique<sim::EventFunctionWrapper>(
        [this, raw] { deliver(*raw); }, name() + ".frameEnd");
    eventq().schedule(flight->endEvent.get(), end);

    ++activeTransmissions;
    ++statFramesSent;
    inFlight.push_back(std::move(flight));

    for (Transceiver *t : transceivers) {
        if (t != sender)
            t->frameStarted(end);
    }

    return end;
}

void
Channel::deliver(InFlight &flight)
{
    // Retire the transmission before running any receiver callback: a
    // callback may start a new transmission (an ACK, a forwarded frame)
    // and must see the medium without the frame that just ended, or it
    // would collide with it retroactively.
    auto it = std::find_if(inFlight.begin(), inFlight.end(),
                           [&](const auto &p) { return p.get() == &flight; });
    std::unique_ptr<InFlight> owned;
    if (it != inFlight.end()) {
        owned = std::move(*it);
        inFlight.erase(it);
    }
    --activeTransmissions;

    double loss = currentLossProbability();

    // Snapshot the receiver list: frameArrived may attach or detach
    // transceivers (node teardown, test scaffolding) while we iterate.
    // A receiver detached by an earlier callback is skipped.
    std::vector<Transceiver *> receivers = transceivers;
    for (Transceiver *t : receivers) {
        if (t == owned->sender)
            continue;
        if (std::find(transceivers.begin(), transceivers.end(), t) ==
            transceivers.end())
            continue;
        bool corrupted = owned->corrupted;
        if (!corrupted && loss > 0.0 && random.chance(loss)) {
            ++statFramesLost;
            continue;
        }
        if (corrupted)
            ++statFramesCorrupted;
        else
            ++statFramesDelivered;
        t->frameArrived(owned->frame, corrupted);
    }
}

} // namespace ulp::net
