#include "net/relay.hh"

#include "sim/logging.hh"

namespace ulp::net {

FrameRelay::FrameRelay(unsigned num_shards, double bit_rate)
    : shards(num_shards), _bitRate(bit_rate)
{
    if (num_shards == 0)
        sim::panic("FrameRelay: need at least one shard");
    if (bit_rate <= 0.0)
        sim::fatal("channel bit rate must be positive");
    boxes.reserve(static_cast<std::size_t>(shards) * shards);
    for (unsigned i = 0; i < shards * shards; ++i)
        boxes.push_back(std::make_unique<FlightMailbox>());
    pairLook.assign(static_cast<std::size_t>(shards) * shards, lookahead());
    rebuildPeers();
}

void
FrameRelay::setPairLookahead(unsigned from, unsigned to, sim::Tick ticks)
{
    if (from >= shards || to >= shards)
        sim::panic("FrameRelay: pair lookahead for unknown shard");
    if (from == to)
        sim::panic("FrameRelay: pair lookahead must name two shards");
    if (ticks == 0)
        sim::panic("FrameRelay: pair lookahead must be positive");
    pairLook[from * shards + to] = ticks;
    rebuildPeers();
}

void
FrameRelay::rebuildPeers()
{
    inbound.assign(shards, {});
    outbound.assign(shards, {});
    for (unsigned from = 0; from < shards; ++from) {
        for (unsigned to = 0; to < shards; ++to) {
            if (from == to || !coupled(from, to))
                continue;
            outbound[from].push_back(to);
            inbound[to].push_back(from);
        }
    }
}

sim::Tick
FrameRelay::lookahead() const
{
    return sim::secondsToTicks(
        static_cast<double>(Frame::overheadBytes) * 8.0 / _bitRate);
}

} // namespace ulp::net
