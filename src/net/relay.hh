/**
 * @file
 * Cross-shard frame relay for the parallel simulation kernel.
 *
 * Under sim::ParallelScheduler every shard simulates its slice of the
 * network on a private EventQueue; the radio medium is the only coupling
 * between slices. Three pieces implement it:
 *
 *  - FlightRecord: one transmission as seen from outside its shard — the
 *    air interval [start, end), the K-invariant (srcNode, srcTxSeq)
 *    identity, and the frame bytes.
 *  - FlightMailbox: a lock-free single-producer single-consumer ring; one
 *    per ordered shard pair. The origin shard buffers records locally and
 *    flushes them in one batch immediately before each safe-tick
 *    publication (ShardCoupling::publishOutbound); the destination drains
 *    only at its deterministic sync points. Batching keeps the transmit
 *    hot path free of cross-shard cache traffic without weakening the
 *    safe-tick contract: the flush happens before the store that makes
 *    the records' interval claimable.
 *  - FrameRelay: the mailboxes of one network plus the shard-pair
 *    lookahead topology.
 *
 * The shard-local medium on top of the relay is net::SpatialMedium, for
 * every K>1 run: a spatial scenario's model, or SpatialModel::fullMesh()
 * for a flat broadcast domain. It resolves collision/corruption lazily,
 * at delivery time, from the full multiset of transmission intervals
 * (local + relayed), which is order-independent and so lets K shards
 * reproduce the single-queue kernel's statistics exactly.
 *
 * Restrictions relative to net::Channel: no i.i.d. loss model and no
 * Gilbert-Elliott bursts (both draw from the channel RNG in an
 * order-dependent way; the sequential kernel makes zero draws when they
 * are disabled, so disabled-vs-absent is exactly equivalent), and
 * collisions are always modelled. Carrier sense (frameStarted) for
 * remote transmissions is applied at sync points rather than at the
 * exact start tick; it is deterministic for a fixed shard count but an
 * approximation across shard counts — fine for the default applications,
 * which do not run the CSMA MAC.
 */

#ifndef ULP_NET_RELAY_HH
#define ULP_NET_RELAY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/channel.hh"
#include "net/frame.hh"
#include "sim/types.hh"

namespace ulp::net {

/** One transmission, published by its origin shard to every other. */
struct FlightRecord
{
    sim::Tick start = 0;       ///< first symbol on the air
    sim::Tick end = 0;         ///< last symbol off the air (delivery tick)
    std::uint64_t originSeq = 0; ///< per-origin-shard transmit counter
    /** Global index of the transmitting node (per-link geometry). */
    std::uint32_t srcNode = 0;
    /** Per-source-node transmit counter: the K-invariant flight identity
     *  (srcNode, srcTxSeq) that SpatialMedium keys its canonical order
     *  and per-link loss draws on. */
    std::uint64_t srcTxSeq = 0;
    Frame frame;
};

/**
 * Lock-free SPSC ring of FlightRecords. The producer is the origin
 * shard's worker thread (publishing at transmit time); the consumer is
 * the destination shard's worker thread (draining at sync points).
 * Capacity is sized for worst-case sync lag: the epoch barrier bounds
 * producer lead to under two epochs, and a node can start at most two
 * frames per epoch, so even a 64-node shard stays far below this.
 */
class FlightMailbox
{
  public:
    static constexpr std::size_t capacity = 1024;

    /** Producer side. @return false when the ring is full. */
    bool
    push(const FlightRecord &record)
    {
        const std::size_t t = _tail.load(std::memory_order_relaxed);
        if (t - _head.load(std::memory_order_acquire) == capacity)
            return false;
        slots[t % capacity] = record;
        _tail.store(t + 1, std::memory_order_release);
        return true;
    }

    /** Consumer side: pop everything currently visible into @p fn. */
    template <typename Fn>
    void
    drain(Fn &&fn)
    {
        std::size_t h = _head.load(std::memory_order_relaxed);
        const std::size_t t = _tail.load(std::memory_order_acquire);
        while (h != t) {
            fn(slots[h % capacity]);
            ++h;
        }
        _head.store(h, std::memory_order_release);
    }

  private:
    std::array<FlightRecord, capacity> slots;
    alignas(64) std::atomic<std::size_t> _head{0};
    alignas(64) std::atomic<std::size_t> _tail{0};
};

/**
 * The relay fabric of a sharded network: one mailbox per
 * ordered shard pair plus the common channel parameters and the pair
 * lookahead topology. Outlives the per-shard Simulations; owns no
 * SimObjects.
 */
class FrameRelay
{
  public:
    explicit FrameRelay(unsigned num_shards,
                        double bit_rate = Channel::defaultBitRate);

    unsigned numShards() const { return shards; }
    double bitRate() const { return _bitRate; }

    /**
     * The PDES lookahead: the airtime of the smallest possible frame
     * (header + FCS, no payload). No transmission can deliver sooner
     * than this after it starts.
     */
    sim::Tick lookahead() const;

    /**
     * Override the lookahead for one ordered shard pair. Defaults to
     * lookahead() for every pair; sim::maxTick severs the pair entirely —
     * the media then neither relay records nor sync across it. Set before
     * the run starts (the topology must match what the scheduler sees).
     */
    void setPairLookahead(unsigned from, unsigned to, sim::Tick ticks);

    sim::Tick
    pairLookahead(unsigned from, unsigned to) const
    {
        return pairLook[from * shards + to];
    }

    /** Whether an action of @p from can ever affect @p to. */
    bool
    coupled(unsigned from, unsigned to) const
    {
        return pairLookahead(from, to) != sim::maxTick;
    }

    /** Shards whose transmissions can reach @p to (ascending). */
    const std::vector<unsigned> &
    inboundPeers(unsigned to) const
    {
        return inbound[to];
    }

    /** Shards that @p from's transmissions can reach (ascending). */
    const std::vector<unsigned> &
    outboundPeers(unsigned from) const
    {
        return outbound[from];
    }

    /** Mailbox carrying records from shard @p from to shard @p to. */
    FlightMailbox &
    mailbox(unsigned from, unsigned to)
    {
        return *boxes[from * shards + to];
    }

  private:
    void rebuildPeers();

    unsigned shards;
    double _bitRate;
    std::vector<std::unique_ptr<FlightMailbox>> boxes;
    /** Row-major [from][to] pair lookaheads; maxTick = decoupled. */
    std::vector<sim::Tick> pairLook;
    std::vector<std::vector<unsigned>> inbound;
    std::vector<std::vector<unsigned>> outbound;
};

} // namespace ulp::net

#endif // ULP_NET_RELAY_HH
