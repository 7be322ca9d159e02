/**
 * @file
 * Abstract radio medium: the surface a transceiver (radio device) needs
 * from whatever carries its frames. Two implementations exist:
 *
 *  - net::Channel — one broadcast domain of the single-threaded kernel
 *    (one EventQueue simulates every node); the only medium with i.i.d.
 *    and Gilbert-Elliott loss and fault-injected bursts;
 *  - net::SpatialMedium — the shard-local medium of the parallel
 *    kernel, which relays transmissions to the other shards' media
 *    through the conservative cross-shard FrameRelay. It asks a
 *    net::SpatialModel who hears and who interferes: log-distance path
 *    loss over node positions for a spatial scenario (at every thread
 *    count), or the full mesh for a flat broadcast domain at K > 1.
 *
 * Keeping the transceiver side behind this interface is what lets one
 * RadioDevice implementation run unmodified under every kernel.
 *
 * Multi-domain invariant
 * ----------------------
 * A core::Network may own SEVERAL Medium instances at once — one per
 * interference domain — and each transceiver attaches to exactly one of
 * them. Frames never cross Medium instances: two nodes hear (and
 * collide with) each other iff they are attached to the same instance.
 * The two ways to get more than one domain:
 *
 *  - broadcast model: one net::Channel per declared `domain` value.
 *    Supported only at threads = 1; Channel instances have no relay
 *    fabric, so the parallel kernel cannot split them across shards
 *    (core::Network rejects the combination at build time).
 *  - spatial model: a single net::SpatialMedium per shard, but the
 *    domain partition is computed from node positions (interference
 *    range), so disjoint clusters behave as separate domains without
 *    any declaration — and this works at every thread count.
 */

#ifndef ULP_NET_MEDIUM_HH
#define ULP_NET_MEDIUM_HH

#include "net/frame.hh"
#include "sim/types.hh"

namespace ulp::net {

/** Callback interface a radio device implements to hear the channel. */
class Transceiver
{
  public:
    virtual ~Transceiver() = default;

    /**
     * A frame addressed through the air has fully arrived.
     * @param frame the frame (header-valid; FCS already applied)
     * @param corrupted true when loss/collision damaged the frame; a real
     *        radio would fail the FCS check
     */
    virtual void frameArrived(const Frame &frame, bool corrupted) = 0;

    /** The first symbol of a frame is on the air (start-symbol detect). */
    virtual void frameStarted(sim::Tick end_tick) { (void)end_tick; }
};

/** The medium a transceiver transmits into and receives from. */
class Medium
{
  public:
    virtual ~Medium() = default;

    /** Register @p transceiver as a receiver on this medium. */
    virtual void attach(Transceiver *transceiver) = 0;

    /** Remove @p transceiver from this medium. */
    virtual void detach(Transceiver *transceiver) = 0;

    /**
     * Begin transmitting @p frame from @p sender. Delivery to the other
     * attached transceivers happens when the last byte has been sent.
     * @return the tick at which transmission completes.
     */
    virtual sim::Tick transmit(Transceiver *sender, const Frame &frame) = 0;

    /** Frame airtime at the medium's bit rate. */
    virtual sim::Tick frameAirTicks(const Frame &frame) const = 0;
};

} // namespace ulp::net

#endif // ULP_NET_MEDIUM_HH
