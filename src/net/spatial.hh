/**
 * @file
 * Spatial radio propagation model: node positions plus a log-distance
 * path-loss law turned into the three pure predicates the media need —
 * who can decode whom, with what delivery probability, and who interferes
 * with whom. Dense 802.15.4 networks lose their power budget to exactly
 * these effects (contention and multi-hop relaying), so the scenario
 * engine builds one SpatialModel per network and shares it, const, with
 * every shard's SpatialMedium.
 *
 * Everything here is a pure function of the (static) geometry and the
 * model parameters:
 *
 *  - received power follows the log-distance law
 *        PL(d) = PL(d0) + 10 n log10(d / d0),   d0 = 1 m
 *  - a link (a -> b) is *connected* when rxPower >= sensitivity;
 *  - its delivery probability ramps linearly from 0 at the sensitivity
 *    floor to 1 at sensitivity + fadeMarginDb (a deterministic stand-in
 *    for shadowing/fading at the cell edge);
 *  - a transmitter *interferes* at b while rxPower >= sensitivity -
 *    interferenceMarginDb: interference (and carrier sense) reach
 *    further than decoding;
 *  - *interference domains* are the connected components of the
 *    symmetric interferes graph. Nodes in different domains can never
 *    hear or corrupt one another, so each domain is an independent
 *    broadcast medium (see net/medium.hh).
 *
 * Per-link loss draws use a counter-based hash (splitmix64 over
 * (seed, src, dst, per-source transmit number)) instead of a stateful
 * RNG: the draw for a given transmission is independent of global event
 * order, which is what keeps K-shard runs bit-identical to sequential
 * ones ("shard-stable RNG streams per link").
 *
 * Construction is O(N * k) for k neighbors in radio range, not O(N^2):
 * the log-distance law is invertible, so the maximum distance at which
 * any pair can interfere is known in closed form, and candidate pairs
 * are enumerated from a uniform grid of that cell size. The predicates
 * themselves are evaluated unchanged on every candidate, so the result
 * (neighbor lists, domains) is identical to the exhaustive pair scan.
 * Neighbor lists live in one flat CSR array (offsets + data), not
 * per-node vectors, so iterating a delivery's receiver set at 10k-100k
 * nodes walks contiguous memory.
 */

#ifndef ULP_NET_SPATIAL_HH
#define ULP_NET_SPATIAL_HH

#include <cstdint>
#include <span>
#include <vector>

namespace ulp::net {

/** A node position in meters. */
struct Position
{
    double x = 0.0;
    double y = 0.0;

    bool operator==(const Position &) const = default;
};

/** Log-distance propagation parameters. */
struct SpatialConfig
{
    /** Path-loss exponent n (2 free space .. ~4 indoor). */
    double pathLossExponent = 2.0;
    /** PL(d0) at the 1 m reference distance, dB. */
    double referenceLossDb = 40.0;
    /** Transmit power, dBm (CC2420-class: 0 dBm). */
    double txPowerDbm = 0.0;
    /** Receiver sensitivity, dBm: below this nothing decodes. */
    double sensitivityDbm = -85.0;
    /** Full-delivery margin: links with rxPower >= sensitivity +
     *  fadeMarginDb deliver with probability 1; in between, the
     *  probability ramps linearly (cell-edge fading). */
    double fadeMarginDb = 3.0;
    /** Interference (and carrier-sense) reach below the sensitivity
     *  floor: a transmitter still corrupts receptions at b while
     *  rxPower >= sensitivityDbm - interferenceMarginDb. */
    double interferenceMarginDb = 6.0;
    /** Seed for the per-link delivery draws. */
    std::uint64_t linkSeed = 1;

    bool operator==(const SpatialConfig &) const = default;
};

/** splitmix64: the counter-based hash behind the per-link streams. */
std::uint64_t splitmix64(std::uint64_t x);

/** Map a hash to a uniform double in [0, 1). */
double hashToUnitReal(std::uint64_t h);

class SpatialModel
{
  public:
    SpatialModel(const SpatialConfig &config, std::vector<Position> positions);

    /**
     * The flat broadcast domain as a spatial model: @p n co-located nodes
     * in one interference domain, where every node decodes and interferes
     * with every other at delivery probability 1 (so linkDelivers never
     * draws). Storage is O(n): neighbors() and interferers() are windows
     * of one 2n ring 0..n-1,0..n-1, read as [src+1, src+n), so they list
     * every other node in ring order starting after @p src rather than
     * ascending. The predicates are constant time and skip the path-loss
     * law; every position is the origin, so distance() and rxPowerDbm()
     * read as co-located nodes under the default config.
     */
    static SpatialModel fullMesh(unsigned n);

    unsigned numNodes() const
    {
        return static_cast<unsigned>(pos.size());
    }
    const SpatialConfig &config() const { return cfg; }
    const Position &position(unsigned node) const { return pos[node]; }

    double distance(unsigned a, unsigned b) const;

    /** Received power of a's transmission at b, dBm. */
    double rxPowerDbm(unsigned a, unsigned b) const;

    /** b can decode a's transmissions (possibly lossily). */
    bool connected(unsigned a, unsigned b) const;

    /** Probability that an uncorrupted frame a -> b is delivered. */
    double deliveryProb(unsigned a, unsigned b) const;

    /** a's transmissions corrupt concurrent receptions at b (and b's
     *  carrier sense detects them). Symmetric by construction. */
    bool interferes(unsigned a, unsigned b) const;

    /**
     * Maximum distance (meters) at which received power can still reach
     * @p threshold_dbm, from inverting the log-distance law. Returns 0
     * when even the 1 m distance clamp cannot reach the threshold; never
     * returns less than 1 m otherwise (the clamp makes every closer pair
     * equivalent to a 1 m one).
     */
    double maxRangeMeters(double threshold_dbm) const;

    /** Reach of interferes(): beyond this separation two nodes can never
     *  interact in any way. */
    double
    interferenceRangeMeters() const
    {
        return maxRangeMeters(cfg.sensitivityDbm - cfg.interferenceMarginDb);
    }

    /** Interference-domain id (dense, 0-based, ordered by the smallest
     *  member index) of @p node. */
    unsigned domainOf(unsigned node) const { return domain[node]; }
    unsigned numDomains() const { return domains; }

    bool
    sameDomain(unsigned a, unsigned b) const
    {
        return domain[a] == domain[b];
    }

    /**
     * Deterministic per-link delivery draw for the @p tx_seq -th
     * transmission of @p src: true when the frame survives the link's
     * loss process. Independent of global event order by construction.
     */
    bool linkDelivers(unsigned src, unsigned dst, std::uint64_t tx_seq) const;

    /** Nodes that can decode @p src (ascending index, src excluded;
     *  ring order under fullMesh()). */
    std::span<const std::uint32_t>
    neighbors(unsigned src) const
    {
        if (!ring.empty())
            return {ring.data() + src + 1, numNodes() - 1};
        return {neighDat.data() + neighOff[src],
                neighDat.data() + neighOff[src + 1]};
    }

    /** Nodes within interference (carrier-sense) reach of @p src
     *  (ascending index, src excluded; ring order under fullMesh()).
     *  Superset of neighbors(). */
    std::span<const std::uint32_t>
    interferers(unsigned src) const
    {
        if (!ring.empty())
            return {ring.data() + src + 1, numNodes() - 1};
        return {intDat.data() + intOff[src],
                intDat.data() + intOff[src + 1]};
    }

  private:
    SpatialModel() = default;

    SpatialConfig cfg;
    std::vector<Position> pos;
    std::vector<unsigned> domain;
    /** CSR decode adjacency: neighbors of src are
     *  neighDat[neighOff[src] .. neighOff[src+1]), ascending. */
    std::vector<std::uint32_t> neighOff;
    std::vector<std::uint32_t> neighDat;
    /** CSR interference adjacency, same layout. */
    std::vector<std::uint32_t> intOff;
    std::vector<std::uint32_t> intDat;
    /** fullMesh() only: 0..n-1 twice; empty for a geometric model. */
    std::vector<std::uint32_t> ring;
    unsigned domains = 0;
};

} // namespace ulp::net

#endif // ULP_NET_SPATIAL_HH
