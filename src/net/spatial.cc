#include "net/spatial.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "sim/logging.hh"

namespace ulp::net {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
hashToUnitReal(std::uint64_t h)
{
    // Top 53 bits -> [0, 1) with full double precision; identical on
    // every platform, unlike std::uniform_real_distribution.
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

SpatialModel::SpatialModel(const SpatialConfig &config,
                           std::vector<Position> positions)
    : cfg(config), pos(std::move(positions))
{
    const unsigned n = numNodes();
    if (n == 0)
        sim::fatal("SpatialModel: no node positions");
    if (cfg.pathLossExponent <= 0)
        sim::fatal("SpatialModel: path-loss exponent must be positive");
    if (cfg.fadeMarginDb < 0 || cfg.interferenceMarginDb < 0)
        sim::fatal("SpatialModel: margins must be non-negative");

    // Interference domains: connected components of the (symmetric)
    // interferes graph, via union-find.
    std::vector<unsigned> parent(n);
    std::iota(parent.begin(), parent.end(), 0u);
    auto find = [&](unsigned a) {
        while (parent[a] != a) {
            parent[a] = parent[parent[a]];
            a = parent[a];
        }
        return a;
    };

    // Candidate pairs come from a uniform grid with cells as wide as the
    // interference reach: any interacting pair then lives in the same or
    // an adjacent cell, so scanning each node's 3x3 cell neighborhood
    // enumerates a superset of the exhaustive a<b scan, and the exact
    // predicates below filter it down to the identical result in
    // O(N * neighbors) instead of O(N^2). The cell size is inflated a
    // hair so floating-point rounding in the closed-form inverse can
    // never shave off a borderline pair the predicate would accept.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> int_edges;
    auto scan_pair = [&](unsigned a, unsigned b) {
        if (interferes(a, b)) {
            unsigned ra = find(a), rb = find(b);
            if (ra != rb)
                parent[std::max(ra, rb)] = std::min(ra, rb);
            // interferes() is symmetric (shared config): record both
            // directions for the carrier-sense adjacency.
            int_edges.emplace_back(a, b);
            int_edges.emplace_back(b, a);
        }
        // Decode links can be asymmetric in principle (per-node
        // overrides could differ), but with a shared config they
        // are symmetric; record both directions independently
        // anyway.
        if (connected(a, b))
            edges.emplace_back(a, b);
        if (connected(b, a))
            edges.emplace_back(b, a);
    };

    const double reach = interferenceRangeMeters();
    if (reach <= 0.0) {
        // No pair can interact at all: every node is its own domain and
        // has no neighbors. Nothing to scan.
    } else {
        const double cell = reach * (1.0 + 1e-9) + 1e-9;
        auto cell_of = [&](const Position &p) {
            return std::pair<long long, long long>(
                static_cast<long long>(std::floor(p.x / cell)),
                static_cast<long long>(std::floor(p.y / cell)));
        };
        auto cell_key = [](long long cx, long long cy) {
            return (static_cast<std::uint64_t>(cx) << 32) ^
                   static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
        };
        std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
        buckets.reserve(n * 2);
        for (unsigned i = 0; i < n; i++) {
            auto [cx, cy] = cell_of(pos[i]);
            buckets[cell_key(cx, cy)].push_back(i);
        }
        for (unsigned a = 0; a < n; a++) {
            auto [cx, cy] = cell_of(pos[a]);
            for (long long dx = -1; dx <= 1; dx++) {
                for (long long dy = -1; dy <= 1; dy++) {
                    auto it = buckets.find(cell_key(cx + dx, cy + dy));
                    if (it == buckets.end())
                        continue;
                    for (std::uint32_t b : it->second)
                        if (b > a)
                            scan_pair(a, b);
                }
            }
        }
    }

    // Pack the directed edge lists into CSR form: counting sort by
    // source, then sort each row ascending so iteration order matches
    // the exhaustive scan's per-node sorted lists.
    auto pack_csr = [n](
        const std::vector<std::pair<std::uint32_t, std::uint32_t>> &list,
        std::vector<std::uint32_t> &off, std::vector<std::uint32_t> &dat) {
        off.assign(n + 1, 0);
        for (const auto &[src, dst] : list)
            off[src + 1]++;
        for (unsigned i = 0; i < n; i++)
            off[i + 1] += off[i];
        dat.resize(list.size());
        std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
        for (const auto &[src, dst] : list)
            dat[cursor[src]++] = dst;
        for (unsigned i = 0; i < n; i++)
            std::sort(dat.begin() + off[i], dat.begin() + off[i + 1]);
    };
    pack_csr(edges, neighOff, neighDat);
    pack_csr(int_edges, intOff, intDat);

    // Dense domain ids ordered by smallest member index: node 0's
    // component is domain 0, the next unseen root is domain 1, ...
    domain.assign(n, 0);
    std::vector<int> root_domain(n, -1);
    for (unsigned a = 0; a < n; a++) {
        unsigned r = find(a);
        if (root_domain[r] < 0)
            root_domain[r] = static_cast<int>(domains++);
        domain[a] = static_cast<unsigned>(root_domain[r]);
    }
}

SpatialModel
SpatialModel::fullMesh(unsigned n)
{
    if (n == 0)
        sim::fatal("SpatialModel: a full mesh needs at least one node");
    SpatialModel mesh;
    mesh.pos.assign(n, Position{});
    mesh.domain.assign(n, 0);
    mesh.domains = 1;
    mesh.ring.resize(2 * static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < mesh.ring.size(); ++i)
        mesh.ring[i] = static_cast<std::uint32_t>(i % n);
    return mesh;
}

double
SpatialModel::distance(unsigned a, unsigned b) const
{
    const double dx = pos[a].x - pos[b].x;
    const double dy = pos[a].y - pos[b].y;
    return std::sqrt(dx * dx + dy * dy);
}

double
SpatialModel::rxPowerDbm(unsigned a, unsigned b) const
{
    // Clamp below the 1 m reference distance: the log-distance law is
    // not meaningful there and co-located nodes would otherwise get
    // +inf link budget.
    const double d = std::max(distance(a, b), 1.0);
    const double path_loss =
        cfg.referenceLossDb + 10.0 * cfg.pathLossExponent * std::log10(d);
    return cfg.txPowerDbm - path_loss;
}

bool
SpatialModel::connected(unsigned a, unsigned b) const
{
    if (a == b)
        return false;
    if (!ring.empty())
        return true;
    return rxPowerDbm(a, b) >= cfg.sensitivityDbm;
}

double
SpatialModel::deliveryProb(unsigned a, unsigned b) const
{
    if (a == b)
        return 0.0;
    if (!ring.empty())
        return 1.0;
    const double rx = rxPowerDbm(a, b);
    if (rx < cfg.sensitivityDbm)
        return 0.0;
    if (cfg.fadeMarginDb == 0.0 || rx >= cfg.sensitivityDbm + cfg.fadeMarginDb)
        return 1.0;
    return (rx - cfg.sensitivityDbm) / cfg.fadeMarginDb;
}

bool
SpatialModel::interferes(unsigned a, unsigned b) const
{
    if (a == b)
        return false;
    if (!ring.empty())
        return true;
    return rxPowerDbm(a, b) >= cfg.sensitivityDbm - cfg.interferenceMarginDb;
}

double
SpatialModel::maxRangeMeters(double threshold_dbm) const
{
    // Invert rxPower(d) = tx - PL(1m) - 10 n log10(d) >= threshold.
    // The 1 m clamp in rxPowerDbm means distances below 1 m behave like
    // 1 m: if the budget is negative even there, nothing ever reaches
    // the threshold; otherwise the reach is at least 1 m.
    const double budget = cfg.txPowerDbm - cfg.referenceLossDb - threshold_dbm;
    if (budget < 0.0)
        return 0.0;
    return std::max(
        std::pow(10.0, budget / (10.0 * cfg.pathLossExponent)), 1.0);
}

bool
SpatialModel::linkDelivers(unsigned src, unsigned dst,
                           std::uint64_t tx_seq) const
{
    const double p = deliveryProb(src, dst);
    if (p >= 1.0)
        return true;
    if (p <= 0.0)
        return false;
    // Counter-based stream: one hash chain per (link, transmission).
    std::uint64_t h = splitmix64(cfg.linkSeed ^ 0x5bd1e995u);
    h = splitmix64(h ^ (static_cast<std::uint64_t>(src) << 32 | dst));
    h = splitmix64(h ^ tx_seq);
    return hashToUnitReal(h) < p;
}

} // namespace ulp::net
