/**
 * @file
 * Tests of the 802.15.4 substrate: CRC-16 correctness, frame codec
 * round-trips (property-swept over payload sizes), corruption detection
 * (any flipped byte must fail the FCS), the broadcast channel's
 * delivery, loss, and collision models, and the spatial model's
 * adjacency: the full mesh and the grid-bucketed CSR.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/channel.hh"
#include "sim/logging.hh"
#include "net/frame.hh"
#include "net/packet_sink.hh"
#include "net/spatial.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"

using namespace ulp;
using namespace ulp::net;

TEST(Crc16, KnownVectors)
{
    // CRC-16/CCITT (XModem variant: poly 0x1021, init 0): "123456789"
    // yields 0x31C3.
    const std::uint8_t digits[] = {'1', '2', '3', '4', '5',
                                   '6', '7', '8', '9'};
    EXPECT_EQ(crc16(digits), 0x31C3);

    EXPECT_EQ(crc16(std::span<const std::uint8_t>{}), 0x0000);
    const std::uint8_t zero[] = {0x00};
    EXPECT_EQ(crc16(zero), 0x0000);
    const std::uint8_t ff[] = {0xFF};
    // One 0xFF byte through the bitwise definition.
    EXPECT_EQ(crc16(ff), 0x1EF0);
}

TEST(Frame, SerializeLayout)
{
    Frame frame;
    frame.type = Frame::Type::Data;
    frame.seq = 0x42;
    frame.destPan = 0x2211;
    frame.dest = 0x4433;
    frame.src = 0x6655;
    frame.payload = {0xAA};

    std::vector<std::uint8_t> wire = frame.serialize();
    ASSERT_EQ(wire.size(), 12u);
    EXPECT_EQ(wire[0], 0x01); // FCF lo: data frame
    EXPECT_EQ(wire[1], 0x88); // FCF hi: 16-bit addressing both ways
    EXPECT_EQ(wire[2], 0x42);
    EXPECT_EQ(wire[3], 0x11); // PAN little-endian
    EXPECT_EQ(wire[4], 0x22);
    EXPECT_EQ(wire[5], 0x33); // dest little-endian
    EXPECT_EQ(wire[6], 0x44);
    EXPECT_EQ(wire[7], 0x55); // src little-endian
    EXPECT_EQ(wire[8], 0x66);
    EXPECT_EQ(wire[9], 0xAA);

    std::uint16_t fcs = crc16(std::span(wire.data(), 10));
    EXPECT_EQ(wire[10], fcs & 0xFF);
    EXPECT_EQ(wire[11], fcs >> 8);
}

TEST(Frame, OversizedPayloadIsFatal)
{
    Frame frame;
    frame.payload.assign(Frame::maxPayloadBytes + 1, 0);
    EXPECT_THROW(frame.serialize(), sim::FatalError);
}

TEST(Frame, DeserializeRejectsRunts)
{
    std::vector<std::uint8_t> tiny(Frame::overheadBytes - 1, 0);
    EXPECT_FALSE(Frame::deserialize(tiny).has_value());
    std::vector<std::uint8_t> huge(Frame::maxFrameBytes + 1, 0);
    EXPECT_FALSE(Frame::deserialize(huge).has_value());
}

class FrameRoundTrip : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(FrameRoundTrip, SerializeDeserializeIdentity)
{
    sim::Random rng(GetParam() * 1234 + 5);
    for (int iteration = 0; iteration < 20; ++iteration) {
        Frame frame;
        frame.type = static_cast<Frame::Type>(rng.uniformInt(0, 3));
        frame.seq = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
        frame.destPan = static_cast<std::uint16_t>(rng.uniformInt(0, 0xFFFF));
        frame.dest = static_cast<std::uint16_t>(rng.uniformInt(0, 0xFFFF));
        frame.src = static_cast<std::uint16_t>(rng.uniformInt(0, 0xFFFF));
        frame.payload.resize(GetParam());
        for (auto &b : frame.payload)
            b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));

        auto wire = frame.serialize();
        auto parsed = Frame::deserialize(wire);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, frame);
    }
}

TEST_P(FrameRoundTrip, AnySingleCorruptionFailsFcs)
{
    Frame frame;
    frame.seq = 9;
    frame.dest = 0x1234;
    frame.src = 0x5678;
    frame.payload.assign(GetParam(), 0x3C);
    auto wire = frame.serialize();

    for (std::size_t i = 0; i < wire.size(); ++i) {
        for (std::uint8_t bit : {0x01, 0x80}) {
            auto corrupted = wire;
            corrupted[i] ^= bit;
            auto parsed = Frame::deserialize(corrupted);
            // A flip may survive only by decoding to a *different* frame
            // with a matching FCS — impossible for single-bit errors
            // under CRC-16.
            EXPECT_FALSE(parsed.has_value())
                << "byte " << i << " bit " << int(bit);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, FrameRoundTrip,
                         ::testing::Values(0u, 1u, 5u, 21u, 64u,
                                           Frame::maxPayloadBytes));

// --------------------------------------------------------------------------
// Channel
// --------------------------------------------------------------------------

namespace {

struct Listener : Transceiver
{
    std::vector<Frame> got;
    int corrupted = 0;
    int starts = 0;

    void
    frameArrived(const Frame &frame, bool bad) override
    {
        if (bad)
            ++corrupted;
        else
            got.push_back(frame);
    }

    void frameStarted(sim::Tick) override { ++starts; }
};

Frame
makeFrame(std::uint8_t seq)
{
    Frame frame;
    frame.seq = seq;
    frame.src = 1;
    frame.dest = 2;
    frame.payload = {seq};
    return frame;
}

} // namespace

TEST(Channel, DeliversToAllButSender)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch");
    Listener tx, rx1, rx2;
    channel.attach(&tx);
    channel.attach(&rx1);
    channel.attach(&rx2);

    sim::Tick end = channel.transmit(&tx, makeFrame(1));
    // 12 bytes at 250 kbit/s = 384 us.
    EXPECT_EQ(end, sim::secondsToTicks(12 * 8 / 250e3));
    EXPECT_EQ(rx1.starts, 1);
    EXPECT_TRUE(rx1.got.empty()); // not yet delivered

    simulation.runUntil(end);
    ASSERT_EQ(rx1.got.size(), 1u);
    ASSERT_EQ(rx2.got.size(), 1u);
    EXPECT_TRUE(tx.got.empty());
    EXPECT_EQ(channel.framesDelivered(), 2u);
}

TEST(Channel, OverlappingTransmissionsCollide)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch");
    Listener a, b, rx;
    channel.attach(&a);
    channel.attach(&b);
    channel.attach(&rx);

    channel.transmit(&a, makeFrame(1));
    simulation.runFor(sim::secondsToTicks(100e-6)); // mid-flight
    channel.transmit(&b, makeFrame(2));
    simulation.runForSeconds(0.01);

    EXPECT_EQ(channel.collisions(), 1u);
    EXPECT_TRUE(rx.got.empty());
    EXPECT_EQ(rx.corrupted, 2); // both frames arrive corrupted
}

TEST(Channel, CollisionsCanBeDisabled)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch");
    channel.setCollisionsEnabled(false);
    Listener a, b, rx;
    channel.attach(&a);
    channel.attach(&b);
    channel.attach(&rx);

    channel.transmit(&a, makeFrame(1));
    channel.transmit(&b, makeFrame(2));
    simulation.runForSeconds(0.01);
    EXPECT_EQ(channel.collisions(), 0u);
    EXPECT_EQ(rx.got.size(), 2u);
}

TEST(Channel, LossProbabilityDropsFrames)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch", Channel::defaultBitRate, 99);
    channel.setLossProbability(0.5);
    Listener tx, rx;
    channel.attach(&tx);
    channel.attach(&rx);

    for (int i = 0; i < 400; ++i) {
        channel.transmit(&tx, makeFrame(static_cast<std::uint8_t>(i)));
        simulation.runFor(sim::secondsToTicks(1e-3));
    }
    EXPECT_NEAR(static_cast<double>(rx.got.size()), 200.0, 50.0);
    EXPECT_GT(rx.got.size(), 0u);
}

TEST(Channel, DetachStopsDelivery)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch");
    Listener tx, rx;
    channel.attach(&tx);
    channel.attach(&rx);
    channel.transmit(&tx, makeFrame(1));
    channel.detach(&rx);
    simulation.runForSeconds(0.01);
    EXPECT_TRUE(rx.got.empty());
}

TEST(Channel, DuplicateAttachPanics)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch");
    Listener rx;
    channel.attach(&rx);
    EXPECT_THROW(channel.attach(&rx), sim::PanicError);
}

TEST(Channel, DetachIsSwapRemoveAndIdempotent)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch");
    Listener tx, a, b, c;
    channel.attach(&tx);
    channel.attach(&a);
    channel.attach(&b);
    channel.attach(&c);

    // Remove from the middle (swap-remove moves `c` into `a`'s slot);
    // the remaining receivers must still all hear the frame, and a
    // second detach of the same transceiver must be a no-op.
    channel.detach(&a);
    channel.detach(&a);

    channel.transmit(&tx, makeFrame(3));
    simulation.runForSeconds(0.01);
    EXPECT_TRUE(a.got.empty());
    EXPECT_EQ(b.got.size(), 1u);
    EXPECT_EQ(c.got.size(), 1u);

    // And `a` can come back after detaching (not "attached twice").
    channel.attach(&a);
    channel.transmit(&tx, makeFrame(4));
    simulation.runForSeconds(0.01);
    EXPECT_EQ(a.got.size(), 1u);
}

TEST(PacketSink, DeduplicatesAndCounts)
{
    sim::Simulation simulation;
    Channel channel(simulation, "ch");
    PacketSink sink(channel);
    Listener tx;
    channel.attach(&tx);

    channel.transmit(&tx, makeFrame(7));
    simulation.runForSeconds(0.01);
    channel.transmit(&tx, makeFrame(7)); // same (src, seq)
    simulation.runForSeconds(0.01);
    channel.transmit(&tx, makeFrame(8));
    simulation.runForSeconds(0.01);

    EXPECT_EQ(sink.uniqueDeliveries(), 2u);
    EXPECT_EQ(sink.duplicates(), 1u);
    EXPECT_EQ(sink.deliveriesFrom(1), 2u);
}

TEST(SpatialModel, FullMeshEveryoneHearsEveryone)
{
    const unsigned n = 7;
    const SpatialModel mesh = SpatialModel::fullMesh(n);
    EXPECT_EQ(mesh.numNodes(), n);
    EXPECT_EQ(mesh.numDomains(), 1u);
    for (unsigned src = 0; src < n; ++src) {
        EXPECT_EQ(mesh.domainOf(src), 0u);
        for (auto list : {mesh.neighbors(src), mesh.interferers(src)}) {
            // Every other node exactly once, never src itself.
            std::vector<std::uint32_t> got(list.begin(), list.end());
            std::sort(got.begin(), got.end());
            std::vector<std::uint32_t> want;
            for (unsigned b = 0; b < n; ++b)
                if (b != src)
                    want.push_back(b);
            EXPECT_EQ(got, want) << "src " << src;
        }
        for (unsigned dst = 0; dst < n; ++dst) {
            EXPECT_EQ(mesh.connected(src, dst), src != dst);
            EXPECT_EQ(mesh.interferes(src, dst), src != dst);
            if (src == dst)
                continue;
            EXPECT_EQ(mesh.deliveryProb(src, dst), 1.0);
            for (std::uint64_t seq = 0; seq < 64; ++seq)
                EXPECT_TRUE(mesh.linkDelivers(src, dst, seq));
        }
    }

    // The 16-bit address ceiling builds in O(n) memory.
    const SpatialModel big = SpatialModel::fullMesh(65'534);
    EXPECT_EQ(big.numNodes(), 65'534u);
    EXPECT_EQ(big.neighbors(65'533).size(), 65'533u);
    EXPECT_EQ(big.neighbors(65'533).front(), 0u);
    EXPECT_EQ(big.interferers(0).back(), 65'533u);

    EXPECT_THROW(SpatialModel::fullMesh(0), sim::FatalError);
}

TEST(SpatialModel, GridBucketedCsrMatchesExhaustiveScan)
{
    // Seeded random placements at several densities: the grid-bucketed
    // candidate scan must produce exactly the adjacency and domains of
    // the O(N^2) scan over connected()/interferes().
    sim::Random rng(7);
    for (double side : {60.0, 250.0, 2000.0}) {
        SpatialConfig cfg;
        cfg.pathLossExponent = 2.8;
        cfg.sensitivityDbm = -90.0;
        std::vector<Position> pos(200);
        for (Position &p : pos)
            p = {side * rng.uniformReal(), side * rng.uniformReal()};
        const SpatialModel model(cfg, pos);
        const unsigned n = model.numNodes();

        // Union-find over interferes() for the reference domains,
        // densely numbered by smallest member like the model's.
        std::vector<unsigned> parent(n);
        for (unsigned i = 0; i < n; ++i)
            parent[i] = i;
        auto find = [&](unsigned a) {
            while (parent[a] != a)
                a = parent[a];
            return a;
        };
        for (unsigned a = 0; a < n; ++a) {
            std::vector<std::uint32_t> neigh, inter;
            for (unsigned b = 0; b < n; ++b) {
                if (model.connected(a, b))
                    neigh.push_back(b);
                if (model.interferes(a, b)) {
                    inter.push_back(b);
                    const unsigned ra = find(a), rb = find(b);
                    if (ra != rb)
                        parent[std::max(ra, rb)] = std::min(ra, rb);
                }
            }
            const auto gotN = model.neighbors(a);
            const auto gotI = model.interferers(a);
            EXPECT_EQ(std::vector<std::uint32_t>(gotN.begin(), gotN.end()),
                      neigh)
                << "side " << side << " node " << a;
            EXPECT_EQ(std::vector<std::uint32_t>(gotI.begin(), gotI.end()),
                      inter)
                << "side " << side << " node " << a;
        }
        std::vector<int> dense(n, -1);
        unsigned domains = 0;
        for (unsigned a = 0; a < n; ++a) {
            const unsigned r = find(a);
            if (dense[r] < 0)
                dense[r] = static_cast<int>(domains++);
            EXPECT_EQ(model.domainOf(a), static_cast<unsigned>(dense[r]))
                << "side " << side << " node " << a;
        }
        EXPECT_EQ(model.numDomains(), domains) << "side " << side;
        if (side > 1000.0) {
            EXPECT_GT(domains, 1u); // the sparse field splits
        }
    }
}
