/**
 * @file
 * Firmware-image tests: an application built from its shape's shared
 * template with the node's parameters bound in must be exactly the image
 * the assemblers produce from source.
 *
 *  - every app across the parameter edges (16-bit and chained periods,
 *    byte thresholds, destinations, MAC retry budgets that wrap the
 *    budget bits, watchdog loads around the clamp), field by field
 *  - a 1,024-node grid built from templates dumps the same statistics
 *    as one booted from from-source images
 *  - concurrent builds over mixed shapes equal the serial ones
 *  - the assembler's parameter holes: recorded where they land, and
 *    every use it cannot bind is fatal
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/apps.hh"
#include "core/network.hh"
#include "mcu/assembler.hh"
#include "scenario/lower.hh"
#include "scenario/scenario.hh"
#include "sim/logging.hh"

using namespace ulp;
using core::apps::AppParams;
using core::apps::NodeApp;

namespace {

const char *const appNames[] = {"app1",  "app2",  "app3", "app4",
                                "blink", "sense", "sink"};

/** Field-by-field equality, so a failure names what differs. */
void
expectSameApp(const NodeApp &bound, const NodeApp &source,
              const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(bound.name, source.name);
    EXPECT_EQ(bound.ep.base, source.ep.base);
    EXPECT_EQ(bound.ep.code, source.ep.code);
    EXPECT_EQ(bound.ep.symbols, source.ep.symbols);
    EXPECT_EQ(bound.ep.isrBindings, source.ep.isrBindings);
    ASSERT_EQ(bound.mcu.chunks.size(), source.mcu.chunks.size());
    for (std::size_t c = 0; c < bound.mcu.chunks.size(); ++c) {
        EXPECT_EQ(bound.mcu.chunks[c].base, source.mcu.chunks[c].base);
        EXPECT_EQ(bound.mcu.chunks[c].bytes, source.mcu.chunks[c].bytes);
    }
    EXPECT_EQ(bound.mcu.symbols, source.mcu.symbols);
    EXPECT_EQ(bound.initEntry, source.initEntry);
    EXPECT_EQ(bound.vectors, source.vectors);
}

/** The parameter edges of every field, in every combination. */
std::vector<AppParams>
edgeParams()
{
    const std::uint32_t periods[] = {0, 1, 2000, 0xFFFF, 0x10000,
                                     7'000'000}; // 70 s at 100 kHz
    const std::uint8_t thresholds[] = {0, 255};
    const std::uint16_t dests[] = {0, 0x00FF, 0xFFFF};
    const std::uint8_t retries[] = {0, 1, 7, 8}; // 8 wraps the budget
    const std::uint32_t watchdogs[] = {0, 1, 256,
                                       0xFFFFu * 256 + 1000}; // clamped
    std::vector<AppParams> out;
    for (std::uint32_t period : periods)
        for (std::uint8_t threshold : thresholds)
            for (std::uint16_t dest : dests)
                for (std::uint8_t mac : retries)
                    for (std::uint32_t wdt : watchdogs) {
                        AppParams p;
                        p.samplePeriodCycles = period;
                        p.threshold = threshold;
                        p.dest = dest;
                        p.macRetries = mac;
                        p.watchdogCycles = wdt;
                        out.push_back(p);
                    }
    return out;
}

std::string
describe(const char *app, const AppParams &p)
{
    return sim::csprintf("%s period=%u threshold=%u dest=%#x mac=%u "
                         "watchdog=%u",
                         app, p.samplePeriodCycles, p.threshold, p.dest,
                         p.macRetries, p.watchdogCycles);
}

TEST(FirmwareImages, BoundImagesEqualFromSourceAssembly)
{
    for (const char *app : appNames) {
        for (const AppParams &p : edgeParams()) {
            expectSameApp(core::apps::buildByName(app, p),
                          core::apps::assembleFromSource(app, p),
                          describe(app, p));
        }
    }
}

TEST(FirmwareImages, NamedBuildersBindTheSameTemplates)
{
    AppParams p;
    p.samplePeriodCycles = 0x12345;
    p.threshold = 9;
    p.dest = 0x0102;
    p.macRetries = 3;
    p.watchdogCycles = 5000;
    expectSameApp(core::apps::buildApp1(p),
                  core::apps::assembleFromSource("app1", p), "app1");
    expectSameApp(core::apps::buildApp2(p),
                  core::apps::assembleFromSource("app2", p), "app2");
    expectSameApp(core::apps::buildApp3(p),
                  core::apps::assembleFromSource("app3", p), "app3");
    expectSameApp(core::apps::buildApp4(p),
                  core::apps::assembleFromSource("app4", p), "app4");
    expectSameApp(core::apps::buildBlink(p),
                  core::apps::assembleFromSource("blink", p), "blink");
    expectSameApp(core::apps::buildSense(p),
                  core::apps::assembleFromSource("sense", p), "sense");
    expectSameApp(core::apps::buildSink(p),
                  core::apps::assembleFromSource("sink", p), "sink");
}

TEST(FirmwareImages, ErrorsMatchFromSourceAssembly)
{
    AppParams far;
    far.samplePeriodCycles = 0xFFFFu * 50'000 + 1; // beyond chaining
    EXPECT_THROW(core::apps::buildByName("app3", far), sim::FatalError);
    EXPECT_THROW(core::apps::assembleFromSource("app3", far),
                 sim::FatalError);
    EXPECT_THROW(core::apps::buildByName("app9"), sim::FatalError);
    EXPECT_THROW(core::apps::assembleFromSource("app9"), sim::FatalError);
}

/** A 32x32 grid mixing shapes: MAC retries network-wide, plus nodes
 *  with a watchdog, a chained period, and the reconfigurable app. */
scenario::Scenario
mixedGrid()
{
    scenario::Scenario sc;
    sc.name = "firmware-grid";
    sc.seconds = 0.1;
    sc.seed = 5;
    sc.nodes.count = 1024;
    sc.nodes.app = "app3";
    sc.nodes.period = 2000;
    sc.nodes.macRetries = 2;
    sc.nodes.placement = scenario::Placement::Grid;
    sc.nodes.spacing = 40.0;
    sc.radio.model = scenario::RadioModel::Spatial;
    sc.radio.spatial.pathLossExponent = 2.8;
    sc.radio.spatial.sensitivityDbm = -90.0;
    sc.routes.sink = 0;
    sc.overrides[5].watchdog = 100'000;
    sc.overrides[7].period = 0x20000;
    sc.overrides[9].app = "app4";
    return sc;
}

std::string
runAndDump(const scenario::NetworkSpec &spec, double seconds)
{
    core::Network network(spec);
    network.runForSeconds(seconds);
    std::ostringstream os;
    network.dumpStats(os);
    return os.str();
}

TEST(FirmwareImages, GridStatsMatchFromSourceImages)
{
    scenario::Lowered low = scenario::lower(mixedGrid());
    scenario::NetworkSpec fromSource = low.spec;
    for (scenario::NodeSpec &ns : fromSource.nodes)
        ns.withPrebuiltApp(
            core::apps::assembleFromSource(ns.app, ns.params));

    std::string bound = runAndDump(low.spec, low.seconds);
    std::string source = runAndDump(fromSource, low.seconds);
    EXPECT_NE(bound.find("node1023"), std::string::npos);
    EXPECT_EQ(bound, source);
}

TEST(FirmwareImages, ConcurrentBuildsMatchSerial)
{
    // The serial reference is assembled from source, so it leaves the
    // template memo untouched: in a fresh process (ctest runs each test
    // in its own) the four threads race on every shape's first use as
    // well as on the shared templates. Each walks the whole list from a
    // different starting point.
    std::vector<std::pair<const char *, AppParams>> work;
    for (const char *app : appNames)
        for (const AppParams &p : edgeParams())
            work.emplace_back(app, p);
    std::vector<NodeApp> serial;
    serial.reserve(work.size());
    for (const auto &[app, p] : work)
        serial.push_back(core::apps::assembleFromSource(app, p));

    constexpr unsigned threads = 4;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            const std::size_t n = work.size();
            for (std::size_t k = 0; k < n; ++k) {
                std::size_t i = (k + t * n / threads) % n;
                const auto &[app, p] = work[i];
                expectSameApp(core::apps::buildByName(app, p), serial[i],
                              describe(app, p));
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
}

TEST(AssemblerParams, HolesAreRecordedWhereTheyLand)
{
    const std::vector<std::string> params = {"P_A", "P_B"};
    std::vector<mcu::ParamFixup> fixups;
    mcu::Image image = mcu::assemble(".org 0x10\n"
                                     "    LDI r0, P_B\n"
                                     "    LDI r1, 5\n"
                                     ".org 0x40\n"
                                     "    .byte 1, P_A, P_B\n",
                                     {}, params, fixups);
    ASSERT_EQ(image.chunks.size(), 2u);
    ASSERT_EQ(fixups.size(), 3u);
    EXPECT_EQ(fixups[0].param, 1u);
    EXPECT_EQ(fixups[0].chunk, 0u);
    EXPECT_EQ(fixups[0].offset, 2u); // opcode, register, immediate
    EXPECT_EQ(fixups[1].param, 0u);
    EXPECT_EQ(fixups[1].chunk, 1u);
    EXPECT_EQ(fixups[1].offset, 1u);
    EXPECT_EQ(fixups[2].param, 1u);
    EXPECT_EQ(fixups[2].chunk, 1u);
    EXPECT_EQ(fixups[2].offset, 2u);
    EXPECT_FALSE(image.hasSymbol("P_A"));

    // Writing values into the holes gives the .equ assembly.
    image.chunks[0].bytes[2] = 0xAB;
    image.chunks[1].bytes[1] = 0xCD;
    image.chunks[1].bytes[2] = 0xAB;
    mcu::Image equ = mcu::assemble(".equ P_A, 0xCD\n"
                                   ".equ P_B, 0xAB\n"
                                   ".org 0x10\n"
                                   "    LDI r0, P_B\n"
                                   "    LDI r1, 5\n"
                                   ".org 0x40\n"
                                   "    .byte 1, P_A, P_B\n");
    ASSERT_EQ(equ.chunks.size(), 2u);
    EXPECT_EQ(image.chunks[0].bytes, equ.chunks[0].bytes);
    EXPECT_EQ(image.chunks[1].bytes, equ.chunks[1].bytes);
}

TEST(AssemblerParams, UnbindableUsesAreFatal)
{
    const std::vector<std::string> params = {"P_A"};
    const char *bad[] = {
        "LDI r0, P_A+1\n",     // inside an expression
        "LDI r0, lo(P_A)\n",   // through a byte selector
        "STS P_A, r0\n",       // as an address
        ".org P_A\n",          // in a directive
        ".space P_A\n",
        ".equ Q, P_A\n",
        ".equ P_A, 3\n",       // redefined
        "P_A:\n    NOP\n",     // as a label
    };
    for (const char *source : bad) {
        std::vector<mcu::ParamFixup> fixups;
        EXPECT_THROW(mcu::assemble(source, {}, params, fixups),
                     sim::FatalError)
            << source;
    }
}

} // namespace
