/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and
 * lifecycle, clock domains, the statistics package, logging, tracing,
 * and deterministic randomness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

using namespace ulp::sim;

// --------------------------------------------------------------------------
// EventQueue
// --------------------------------------------------------------------------

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    EventFunctionWrapper a([&] { order.push_back(1); }, "a");
    EventFunctionWrapper b([&] { order.push_back(2); }, "b");
    EventFunctionWrapper c([&] { order.push_back(3); }, "c");

    queue.schedule(&c, 300);
    queue.schedule(&a, 100);
    queue.schedule(&b, 200);

    queue.runUntil(1000);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(queue.curTick(), 1000u);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SameTickUsesPriorityThenFifo)
{
    EventQueue queue;
    std::vector<int> order;
    EventFunctionWrapper first([&] { order.push_back(1); }, "first");
    EventFunctionWrapper second([&] { order.push_back(2); }, "second");
    EventFunctionWrapper urgent([&] { order.push_back(0); }, "urgent",
                                Event::interruptPriority);

    queue.schedule(&first, 50);
    queue.schedule(&second, 50);
    queue.schedule(&urgent, 50);

    queue.runUntil(50);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue queue;
    bool ran = false;
    EventFunctionWrapper event([&] { ran = true; }, "e");
    queue.schedule(&event, 10);
    EXPECT_TRUE(event.scheduled());
    queue.deschedule(&event);
    EXPECT_FALSE(event.scheduled());
    queue.runUntil(100);
    EXPECT_FALSE(ran);
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue queue;
    int runs = 0;
    EventFunctionWrapper event([&] { ++runs; }, "e");
    queue.schedule(&event, 10);
    queue.reschedule(&event, 500);
    queue.runUntil(100);
    EXPECT_EQ(runs, 0);
    queue.runUntil(500);
    EXPECT_EQ(runs, 1);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue queue;
    EventFunctionWrapper event([] {}, "e");
    queue.runUntil(100);
    EXPECT_THROW(queue.schedule(&event, 50), PanicError);
}

TEST(EventQueue, DoubleSchedulePanics)
{
    EventQueue queue;
    EventFunctionWrapper event([] {}, "e");
    queue.schedule(&event, 10);
    EXPECT_THROW(queue.schedule(&event, 20), PanicError);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue queue;
    int chain = 0;
    EventFunctionWrapper second([&] { chain = 2; }, "second");
    EventFunctionWrapper first(
        [&] {
            chain = 1;
            queue.schedule(&second, queue.curTick() + 5);
        },
        "first");
    queue.schedule(&first, 10);
    queue.runUntil(14);
    EXPECT_EQ(chain, 1);
    queue.runUntil(15);
    EXPECT_EQ(chain, 2);
}

TEST(EventQueue, DestructorDeschedules)
{
    EventQueue queue;
    {
        EventFunctionWrapper event([] {}, "scoped");
        queue.schedule(&event, 10);
    }
    EXPECT_TRUE(queue.empty());
    queue.runUntil(100); // must not touch the dead event
}

TEST(EventQueue, NextTickReportsHead)
{
    EventQueue queue;
    EXPECT_EQ(queue.nextTick(), maxTick);
    EventFunctionWrapper event([] {}, "e");
    queue.schedule(&event, 42);
    EXPECT_EQ(queue.nextTick(), 42u);
}

// --------------------------------------------------------------------------
// ClockDomain
// --------------------------------------------------------------------------

TEST(ClockDomain, PaperClockIs10usPeriod)
{
    ClockDomain clock(100e3);
    EXPECT_EQ(clock.period(), 10'000u);
    EXPECT_EQ(clock.cyclesToTicks(127), 1'270'000u);
    EXPECT_EQ(clock.ticksToCycles(25'000), 2u);
}

TEST(ClockDomain, NextEdgeAligns)
{
    ClockDomain clock(100e3);
    EXPECT_EQ(clock.nextEdge(0), 0u);
    EXPECT_EQ(clock.nextEdge(1), 10'000u);
    EXPECT_EQ(clock.nextEdge(10'000), 10'000u);
    EXPECT_EQ(clock.nextEdge(10'001), 20'000u);
    EXPECT_EQ(clock.clockEdge(10'001, 3), 50'000u);
}

TEST(ClockDomain, RejectsBadFrequencies)
{
    EXPECT_THROW(ClockDomain(-5.0), FatalError);
    EXPECT_THROW(ClockDomain(0.0), FatalError);
    EXPECT_THROW(ClockDomain(3e9), FatalError); // beyond tick resolution
}

class ClockEdgeProperty : public ::testing::TestWithParam<double>
{};

TEST_P(ClockEdgeProperty, EdgesAreConsistent)
{
    ClockDomain clock(GetParam());
    for (Tick t : {Tick{0}, Tick{1}, Tick{999}, Tick{123456},
                   Tick{99999999}}) {
        Tick edge = clock.nextEdge(t);
        EXPECT_GE(edge, t);
        EXPECT_LT(edge - t, clock.period());
        EXPECT_EQ(edge % clock.period(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Frequencies, ClockEdgeProperty,
                         ::testing::Values(32.768e3, 100e3, 7.3728e6,
                                           1e6, 250e3));

// --------------------------------------------------------------------------
// Statistics
// --------------------------------------------------------------------------

TEST(Stats, ScalarAccumulates)
{
    stats::Group group(nullptr, "g");
    stats::Scalar counter(&group, "counter", "a counter");
    ++counter;
    counter += 4.0;
    EXPECT_DOUBLE_EQ(counter.value(), 5.0);
    counter.reset();
    EXPECT_DOUBLE_EQ(counter.value(), 0.0);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    stats::Group group(nullptr, "g");
    stats::Scalar a(&group, "a", "");
    stats::Formula ratio(&group, "ratio", "", [&] { return a.value() / 2; });
    a += 10.0;
    EXPECT_DOUBLE_EQ(ratio.value(), 5.0);
    a += 10.0;
    EXPECT_DOUBLE_EQ(ratio.value(), 10.0);
}

TEST(Stats, DistributionMoments)
{
    stats::Group group(nullptr, "g");
    stats::Distribution dist(&group, "d", "");
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        dist.sample(v);
    EXPECT_EQ(dist.count(), 8u);
    EXPECT_DOUBLE_EQ(dist.mean(), 5.0);
    EXPECT_DOUBLE_EQ(dist.min(), 2.0);
    EXPECT_DOUBLE_EQ(dist.max(), 9.0);
    EXPECT_NEAR(dist.stddev(), 2.138, 1e-3);
}

TEST(Stats, GroupTreePrintsHierarchicalNames)
{
    stats::Group root(nullptr, "root");
    stats::Group child(&root, "child");
    stats::Scalar leaf(&child, "leaf", "desc");
    leaf += 3.0;

    std::ostringstream os;
    root.printStats(os);
    EXPECT_NE(os.str().find("root.child.leaf"), std::string::npos);
    EXPECT_NE(os.str().find("desc"), std::string::npos);

    root.resetStats();
    EXPECT_DOUBLE_EQ(leaf.value(), 0.0);
}

TEST(Stats, FindStatByName)
{
    stats::Group group(nullptr, "g");
    stats::Scalar a(&group, "alpha", "");
    EXPECT_EQ(group.findStat("alpha"), &a);
    EXPECT_EQ(group.findStat("beta"), nullptr);
}

namespace {

/** The iostream line printer the buffered dump replaced: the oracle. */
void
iostreamLine(std::ostream &os, const std::string &prefix,
             const std::string &name, double value, const std::string &desc)
{
    std::string full = prefix.empty() ? name : prefix + "." + name;
    os << std::left << std::setw(44) << full << " "
       << std::right << std::setw(16) << value
       << "  # " << desc << "\n";
}

std::string
dumpLine(const std::string &prefix, const std::string &name,
         const std::string &suffix, double value, const std::string &desc)
{
    std::ostringstream os;
    {
        stats::Dump out(os);
        out.line(prefix, name, suffix, value, desc);
    }
    return os.str();
}

/** Records the size of every write that reaches it. */
class ChunkBuf : public std::stringbuf
{
  public:
    std::vector<std::streamsize> writes;

  protected:
    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        writes.push_back(n);
        return std::stringbuf::xsputn(s, n);
    }
};

} // namespace

TEST(StatsDump, LineMatchesIostreamOracle)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double dmin = std::numeric_limits<double>::denorm_min();
    const std::vector<double> values = {
        0.0, -0.0, dmin, -dmin, 2.2250738585072009e-308, 1e-310,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(), 1e16, -1e16, 1e-16, -1e-16,
        1e-5, 1e-4, 0.0001234565, 123456, 1234567, -1234567, 999999.4,
        999999.5, 100000, 0.1, 1.0 / 3.0, 2.5, 12345.65, 9007199254740993.0,
        inf, -inf, nan, std::copysign(nan, -1.0)};
    const std::vector<std::string> prefixes = {"", "node7",
                                               "node12.radio.power"};
    const std::vector<std::string> suffixes = {
        "", ".count", ".mean", ".min", ".max", ".stddev"};
    const std::vector<std::string> descs = {
        "", "a counter", std::string(200, 'd')};

    unsigned checked = 0;
    for (const std::string &prefix : prefixes) {
        for (const std::string &suffix : suffixes) {
            const std::size_t around =
                (prefix.empty() ? 0 : prefix.size() + 1) + suffix.size();
            // Full names of 43, 44 (the column) and 45+ characters.
            for (std::size_t full : {43u, 44u, 45u, 46u, 80u}) {
                const std::string name(full - around, 'n');
                for (double value : values) {
                    for (const std::string &desc : descs) {
                        std::ostringstream oracle;
                        iostreamLine(oracle, prefix, name + suffix, value,
                                     desc);
                        ASSERT_EQ(dumpLine(prefix, name, suffix, value, desc),
                                  oracle.str())
                            << "prefix '" << prefix << "' suffix '"
                            << suffix << "' value " << value;
                        ++checked;
                    }
                }
            }
        }
    }
    EXPECT_EQ(checked, 3u * 6u * 5u * values.size() * 3u);
}

TEST(StatsDump, TreeMatchesIostreamOracle)
{
    stats::Group root(nullptr, "");
    stats::Group node(&root, "node3");
    stats::Group radio(&node, "radio");
    stats::Scalar frames(&node, "frames", "frames sent");
    stats::Formula half(&node, "half", "half the frames",
                        [&] { return frames.value() / 2; });
    stats::Distribution latency(&radio, "latency", "delivery latency (s)");
    stats::Distribution empty(&radio, "empty", "never sampled");
    frames += 7;
    for (double v : {1e-3, 2.5e-3, 4e-3})
        latency.sample(v);

    std::ostringstream oracle;
    iostreamLine(oracle, "node3", "frames", 7, "frames sent");
    iostreamLine(oracle, "node3", "half", 3.5, "half the frames");
    const std::string d = "delivery latency (s)";
    iostreamLine(oracle, "node3.radio", "latency.count", 3, d);
    iostreamLine(oracle, "node3.radio", "latency.mean", latency.mean(), d);
    iostreamLine(oracle, "node3.radio", "latency.min", 1e-3, d);
    iostreamLine(oracle, "node3.radio", "latency.max", 4e-3, d);
    iostreamLine(oracle, "node3.radio", "latency.stddev", latency.stddev(),
                 d);
    for (const char *suffix : {".count", ".mean", ".min", ".max", ".stddev"})
        iostreamLine(oracle, "node3.radio", std::string("empty") + suffix, 0,
                     "never sampled");

    std::ostringstream os;
    root.printStats(os);
    EXPECT_EQ(os.str(), oracle.str());
}

TEST(StatsDump, WritesInChunksOfAtLeast64KiB)
{
    stats::Group root(nullptr, "");
    std::vector<std::unique_ptr<stats::Group>> groups;
    std::vector<std::unique_ptr<stats::Scalar>> scalars;
    std::ostringstream oracle;
    for (int i = 0; i < 3000; ++i) {
        groups.push_back(std::make_unique<stats::Group>(
            &root, "node" + std::to_string(i)));
        // Names must be literals, so no make_unique: it forwards them.
        scalars.emplace_back(
            new stats::Scalar(groups.back().get(), "count", "how many"));
        *scalars.back() = i * 1.5;
        iostreamLine(oracle, "node" + std::to_string(i), "count", i * 1.5,
                     "how many");
    }

    ChunkBuf buf;
    std::ostream os(&buf);
    root.printStats(os);
    EXPECT_EQ(buf.str(), oracle.str());
    ASSERT_GE(buf.writes.size(), 3u);
    for (std::size_t i = 0; i + 1 < buf.writes.size(); ++i)
        EXPECT_GE(buf.writes[i], 64 * 1024) << "write " << i;
}

namespace {

/** A parent with five children "a".."e", each holding one Scalar "n". */
struct Family
{
    struct Child
    {
        Child(stats::Group *parent, const std::string &name, double v)
            : group(parent, name), n(&group, "n", "count")
        {
            n = v;
        }
        stats::Group group;
        stats::Scalar n;
    };

    explicit Family(double v)
    {
        for (const char *name : {"a", "b", "c", "d", "e"})
            children.push_back(std::make_unique<Child>(&root, name, v));
    }

    void
    kill(const std::string &name)
    {
        for (auto &child : children) {
            if (child && child->group.groupName() == name)
                child.reset();
        }
    }

    stats::Group root{nullptr, "root"};
    std::vector<std::unique_ptr<Child>> children;
};

std::string
printed(const stats::Group &group)
{
    std::ostringstream os;
    group.printStats(os);
    return os.str();
}

/** printStats, findChild and mergeFrom see exactly @p survivors, in order. */
void
expectSurvivors(Family &family, const std::vector<std::string> &survivors)
{
    std::ostringstream oracle;
    for (const std::string &name : survivors)
        iostreamLine(oracle, "root." + name, "n", 1, "count");
    EXPECT_EQ(printed(family.root), oracle.str());

    for (const char *name : {"a", "b", "c", "d", "e", "f"}) {
        const bool alive = std::find(survivors.begin(), survivors.end(),
                                     name) != survivors.end();
        const stats::Group *found = family.root.findChild(name);
        EXPECT_EQ(found != nullptr, alive) << name;
        if (found) {
            EXPECT_EQ(found->groupName(), name);
        }
    }

    Family other(10);
    family.root.mergeFrom(other.root);
    std::ostringstream merged;
    for (const std::string &name : survivors) {
        iostreamLine(merged, "root." + name, "n", name == "f" ? 1 : 11,
                     "count");
    }
    EXPECT_EQ(printed(family.root), merged.str());
    family.root.resetStats();
    for (auto &child : family.children) {
        if (child)
            child->n = 1;
    }
}

} // namespace

TEST(StatsGroup, SurvivorsStayInRegistrationOrder)
{
    Family family(1);
    expectSurvivors(family, {"a", "b", "c", "d", "e"});
    family.kill("a"); // front
    expectSurvivors(family, {"b", "c", "d", "e"});
    family.kill("e"); // back
    expectSurvivors(family, {"b", "c", "d"});
    family.kill("c"); // middle
    expectSurvivors(family, {"b", "d"});

    // A child registered after the removals goes to the end.
    family.children.push_back(
        std::make_unique<Family::Child>(&family.root, "f", 1));
    expectSurvivors(family, {"b", "d", "f"});
    family.kill("d");
    family.kill("b");
    expectSurvivors(family, {"f"});
    family.kill("f");
    expectSurvivors(family, {});
    family.children.push_back(
        std::make_unique<Family::Child>(&family.root, "a", 1));
    expectSurvivors(family, {"a"});
}

TEST(StatsGroup, ParentDiesBeforeItsChildren)
{
    auto parent = std::make_unique<stats::Group>(nullptr, "p");
    stats::Scalar own(parent.get(), "own", "parent's own");
    auto x = std::make_unique<stats::Group>(parent.get(), "x");
    auto y = std::make_unique<stats::Group>(parent.get(), "y");
    auto z = std::make_unique<stats::Group>(parent.get(), "z");
    stats::Scalar xs(x.get(), "s", "x's");
    stats::Scalar ys(y.get(), "s", "y's");
    stats::Group grandchild(y.get(), "g");
    stats::Scalar gs(&grandchild, "s", "g's");
    xs = 1;
    ys = 2;
    gs = 3;

    parent.reset();

    // The orphans are roots of their own trees now.
    std::ostringstream oracle;
    iostreamLine(oracle, "y", "s", 2, "y's");
    iostreamLine(oracle, "y.g", "s", 3, "g's");
    EXPECT_EQ(printed(*y), oracle.str());
    EXPECT_EQ(y->findChild("g"), &grandchild);

    stats::Group other(nullptr, "y");
    stats::Scalar otherS(&other, "s", "y's");
    stats::Group otherG(&other, "g");
    stats::Scalar otherGs(&otherG, "s", "g's");
    otherS = 20;
    otherGs = 30;
    y->mergeFrom(other);
    EXPECT_DOUBLE_EQ(ys.value(), 22);
    EXPECT_DOUBLE_EQ(gs.value(), 33);

    // Orphaned siblings die in any order without touching the dead parent.
    y.reset();
    x.reset();
    EXPECT_EQ(printed(*z), "");
    z.reset();
    std::ostringstream alone;
    iostreamLine(alone, "g", "s", 33, "g's");
    EXPECT_EQ(printed(grandchild), alone.str());
}

// --------------------------------------------------------------------------
// Logging / tracing / random
// --------------------------------------------------------------------------

TEST(Logging, PanicAndFatalThrowDistinctTypes)
{
    EXPECT_THROW(panic("boom %d", 42), PanicError);
    EXPECT_THROW(fatal("bad config %s", "x"), FatalError);
    try {
        fatal("value was %d", 7);
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 7"),
                  std::string::npos);
    }
}

TEST(Logging, CsprintfFormats)
{
    EXPECT_EQ(csprintf("%s-%04x", "ab", 0xBEEF), "ab-beef");
    EXPECT_EQ(csprintf("plain"), "plain");
}

TEST(Random, DeterministicPerSeed)
{
    Random a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t va = a.uniformInt(0, 1'000'000);
        EXPECT_EQ(va, b.uniformInt(0, 1'000'000));
    }
    bool any_diff = false;
    Random a2(42);
    for (int i = 0; i < 100; ++i)
        any_diff |= a2.uniformInt(0, 1'000'000) != c.uniformInt(0, 1'000'000);
    EXPECT_TRUE(any_diff);
}

TEST(Random, ChanceRespectsProbability)
{
    Random rng(7);
    int hits = 0;
    for (int i = 0; i < 10'000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits, 2'500, 200);
    EXPECT_FALSE(rng.chance(0.0));
}

TEST(Simulation, RunHelpers)
{
    Simulation simulation;
    int runs = 0;
    EventFunctionWrapper event([&] { ++runs; }, "e");
    simulation.eventq().schedule(&event, secondsToTicks(0.5));
    simulation.runForSeconds(0.25);
    EXPECT_EQ(runs, 0);
    simulation.runForSeconds(0.25);
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(simulation.curTick(), secondsToTicks(0.5));
}
