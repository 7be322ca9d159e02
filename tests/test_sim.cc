/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and
 * lifecycle, clock domains, the statistics package, logging, tracing,
 * and deterministic randomness.
 */

#include <gtest/gtest.h>

#include <sstream>
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
