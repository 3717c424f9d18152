// Tests of the benchmark's own checks: each check accepts a consistent
// outcome and rejects a deliberately corrupted one, the per-layer
// accounting adds up, a tiny configuration of every workload runs and
// repeats bit for bit, and pass_cpu_s takes each segment's fastest pass.

#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include <gtest/gtest.h>

#include "checks.hh"
#include "layers.hh"
#include "ledger.hh"
#include "util/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/** True when some failure line contains @p needle. */
bool
mentions(const Failures &failures, const std::string &needle)
{
    for (const auto &f : failures) {
        if (f.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

/** True when episode @p episode failed on a line containing @p needle. */
bool
fails(const Findings &findings, std::size_t episode,
      const std::string &needle)
{
    return episode < findings.size() && mentions(findings[episode], needle);
}

/** True when every episode of @p findings passed. */
bool
allPass(const Findings &findings, std::size_t episodes)
{
    return findings.size() == episodes && failedEpisodes(findings) == 0;
}

// ---- scaler_staircase ---------------------------------------------

struct StaircaseCase
{
    StaircaseInputs in =
        makeInputs(Workload::ScalerStaircase, 42, Size::Full).staircase;
    StaircaseResult r;

    StaircaseCase()
    {
        const auto requests =
            static_cast<std::uint64_t>(staircaseOffered(in));
        r.baseline = {autoscale::Policy::Baseline, 1.00, 0.5, 6, 10.0, 3.4,
                      40.0, requests, {}};
        r.ocE = {autoscale::Policy::OcE, 0.97, 0.5, 6, 9.5, 3.5, 42.0,
                 requests, {}};
        r.ocA = {autoscale::Policy::OcA, 0.85, 0.4, 5, 8.8, 4.0, 45.0,
                 requests, {}};
    }

    Findings check() const { return checkStaircase(in, r); }
};

TEST(StaircaseChecks, AcceptsConsistentOutcome)
{
    EXPECT_TRUE(allPass(StaircaseCase().check(), 3));
}

TEST(StaircaseChecks, RejectsEachCorruption)
{
    // Baseline is episode 0, OC-E 1 and OC-A 2.
    const std::vector<std::tuple<std::string, std::size_t,
                                 std::function<void(StaircaseResult &,
                                                    double)>>>
        corruptions{
            {"requests completed", 1,
             [](StaircaseResult &r, double offered) {
                 r.ocE.requests = static_cast<std::uint64_t>(
                     offered - 7.0 * std::sqrt(offered));
             }},
            {"not 3.4", 0,
             [](StaircaseResult &r, double) {
                 r.baseline.avgFrequency = std::nextafter(3.4, 4.0);
             }},
            {"not below OC-E's", 2,
             [](StaircaseResult &r, double) { r.ocA.p95Latency = 0.97; }},
            {"above 1", 1,
             [](StaircaseResult &r, double) { r.ocE.p95Latency = 1.01; }},
            {"peak VMs", 2,
             [](StaircaseResult &r, double) { r.ocA.maxVms = 6; }},
            {"VM-hours", 2,
             [](StaircaseResult &r, double) { r.ocA.vmHours = 10.0; }},
            {"deployment cap", 0,
             [](StaircaseResult &r, double) { r.baseline.maxVms = 7; }},
        };
    for (const auto &[needle, episode, corrupt] : corruptions) {
        StaircaseCase c;
        corrupt(c.r, staircaseOffered(c.in));
        const Findings f = c.check();
        EXPECT_TRUE(fails(f, episode, needle)) << needle;
        EXPECT_EQ(failedEpisodes(f), 1u) << needle;
    }
}

// ---- capacity_crisis ----------------------------------------------

struct CrisisCase
{
    fault::CrisisParams p =
        makeInputs(Workload::CapacityCrisis, 42, Size::Full).crisis;
    CrisisResult r;

    CrisisCase()
    {
        for (auto *o : {&r.baseline, &r.ocA}) {
            o->requests = static_cast<std::uint64_t>(p.qps * p.horizon);
            o->serversCrashed = p.fleetSize / 5;
            o->invariantChecks = 600;
            o->faults.resize(2);
        }
        r.baseline.policy = autoscale::Policy::Baseline;
        r.baseline.avgFrequency = 3.4;
        r.baseline.crisisP99 = 40.0 * p.slaP99;
        r.baseline.slaMet = false;
        r.baseline.scaleOuts = 2;
        r.ocA.policy = autoscale::Policy::OcA;
        r.ocA.avgFrequency = 4.09;
        r.ocA.crisisP99 = 0.2 * p.slaP99;
        r.ocA.slaMet = true;
    }

    Findings check() const { return checkCrisis(p, r); }
};

TEST(CrisisChecks, AcceptsConsistentOutcome)
{
    EXPECT_TRUE(allPass(CrisisCase().check(), 2));
}

TEST(CrisisChecks, CapacityArithmeticMatchesTheSlaArgument)
{
    // 8 of 10 full-scale VMs: 12.3k QPS at 3.4 GHz, 14.5k at 4.1 GHz.
    fault::CrisisParams full;
    EXPECT_NEAR(crisisCapacity(full, 8, 3.4), 12307.69, 0.01);
    EXPECT_NEAR(crisisCapacity(full, 8, 4.1), 14542.23, 0.01);
}

TEST(CrisisChecks, RejectsEachCorruption)
{
    // Baseline is episode 0 and OC-A 1.
    const std::vector<
        std::tuple<std::string, std::size_t,
                   std::function<void(CrisisCase &)>>>
        corruptions{
            {"requests completed", 1,
             [](CrisisCase &c) { c.r.ocA.requests /= 2; }},
            {"not 20%", 1,
             [](CrisisCase &c) { c.r.ocA.serversCrashed += 1; }},
            {"invariant violations", 0,
             [](CrisisCase &c) { c.r.baseline.invariantViolations = 1; }},
            {"no fault injected", 1,
             [](CrisisCase &c) { c.r.ocA.faults.clear(); }},
            {"not 3.4", 0,
             [](CrisisCase &c) { c.r.baseline.avgFrequency = 3.45; }},
            {"outside (3.4, max]", 1,
             [](CrisisCase &c) { c.r.ocA.avgFrequency = 4.2; }},
            {"Baseline: met the SLA", 0,
             [](CrisisCase &c) {
                 c.r.baseline.slaMet = true;
                 c.r.baseline.crisisP99 = 0.5 * c.p.slaP99;
             }},
            {"OC-A: missed the SLA", 1,
             [](CrisisCase &c) {
                 c.r.ocA.slaMet = false;
                 c.r.ocA.crisisP99 = 2.0 * c.p.slaP99;
             }},
            {"verdict disagrees", 1,
             [](CrisisCase &c) { c.r.ocA.crisisP99 = 2.0 * c.p.slaP99; }},
            {"not between", 0,
             [](CrisisCase &c) { c.p.qps *= 1.2; }},
            {"no replacement VM", 0,
             [](CrisisCase &c) { c.r.baseline.scaleOuts = 0; }},
        };
    for (const auto &[needle, episode, corrupt] : corruptions) {
        CrisisCase c;
        corrupt(c);
        EXPECT_TRUE(fails(c.check(), episode, needle)) << needle;
    }
}

// ---- control_day --------------------------------------------------

struct ControlCase
{
    ControlBounds bounds{86400.0, 40000.0, 24.0 * 200.0};
    std::vector<ControlEpisode> episodes;

    ControlCase()
    {
        for (const char *name : {"static-baseline", "static-oc-a", "pid-tj"}) {
            ControlEpisode e;
            e.controller = name;
            e.totalEpochs = 288;
            e.minCeiling = 2.7;
            e.maxCeiling = 3.3;
            e.outcome.epochs = 288;
            e.outcome.requests = 1000000;
            e.outcome.p99LatencyS = 0.5;
            e.outcome.costPerMRequestsUsd = 1.5;
            e.outcome.energyMwh = 0.3;
            e.outcome.meanCeilingGhz =
                e.controller == "static-oc-a" ? 3.2 : 2.7;
            episodes.push_back(e);
        }
    }

    Findings check() const { return checkControl(bounds, episodes); }
};

TEST(ControlChecks, AcceptsConsistentOutcome)
{
    EXPECT_TRUE(allPass(ControlCase().check(), 3));
}

TEST(ControlChecks, AcceptsAMeanCeilingRoundedPastTheNominalPoint)
{
    // A quarter day is 72 epochs; 72 ceilings of 2.7 GHz summed one by
    // one and divided by 72 come out a few ulps below 2.7.
    double sum = 0.0;
    for (int epoch = 0; epoch < 72; ++epoch)
        sum += 2.7;
    const double mean = sum / 72.0;
    ASSERT_LT(mean, 2.7);
    ControlCase c;
    c.episodes[0].outcome.meanCeilingGhz = mean;
    c.episodes[2].outcome.meanCeilingGhz = mean;
    EXPECT_TRUE(allPass(c.check(), 3));
}

TEST(ControlChecks, RejectsEachCorruption)
{
    // Episodes: static-baseline 0, static-oc-a 1, pid-tj 2.
    const std::vector<
        std::tuple<std::string, std::size_t,
                   std::function<void(ControlCase &)>>>
        corruptions{
            {"epochs ran", 2,
             [](ControlCase &c) { c.episodes[2].outcome.epochs = 287; }},
            {"no requests", 1,
             [](ControlCase &c) { c.episodes[1].outcome.requests = 0; }},
            {"no requests", 0,
             [](ControlCase &c) {
                 c.episodes[0].outcome.p99LatencyS = std::nan("");
             }},
            {"MWh outside", 0,
             [](ControlCase &c) { c.episodes[0].outcome.energyMwh = 0.1; }},
            {"MWh outside", 2,
             [](ControlCase &c) { c.episodes[2].outcome.energyMwh = 1.0; }},
            {"outside the SKU's levels", 2,
             [](ControlCase &c) {
                 c.episodes[2].outcome.meanCeilingGhz = 3.4;
             }},
            {"outside the SKU's levels", 2,
             [](ControlCase &c) {
                 c.episodes[2].outcome.meanCeilingGhz = 2.6;
             }},
            {"not the nominal point", 0,
             [](ControlCase &c) {
                 c.episodes[0].outcome.meanCeilingGhz = 2.8;
             }},
            {"not above", 1,
             [](ControlCase &c) {
                 c.episodes[1].outcome.meanCeilingGhz = 2.7;
             }},
        };
    for (const auto &[needle, episode, corrupt] : corruptions) {
        ControlCase c;
        corrupt(c);
        const Findings f = c.check();
        EXPECT_TRUE(fails(f, episode, needle)) << needle;
        EXPECT_EQ(failedEpisodes(f), 1u) << needle;
    }
}

// ---- fleet_day ----------------------------------------------------

struct FleetCase
{
    FleetDayResult r;

    FleetCase()
    {
        r.servers = 2;
        r.idleFloorW = 100.0;
        r.minutePowerW = {200.0, 300.0, 250.0};
        r.minuteFeedW = {300.0, 300.0, 300.0};
        r.cappedMinutes = 1;
        r.session.energyMwh = columnEnergyMwh(r);
        r.session.fleet.servers = 2;
        r.rackAggregate.energyMwh = 0.9 * r.session.energyMwh;
        r.aggregatorTicks = 3;
        r.recorderTicks = 3;
    }
};

TEST(FleetChecks, AcceptsConsistentOutcome)
{
    EXPECT_TRUE(allPass(checkFleetDay(FleetCase().r), 2));
}

TEST(FleetChecks, RejectsEachCorruption)
{
    // The per-server session is episode 0, the rack-aggregate run 1.
    const std::vector<std::tuple<std::string, std::size_t,
                                 std::function<void(FleetDayResult &)>>>
        corruptions{
            {"columns missing", 0,
             [](FleetDayResult &r) { r.minuteFeedW.pop_back(); }},
            // Capping that leaves the fleet above the feed, with the
            // session's energy still the fleet's own integral.
            {"above the feed in 1 of 3", 0,
             [](FleetDayResult &r) {
                 r.minutePowerW[1] = 300.5;
                 r.session.energyMwh = columnEnergyMwh(r);
             }},
            {"column integral", 0,
             [](FleetDayResult &r) { r.session.energyMwh *= 1.0 + 1e-6; }},
            {"not for part of the day", 0,
             [](FleetDayResult &r) { r.cappedMinutes = 0; }},
            {"not for part of the day", 0,
             [](FleetDayResult &r) { r.cappedMinutes = 3; }},
            {"rack-aggregate: energy", 1,
             [](FleetDayResult &r) { r.rackAggregate.energyMwh = 0.0; }},
            {"rack-aggregate: energy", 1,
             [](FleetDayResult &r) { r.rackAggregate.energyMwh = 1.0; }},
            {"observers ticked", 0,
             [](FleetDayResult &r) { r.recorderTicks = 2; }},
            {"servers, built", 0,
             [](FleetDayResult &r) { r.session.fleet.servers = 3; }},
        };
    for (const auto &[needle, episode, corrupt] : corruptions) {
        FleetCase c;
        corrupt(c.r);
        const Findings f = checkFleetDay(c.r);
        EXPECT_TRUE(fails(f, episode, needle)) << needle;
        EXPECT_EQ(failedEpisodes(f), 1u) << needle;
    }
}

// ---- digests and layers -------------------------------------------

TEST(Digest, SeesOneBitOfOneField)
{
    StaircaseCase a, b;
    EXPECT_EQ(digest(a.r), digest(b.r));
    b.r.ocE.vmHours = std::nextafter(b.r.ocE.vmHours, 100.0);
    EXPECT_NE(digest(a.r), digest(b.r));
}

TEST(Layers, SelfTimesAndUnattributedAddUpToThePass)
{
    imsim::obs::ProfileReport profile;
    profile.add({"control.step", 10, 900.0, 500.0});
    profile.add({"control.step/datacenter.minute", 50, 300.0, 250.0});
    profile.add({"control.step/datacenter.minute/power.allocate", 50, 50.0,
                 50.0});
    profile.add({"control.step/workload.queueing.arrival", 1000, 150.0,
                 150.0});
    profile.add({"mystery.scope", 1, 20.0, 20.0});
    profile.add({"cluster.rack_aggregate/datacenter.run", 1, 40.0, 10.0});
    profile.add({"cluster.rack_aggregate/datacenter.run/datacenter.minute",
                 1440, 30.0, 30.0});
    PassResult pass;
    pass.epochs = 10;
    pass.serverMinutes = 1000;
    std::vector<std::string> unmapped;
    const auto metrics = layerMetrics(profile, pass, 1.25, 1.0, unmapped);
    const auto value = [&](const std::string &name) {
        for (const auto &m : metrics) {
            if (m.name == name)
                return m.value;
        }
        ADD_FAILURE() << "no metric " << name;
        return 0.0;
    };

    double self_sum = 0.0, unattributed = 0.0, overhead = 0.0;
    for (const auto &m : metrics) {
        if (m.name == "unattributed_s")
            unattributed = m.value;
        else if (m.name == "trace.overhead_s")
            overhead = m.value;
        else if (m.unit == "s")
            self_sum += m.value;
        if (m.name == "control.step_us")
            EXPECT_DOUBLE_EQ(m.value, 0.5 / 10 * 1e6);
        if (m.name == "workload.arrivals")
            EXPECT_EQ(m.value, 1000.0);
        if (m.name == "cluster.server_minute_ns")
            EXPECT_DOUBLE_EQ(m.value, 0.25 / 1000 * 1e9);
    }
    EXPECT_DOUBLE_EQ(self_sum + unattributed, 1.25);
    EXPECT_DOUBLE_EQ(unattributed, 1.25 - 0.99);
    // Rack-aggregate minutes are neither session minutes nor their time.
    EXPECT_EQ(value("cluster.minutes"), 50.0);
    EXPECT_DOUBLE_EQ(value("cluster.minute_s"), 0.25);
    EXPECT_DOUBLE_EQ(value("cluster.rack_aggregate_s"), 0.04);
    EXPECT_DOUBLE_EQ(overhead, 0.25);
    ASSERT_EQ(unmapped.size(), 1u);
    EXPECT_EQ(unmapped[0], "mystery.scope");
}

// ---- tiny runs ----------------------------------------------------

TEST(TinyRuns, EveryWorkloadRunsAndRepeats)
{
    for (const Workload w : allWorkloads()) {
        const Inputs in = makeInputs(w, 42, Size::Tiny);
        CpuClock::time_point first{};
        const PassResult a = runPass(in, first);
        EXPECT_NE(first, CpuClock::time_point{}) << workloadName(w);
        const PassResult b = runPass(in, first);
        EXPECT_GT(a.episodes, 0u) << workloadName(w);
        EXPECT_EQ(a.episodes, b.episodes) << workloadName(w);
        EXPECT_EQ(a.digest, b.digest) << workloadName(w);
        EXPECT_EQ(a.episodes, episodesPerPass(in)) << workloadName(w);
        EXPECT_EQ(a.findings, b.findings) << workloadName(w);
        // Every episode is timed, and every pass times the same
        // segments.
        EXPECT_GE(a.segmentSeconds.size(), a.episodes) << workloadName(w);
        EXPECT_EQ(a.segmentSeconds.size(), b.segmentSeconds.size())
            << workloadName(w);
        for (const double seconds : a.segmentSeconds)
            EXPECT_GE(seconds, 0.0) << workloadName(w);
    }
}

TEST(TinyRuns, SeedChangesTheInputs)
{
    CpuClock::time_point first{};
    const auto a =
        runPass(makeInputs(Workload::CapacityCrisis, 1, Size::Tiny), first);
    const auto b =
        runPass(makeInputs(Workload::CapacityCrisis, 2, Size::Tiny), first);
    EXPECT_NE(a.digest, b.digest);
}

// ---- ledger -------------------------------------------------------

/** A pass of two episodes whose outcome digest is @p digest. */
PassResult
twoEpisodes(std::uint64_t digest, Findings findings = Findings(2))
{
    PassResult r;
    r.episodes = 2;
    r.digest = digest;
    r.findings = std::move(findings);
    return r;
}

TEST(Ledger, PassThatThrowsFailsItsEpisodesAndTheRun)
{
    std::ostringstream log;
    Ledger ledger(2, log);
    CpuClock::time_point first{};
    PassResult result;
    const Ledger::Pass throws = [](CpuClock::time_point &) -> PassResult {
        imsim::util::fatal("simulated library failure");
    };
    EXPECT_LT(ledger.run(throws, first, result, "warm-up"), 0.0);
    EXPECT_FALSE(ledger.correct());
    EXPECT_EQ(ledger.attempted(), 2u);
    EXPECT_EQ(ledger.failed(), 2u);
    EXPECT_NE(log.str().find("simulated library failure"),
              std::string::npos);
}

TEST(Ledger, ThrowAfterGoodPassesStillFailsTheRun)
{
    std::ostringstream log;
    Ledger ledger(2, log);
    CpuClock::time_point first{};
    PassResult result;
    const Ledger::Pass good = [](CpuClock::time_point &) {
        return twoEpisodes(7);
    };
    const Ledger::Pass throws = [](CpuClock::time_point &) -> PassResult {
        throw std::runtime_error("late failure");
    };
    EXPECT_GE(ledger.run(good, first, result, "warm-up"), 0.0);
    EXPECT_GE(ledger.run(good, first, result, "timed"), 0.0);
    EXPECT_TRUE(ledger.correct());
    EXPECT_LT(ledger.run(throws, first, result, "timed"), 0.0);
    EXPECT_FALSE(ledger.correct());
    EXPECT_EQ(ledger.attempted(), 6u);
    EXPECT_EQ(ledger.failed(), 2u);
}

TEST(Ledger, FailedChecksFailTheirEpisodeOnly)
{
    std::ostringstream log;
    Ledger ledger(2, log);
    CpuClock::time_point first{};
    PassResult result;
    const Ledger::Pass pass = [](CpuClock::time_point &) {
        return twoEpisodes(7, Findings{{"broken"}, {}});
    };
    for (int i = 0; i < 3; ++i)
        ledger.run(pass, first, result, "timed");
    EXPECT_TRUE(ledger.correct());
    EXPECT_EQ(ledger.attempted(), 6u);
    EXPECT_EQ(ledger.failed(), 3u);
    // Reported once, from the first pass.
    EXPECT_EQ(log.str(), "perfbench: episode 0 failed a check: broken\n");
}

TEST(Ledger, PassThatDoesNotReproduceTheFirstFailsTheRun)
{
    std::ostringstream log;
    Ledger ledger(2, log);
    CpuClock::time_point first{};
    PassResult result;
    std::uint64_t digest = 7;
    const Ledger::Pass drifts = [&digest](CpuClock::time_point &) {
        return twoEpisodes(digest++);
    };
    ledger.run(drifts, first, result, "warm-up");
    EXPECT_TRUE(ledger.correct());
    ledger.run(drifts, first, result, "timed");
    EXPECT_FALSE(ledger.correct());
}

TEST(Ledger, PassWithTheWrongEpisodeCountFailsTheRun)
{
    std::ostringstream log;
    Ledger ledger(3, log);
    CpuClock::time_point first{};
    PassResult result;
    ledger.run([](CpuClock::time_point &) { return twoEpisodes(7); }, first,
               result, "warm-up");
    EXPECT_FALSE(ledger.correct());
}

TEST(Segments, FastestOfEachSegmentIsSummed)
{
    EXPECT_DOUBLE_EQ(fastestSegmentsSeconds({{3.0, 1.0, 2.0},
                                             {1.0, 2.0, 5.0},
                                             {2.0, 4.0, 2.5}}),
                     1.0 + 1.0 + 2.0);
    EXPECT_DOUBLE_EQ(fastestSegmentsSeconds({{0.5, 0.25}}), 0.75);
}

TEST(Segments, PassesThatTimeOtherSegmentsAreRefused)
{
    EXPECT_LT(fastestSegmentsSeconds({}), 0.0);
    EXPECT_LT(fastestSegmentsSeconds({{1.0, 2.0}, {1.0}}), 0.0);
}

TEST(Workloads, NamesRoundTrip)
{
    for (const Workload w : allWorkloads()) {
        Workload parsed = Workload::FleetDay;
        ASSERT_TRUE(parseWorkload(workloadName(w), parsed));
        EXPECT_EQ(parsed, w);
    }
    Workload unused;
    EXPECT_FALSE(parseWorkload("hit", unused));
}

} // namespace
