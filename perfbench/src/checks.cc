#include "checks.hh"

#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace {

constexpr double kBaseClockGhz = 3.4;
constexpr double kJoulesPerMwh = 3.6e9;

std::string
str(double value)
{
    std::ostringstream out;
    out.precision(10);
    out << value;
    return out.str();
}

void
expect(bool ok, const std::string &what, Failures &failures)
{
    if (!ok)
        failures.push_back(what);
}

bool
positiveFinite(double value)
{
    return std::isfinite(value) && value > 0.0;
}

} // namespace

std::size_t
failedEpisodes(const Findings &findings)
{
    std::size_t failed = 0;
    for (const auto &episode : findings)
        failed += episode.empty() ? 0 : 1;
    return failed;
}

bool
withinPoisson(double observed, double offered)
{
    return offered > 0.0 &&
           std::abs(observed - offered) <= 6.0 * std::sqrt(offered);
}

// ---- scaler_staircase ---------------------------------------------

double
staircaseOffered(const StaircaseInputs &inputs)
{
    double total = 0.0;
    for (const double qps : inputs.levels)
        total += qps * inputs.params.stepDuration;
    return total;
}

Findings
checkStaircase(const StaircaseInputs &inputs, const StaircaseResult &r)
{
    Findings findings(3);
    Failures &baseline = findings[0];
    Failures &oc_e = findings[1];
    Failures &oc_a = findings[2];
    const double offered = staircaseOffered(inputs);
    const std::pair<const char *, const autoscale::AutoScaleOutcome *>
        runs[] = {{"Baseline", &r.baseline}, {"OC-E", &r.ocE},
                  {"OC-A", &r.ocA}};
    for (std::size_t i = 0; i < 3; ++i) {
        const auto &[name, run] = runs[i];
        expect(withinPoisson(static_cast<double>(run->requests), offered),
               std::string("staircase ") + name + ": " +
                   str(static_cast<double>(run->requests)) +
                   " requests completed, offered " + str(offered),
               findings[i]);
        expect(positiveFinite(run->p95Latency) &&
                   positiveFinite(run->vmHours),
               std::string("staircase ") + name +
                   ": non-positive P95 or VM-hours",
               findings[i]);
    }
    expect(r.baseline.avgFrequency == kBaseClockGhz,
           "staircase Baseline: average frequency " +
               str(r.baseline.avgFrequency) + " GHz, not 3.4",
           baseline);
    expect(r.baseline.maxVms > 1 &&
               r.baseline.maxVms <= inputs.params.maxVms,
           "staircase Baseline: peak VMs " +
               str(double(r.baseline.maxVms)) +
               " outside (1, deployment cap]",
           baseline);
    expect(r.ocE.p95Latency <= r.baseline.p95Latency,
           "staircase OC-E: normalised P95 " +
               str(r.ocE.p95Latency / r.baseline.p95Latency) +
               " above 1",
           oc_e);
    expect(r.ocA.p95Latency < r.ocE.p95Latency,
           "staircase OC-A: normalised P95 " +
               str(r.ocA.p95Latency / r.baseline.p95Latency) +
               " not below OC-E's " +
               str(r.ocE.p95Latency / r.baseline.p95Latency),
           oc_a);
    expect(r.ocA.maxVms < r.baseline.maxVms,
           "staircase OC-A: peak VMs " + str(double(r.ocA.maxVms)) +
               " not below Baseline's " + str(double(r.baseline.maxVms)),
           oc_a);
    expect(r.ocA.vmHours < r.baseline.vmHours,
           "staircase OC-A: VM-hours " + str(r.ocA.vmHours) +
               " not below Baseline's " + str(r.baseline.vmHours),
           oc_a);
    return findings;
}

// ---- capacity_crisis ----------------------------------------------

double
crisisCapacity(const fault::CrisisParams &params, std::size_t servers,
               double freq)
{
    const double service =
        params.serviceMean *
        (params.kappa * kBaseClockGhz / freq + (1.0 - params.kappa));
    return static_cast<double>(servers) *
           static_cast<double>(params.threadsPerVm) / service;
}

Findings
checkCrisis(const fault::CrisisParams &params, const CrisisResult &r)
{
    Findings findings(2);
    Failures &baseline = findings[0];
    Failures &oc_a = findings[1];
    const double offered = params.qps * params.horizon;
    const std::pair<const char *, const fault::CrisisOutcome *> runs[] = {
        {"Baseline", &r.baseline}, {"OC-A", &r.ocA}};
    // The survivors' capacity at the base clock is below the offered
    // load and at full headroom above it, so Baseline must miss the SLA
    // until its replacements arrive and OC-A must meet it.
    const std::size_t survivors =
        params.fleetSize - r.baseline.serversCrashed;
    const double base_cap = crisisCapacity(params, survivors, 3.4);
    const double oc_cap =
        crisisCapacity(params, survivors, params.maxFrequency);
    for (std::size_t i = 0; i < 2; ++i) {
        const auto &[name, run] = runs[i];
        const std::string who = std::string("crisis ") + name + ": ";
        expect(withinPoisson(static_cast<double>(run->requests), offered),
               who + str(static_cast<double>(run->requests)) +
                   " requests completed, offered " + str(offered),
               findings[i]);
        expect(static_cast<double>(run->serversCrashed) ==
                   0.2 * static_cast<double>(params.fleetSize),
               who + str(double(run->serversCrashed)) + " of " +
                   str(double(params.fleetSize)) +
                   " servers crashed, not 20%",
               findings[i]);
        expect(run->invariantChecks > 0 && run->invariantViolations == 0,
               who + str(double(run->invariantViolations)) +
                   " invariant violations in " +
                   str(double(run->invariantChecks)) + " checks",
               findings[i]);
        expect(!run->faults.empty(), who + "no fault injected",
               findings[i]);
        expect(run->slaMet == (run->crisisP99 <= params.slaP99),
               who + "SLA verdict disagrees with the crisis P99",
               findings[i]);
        // Each run's SLA verdict below rests on these capacities.
        expect(base_cap < params.qps && params.qps < oc_cap,
               who + "offered " + str(params.qps) +
                   " QPS not between base-clock capacity " +
                   str(base_cap) + " and overclocked capacity " +
                   str(oc_cap),
               findings[i]);
    }
    expect(r.baseline.avgFrequency == kBaseClockGhz,
           "crisis Baseline: average frequency " +
               str(r.baseline.avgFrequency) + " GHz, not 3.4",
           baseline);
    expect(!r.baseline.slaMet,
           "crisis Baseline: met the SLA at " + str(base_cap) +
               " QPS capacity against " + str(params.qps) + " offered",
           baseline);
    expect(r.baseline.scaleOuts > 0,
           "crisis Baseline: launched no replacement VM", baseline);
    expect(r.ocA.avgFrequency > kBaseClockGhz &&
               r.ocA.avgFrequency <= params.maxFrequency,
           "crisis OC-A: average frequency " + str(r.ocA.avgFrequency) +
               " GHz outside (3.4, max]",
           oc_a);
    expect(r.ocA.slaMet,
           "crisis OC-A: missed the SLA (P99 " + str(r.ocA.crisisP99) +
               " s) at " + str(oc_cap) + " QPS capacity",
           oc_a);
    return findings;
}

// ---- control_day --------------------------------------------------

Findings
checkControl(const ControlBounds &bounds,
             const std::vector<ControlEpisode> &episodes)
{
    Findings findings(episodes.size());
    const double floor_mwh =
        bounds.idleFloorW * bounds.horizonS / kJoulesPerMwh;
    const double ceil_mwh = bounds.feedW * bounds.horizonS / kJoulesPerMwh;
    const ControlEpisode *baseline = nullptr;
    for (const auto &e : episodes) {
        if (e.controller == "static-baseline")
            baseline = &e;
    }
    for (std::size_t i = 0; i < episodes.size(); ++i) {
        const ControlEpisode &e = episodes[i];
        const auto &o = e.outcome;
        Failures &failures = findings[i];
        const std::string who = "control " + e.controller + ": ";
        expect(o.epochs == e.totalEpochs,
               who + str(double(o.epochs)) + " of " +
                   str(double(e.totalEpochs)) + " epochs ran",
               failures);
        expect(o.requests > 0 && positiveFinite(o.p99LatencyS) &&
                   positiveFinite(o.costPerMRequestsUsd),
               who + "no requests, or non-positive P99 or cost",
               failures);
        expect(o.energyMwh >= floor_mwh && o.energyMwh <= ceil_mwh,
               who + "energy " + str(o.energyMwh) + " MWh outside [" +
                   str(floor_mwh) + ", " + str(ceil_mwh) + "]",
               failures);
        // A running sum of equal ceilings, divided by the epochs, can
        // round a few ulps past the level it averages.
        const double ulps = 1e-12 * e.maxCeiling;
        expect(o.meanCeilingGhz >= e.minCeiling - ulps &&
                   o.meanCeilingGhz <= e.maxCeiling + ulps,
               who + "mean ceiling " + str(o.meanCeilingGhz) +
                   " GHz outside the SKU's levels",
               failures);
        if (&e == baseline) {
            expect(std::abs(o.meanCeilingGhz - e.minCeiling) <=
                       1e-12 * e.minCeiling,
                   who + "mean ceiling " + str(o.meanCeilingGhz) +
                       " GHz, not the nominal point",
                   failures);
        }
        if (e.controller == "static-oc-a" && baseline) {
            expect(o.meanCeilingGhz > baseline->outcome.meanCeilingGhz,
                   who + "mean ceiling not above static-baseline's",
                   failures);
        }
    }
    return findings;
}

// ---- fleet_day ----------------------------------------------------

double
columnEnergyMwh(const FleetDayResult &r)
{
    double joules = 0.0;
    for (const double watts : r.minutePowerW)
        joules += watts * 60.0;
    return joules / kJoulesPerMwh;
}

Findings
checkFleetDay(const FleetDayResult &r)
{
    Findings findings(2);
    Failures &session = findings[0];
    const std::size_t minutes = r.minutePowerW.size();
    expect(minutes > 0 && r.minuteFeedW.size() == minutes,
           "fleet: per-minute power and feed columns missing", session);
    if (minutes == 0 || r.minuteFeedW.size() != minutes)
        return findings;

    std::size_t over = 0;
    double feed_joules = 0.0;
    for (std::size_t m = 0; m < minutes; ++m) {
        if (!(r.minutePowerW[m] <= r.minuteFeedW[m]))
            ++over;
        feed_joules += r.minuteFeedW[m] * 60.0;
    }
    expect(over == 0,
           "fleet session: fleet power above the feed in " +
               str(double(over)) + " of " + str(double(minutes)) +
               " minutes",
           session);

    const double integral = columnEnergyMwh(r);
    expect(std::abs(r.session.energyMwh - integral) <=
               1e-9 * std::abs(integral),
           "fleet session: energy " + str(r.session.energyMwh) +
               " MWh, column integral " + str(integral) + " MWh",
           session);

    const double horizon_s = 60.0 * static_cast<double>(minutes);
    const double floor_mwh = r.idleFloorW * horizon_s / kJoulesPerMwh;
    const double ceil_mwh = feed_joules / kJoulesPerMwh;
    const std::pair<const char *, double> energies[] = {
        {"session", r.session.energyMwh},
        {"rack-aggregate", r.rackAggregate.energyMwh}};
    for (std::size_t i = 0; i < 2; ++i) {
        const auto &[name, energy] = energies[i];
        expect(energy >= floor_mwh && energy <= ceil_mwh,
               std::string("fleet ") + name + ": energy " + str(energy) +
                   " MWh outside [" + str(floor_mwh) + ", " +
                   str(ceil_mwh) + "]",
               findings[i]);
    }

    expect(r.cappedMinutes > 0 && r.cappedMinutes < minutes,
           "fleet session: capping fired in " +
               str(double(r.cappedMinutes)) + " of " +
               str(double(minutes)) + " minutes, not for part of the day",
           session);
    expect(r.aggregatorTicks == minutes && r.recorderTicks == minutes,
           "fleet session: observers ticked " +
               str(double(r.aggregatorTicks)) + " / " +
               str(double(r.recorderTicks)) + " times in " +
               str(double(minutes)) + " minutes",
           session);
    expect(r.session.fleet.servers == r.servers,
           "fleet session: reports " +
               str(double(r.session.fleet.servers)) + " servers, built " +
               str(double(r.servers)),
           session);
    return findings;
}

// ---- digests ------------------------------------------------------

void
Digest::add(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        state ^= (value >> (8 * i)) & 0xffu;
        state *= 1099511628211ull;
    }
}

void
Digest::add(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

void
Digest::add(const std::string &value)
{
    for (const char c : value) {
        state ^= static_cast<unsigned char>(c);
        state *= 1099511628211ull;
    }
    add(static_cast<std::uint64_t>(value.size()));
}

namespace {

void
addOutcome(Digest &d, const autoscale::AutoScaleOutcome &o)
{
    d.add(o.p95Latency);
    d.add(o.meanLatency);
    d.add(static_cast<std::uint64_t>(o.maxVms));
    d.add(o.vmHours);
    d.add(o.avgFrequency);
    d.add(o.avgPowerPerVm);
    d.add(o.requests);
    d.add(static_cast<std::uint64_t>(o.trace.size()));
}

void
addOutcome(Digest &d, const fault::CrisisOutcome &o)
{
    d.add(o.healthyP99);
    d.add(o.crisisP99);
    d.add(o.recoverySeconds);
    d.add(static_cast<std::uint64_t>(o.slaMet));
    d.add(static_cast<std::uint64_t>(o.serversCrashed));
    d.add(static_cast<std::uint64_t>(o.scaleOuts));
    d.add(o.avgFrequency);
    d.add(o.requests);
    d.add(o.invariantChecks);
    d.add(o.invariantViolations);
    d.add(o.brownouts);
    d.add(o.detectSeconds);
    d.add(static_cast<std::uint64_t>(o.alertsRaised));
    d.add(static_cast<std::uint64_t>(o.faults.size()));
}

void
addOutcome(Digest &d, const cluster::DatacenterOutcome &o)
{
    d.add(o.energyMwh);
    d.add(o.meanFeedUtilization);
    d.add(o.cappingMinutesShare);
    d.add(o.overclockShare);
    d.add(o.cappedOverclockShare);
    d.add(o.speedupDelivered);
    d.add(static_cast<std::uint64_t>(o.fleet.servers));
    d.add(o.fleet.meanTj);
    d.add(o.fleet.peakTj);
    d.add(o.fleet.meanWearConsumed);
    d.add(o.fleet.meanWearCredit);
    d.add(o.fleet.meanServerPower);
}

} // namespace

std::uint64_t
digest(const StaircaseResult &r)
{
    Digest d;
    addOutcome(d, r.baseline);
    addOutcome(d, r.ocE);
    addOutcome(d, r.ocA);
    return d.value();
}

std::uint64_t
digest(const CrisisResult &r)
{
    Digest d;
    addOutcome(d, r.baseline);
    addOutcome(d, r.ocA);
    return d.value();
}

std::uint64_t
digest(const std::vector<ControlEpisode> &episodes)
{
    Digest d;
    for (const auto &e : episodes) {
        const auto &o = e.outcome;
        d.add(e.controller);
        addOutcome(d, o.datacenter);
        d.add(o.p99LatencyS);
        d.add(o.requests);
        d.add(o.energyMwh);
        d.add(o.meanFleetPowerW);
        d.add(o.maxTjC);
        d.add(o.wearConsumed);
        d.add(o.totalCostUsd);
        d.add(o.slaViolationShare);
        d.add(o.meanCeilingGhz);
        d.add(static_cast<std::uint64_t>(o.epochs));
    }
    return d.value();
}

std::uint64_t
digest(const FleetDayResult &r)
{
    Digest d;
    for (const double w : r.minutePowerW)
        d.add(w);
    for (const double w : r.minuteFeedW)
        d.add(w);
    d.add(static_cast<std::uint64_t>(r.cappedMinutes));
    addOutcome(d, r.session);
    addOutcome(d, r.rackAggregate);
    return d.value();
}

} // namespace perfbench
