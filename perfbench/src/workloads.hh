/**
 * @file
 * The benchmark's four workloads. Each pass builds its simulators from
 * inputs generated out of the seed, runs every episode single-threaded
 * through the library's public entry points, and checks the outcomes.
 *
 *  - scaler_staircase: the Table XI staircase (Baseline, OC-E, OC-A);
 *    the auto-scaler's decision path does most of the work.
 *  - capacity_crisis: Baseline and OC-A losing 20 % of the fleet; the
 *    only workload with fault injection, invariant checks, the SLO
 *    watchdog and the trailing-tail sketch.
 *  - control_day: six controllers stepped through ControlEnv over the
 *    crisis day; the queueing proxy dominates, no auto-scaler runs.
 *  - fleet_day: a large per-server fleet stepped minute by minute with
 *    the fleet observers, plus a rack-aggregate run over the same
 *    racks; no event kernel or queueing runs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "checks.hh"

namespace perfbench {

/** Wall time: the run's time budget and the traced passes. */
using Clock = std::chrono::steady_clock;

/**
 * CPU time the process has used since it started
 * (CLOCK_PROCESS_CPUTIME_ID). The library runs single-threaded here,
 * so this is the wall time of the benchmark's work less the time the
 * host ran other tenants on the benchmark's virtual CPU (steal), which
 * wall time counts and which comes and goes from run to run.
 */
struct CpuClock
{
    using duration = std::chrono::nanoseconds;
    using rep = duration::rep;
    using period = duration::period;
    using time_point = std::chrono::time_point<CpuClock>;
    static constexpr bool is_steady = true;
    static time_point now() noexcept;
};

enum class Workload
{
    ScalerStaircase,
    CapacityCrisis,
    ControlDay,
    FleetDay,
};

/** @return every workload the program runs. BENCHMARK.json lists all
 *  but scaler_staircase, whose episodes are too long to time steadily
 *  on a shared host (see the README). */
const std::vector<Workload> &allWorkloads();

/** @return the workload's command-line name ("scaler_staircase"). */
const char *workloadName(Workload workload);

/** Parse a workload name; false when unknown. */
bool parseWorkload(const std::string &name, Workload &workload);

/** Full is what the benchmark measures; Tiny runs the same pipeline
 *  in well under a second per workload, for the self-tests. */
enum class Size
{
    Full,
    Tiny,
};

/** Generated inputs of one workload at one seed. */
struct Inputs
{
    Workload workload = Workload::ScalerStaircase;
    StaircaseInputs staircase;
    fault::CrisisParams crisis;
    control::ControlEnvConfig control;
    std::uint64_t controlSeed = 0;
    std::uint64_t banditSeed = 0;
    std::vector<cluster::RackConfig> fleetRacks;
    double fleetFeedW = 0.0;
    double fleetDays = 0.0;
    std::uint64_t fleetSessionSeed = 0; ///< Per-server session traces.
    std::uint64_t fleetSeed = 0;        ///< Rack-aggregate traces.
};

/** Make the inputs of @p workload from @p seed. */
Inputs makeInputs(Workload workload, std::uint64_t seed, Size size);

/** @return the episodes every pass over @p inputs runs. */
std::size_t episodesPerPass(const Inputs &inputs);

/** One pass: what it did, whether it was right, and its digest. */
struct PassResult
{
    std::size_t episodes = 0;   ///< Simulation episodes (operations).
    std::uint64_t digest = 0;   ///< Bit pattern of every outcome.
    Findings findings;          ///< Check failures, per episode.
    /** CPU seconds of the pass's segments, in run order: the library
     *  calls that build its simulators, then each episode's calls.
     *  The benchmark's own checks and digest lie outside them. */
    std::vector<double> segmentSeconds;
    // Work counts for the per-layer metrics.
    double requests = 0.0;      ///< Requests completed.
    double serverMinutes = 0.0; ///< Per-server physics server-minutes.
    double cappedMinutes = 0.0; ///< fleet_day minutes with capping.
    double epochs = 0.0;        ///< ControlEnv epochs stepped.
    double faults = 0.0;        ///< Faults injected.
    double invariantChecks = 0.0;
};

/**
 * Run one pass. @p first_step is set to the process's CPU time when
 * the pass's first simulated step begins (after its inputs and
 * simulators are built), unless it is already set.
 */
PassResult runPass(const Inputs &inputs, CpuClock::time_point &first_step);

/**
 * CPU seconds of one pass with each segment at its fastest over
 * @p passes (the segmentSeconds of each pass). Other tenants of a
 * shared host slow whole stretches of seconds; the fastest time of each
 * segment is the one no such stretch inflated.
 *
 * @return the sum, or a negative value when @p passes is empty or its
 *         passes do not have the same number of segments.
 */
double fastestSegmentsSeconds(
    const std::vector<std::vector<double>> &passes);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
