/**
 * @file
 * Outcomes of one benchmark pass per workload, the correctness checks
 * run on them, and the bit-exact digest that proves every timed pass
 * reproduces the warm-up pass.
 *
 * The checks compare the program's outputs against quantities the
 * benchmark computes apart from the program (offered load, queueing
 * capacity from the service model, its own energy integral) or against
 * properties the method must have (the paper's Table XI orderings,
 * Baseline never leaving the base clock, capping keeping the fleet
 * under the feed). The modelled results themselves are not metrics.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "autoscale/experiment.hh"
#include "cluster/datacenter.hh"
#include "control/env.hh"
#include "fault/experiment.hh"

namespace perfbench {

namespace autoscale = imsim::autoscale;
namespace cluster = imsim::cluster;
namespace control = imsim::control;
namespace fault = imsim::fault;

/** Check failures, one readable line each; empty means correct. */
using Failures = std::vector<std::string>;

/**
 * Check failures of one pass, one list per episode in run order. Every
 * check belongs to the episode whose outcome it judges; an episode (one
 * operation) fails when its list is not empty.
 */
using Findings = std::vector<Failures>;

/** @return the number of failed episodes in @p findings. */
std::size_t failedEpisodes(const Findings &findings);

/**
 * @return whether @p observed completed requests are within six
 * standard deviations of a Poisson count with mean @p offered.
 */
bool withinPoisson(double observed, double offered);

// ---- scaler_staircase ---------------------------------------------

/** Generated inputs of the Table XI staircase. */
struct StaircaseInputs
{
    autoscale::ExperimentParams params;
    std::vector<double> levels; ///< QPS per step, in order.
};

/** Outcome of one pass: the three policies on one staircase. */
struct StaircaseResult
{
    autoscale::AutoScaleOutcome baseline;
    autoscale::AutoScaleOutcome ocE;
    autoscale::AutoScaleOutcome ocA;
};

/** Offered requests of the staircase: sum of QPS x step duration. */
double staircaseOffered(const StaircaseInputs &inputs);

/** @return findings for Baseline, OC-E and OC-A, in that order. */
Findings checkStaircase(const StaircaseInputs &inputs,
                        const StaircaseResult &result);

// ---- capacity_crisis ----------------------------------------------

/** Outcome of one pass: Baseline and OC-A through the same crisis. */
struct CrisisResult
{
    fault::CrisisOutcome baseline;
    fault::CrisisOutcome ocA;
};

/**
 * Queueing capacity [QPS] of @p servers VMs at clock @p freq: each VM
 * serves threadsPerVm requests at once, and the mean service time
 * scales as kappa * (3.4 GHz / f) + (1 - kappa) of its base-clock
 * value (the scalable-fraction model of Sec. VI-D).
 */
double crisisCapacity(const fault::CrisisParams &params,
                      std::size_t servers, double freq);

/** @return findings for Baseline and OC-A, in that order. */
Findings checkCrisis(const fault::CrisisParams &params,
                     const CrisisResult &result);

// ---- control_day --------------------------------------------------

/** One controller's episode through the crisis day. */
struct ControlEpisode
{
    std::string controller;
    control::ControlOutcome outcome;
    std::size_t totalEpochs = 0;
    double minCeiling = 0.0; ///< SKU nominal frequency [GHz].
    double maxCeiling = 0.0; ///< SKU overclock frequency [GHz].
};

/** Inputs the control checks need besides the outcomes. */
struct ControlBounds
{
    double horizonS = 0.0;   ///< Simulated seconds per episode.
    double feedW = 0.0;      ///< Nominal feed capacity.
    double idleFloorW = 0.0; ///< Fleet power with every server idle.
};

/** @return findings for each of @p episodes, in order. */
Findings checkControl(const ControlBounds &bounds,
                      const std::vector<ControlEpisode> &episodes);

// ---- fleet_day ----------------------------------------------------

/**
 * Outcome of one pass: a per-server session stepped minute by minute,
 * plus a rack-aggregate run over the same racks.
 */
struct FleetDayResult
{
    std::size_t servers = 0;
    double idleFloorW = 0.0;          ///< Non-CPU power floor, fleet.
    std::vector<double> minutePowerW; ///< Fleet-power column sum.
    std::vector<double> minuteFeedW;  ///< Feed capacity in force.
    std::size_t cappedMinutes = 0;    ///< Minutes with a capped server.
    cluster::DatacenterOutcome session;
    cluster::DatacenterOutcome rackAggregate;
    std::size_t aggregatorTicks = 0;
    std::size_t recorderTicks = 0;
};

/** The benchmark's own energy integral of the column sums [MWh]. */
double columnEnergyMwh(const FleetDayResult &result);

/**
 * Check a fleet_day pass. Capping must keep the fleet-power column sum
 * under the feed in every minute, and the session's energy must equal
 * the column integral.
 *
 * @return findings for the per-server session and the rack-aggregate
 *         run, in that order.
 */
Findings checkFleetDay(const FleetDayResult &result);

// ---- digests ------------------------------------------------------

/** FNV-1a over the bit patterns of a pass's outcome fields. */
class Digest
{
  public:
    void add(double value);
    void add(std::uint64_t value);
    void add(const std::string &value);
    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = 1469598103934665603ull;
};

std::uint64_t digest(const StaircaseResult &result);
std::uint64_t digest(const CrisisResult &result);
std::uint64_t digest(const std::vector<ControlEpisode> &episodes);
std::uint64_t digest(const FleetDayResult &result);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
