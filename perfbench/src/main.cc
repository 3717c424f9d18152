/**
 * @file
 * Benchmark driver: one workload at one seed, single-threaded.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * A run builds the workload's inputs, runs one untimed warm-up pass,
 * then identical timed passes while the next one fits in S seconds (at
 * least three), and checks every pass's outputs and that each
 * reproduces the warm-up pass bit for bit. Each pass times the CPU
 * time of its segments (the library calls that build its simulators,
 * then each episode) from outside. Successive rounds of passes run on successive
 * CPUs of those the process may use. The last stdout line is one JSON
 * object:
 *
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * --trace 0 reports the end-to-end metrics: pass_cpu_s (one pass with
 * each segment at its fastest over the timed passes), setup_s (the
 * process's CPU time from its start to the first simulated step of the
 * warm-up pass, i.e. one cold set-up) and peak_rss_mb. --trace 1
 * alternates untraced and traced passes and reports the per-layer
 * metrics (wall time) of the fastest traced pass.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "layers.hh"
#include "ledger.hh"
#include "obs/profiler.hh"
#include "workloads.hh"

using namespace perfbench;
using imsim::obs::Profiler;

namespace {

struct Args
{
    Workload workload = Workload::ScalerStaircase;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S"
                 " --trace 0|1\nworkloads:";
    for (const Workload w : allWorkloads())
        std::cerr << ' ' << workloadName(w);
    std::cerr << '\n';
    std::exit(2);
}

long long
parseInteger(const std::string &flag, const std::string &text)
{
    try {
        std::size_t used = 0;
        const long long value = std::stoll(text, &used);
        if (used == text.size() && value >= 0)
            return value;
    } catch (const std::exception &) {
    }
    usage("bad value for " + flag + ": '" + text + "'");
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            if (!parseWorkload(value, args.workload))
                usage("unknown workload '" + value + "'");
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed =
                static_cast<std::uint64_t>(parseInteger(flag, value));
            have_seed = true;
        } else if (flag == "--seconds") {
            const long long s = parseInteger(flag, value);
            if (s < 1 || s > 3600)
                usage("--seconds must be in [1, 3600]");
            args.seconds = static_cast<double>(s);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            args.trace = value == "1";
            have_trace = true;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    return args;
}

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
        }
    }
    return cpus;
}

/**
 * Run on @p cpu only. On a shared host each virtual CPU has slow
 * stretches of its own (another tenant busy on the same core), so
 * passes spread over the CPUs give each segment a fast run to show.
 */
void
pinTo(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

void
printResult(const Ledger &ledger, const std::vector<Metric> &metrics)
{
    std::cout << "{\"correct\": " << (ledger.correct() ? "true" : "false")
              << ", \"attempted\": " << ledger.attempted()
              << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        std::cout << (i ? ", " : "") << '"' << metrics[i].name
                  << "\": {\"value\": " << value << ", \"unit\": \""
                  << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    const Inputs inputs = makeInputs(args.workload, args.seed, Size::Full);
    const Ledger::Pass pass = [&inputs](CpuClock::time_point &first_step) {
        return runPass(inputs, first_step);
    };
    Ledger ledger(episodesPerPass(inputs), std::cerr);
    CpuClock::time_point first_step{};
    PassResult result;
    if (ledger.run(pass, first_step, result, "warm-up") < 0.0) {
        printResult(ledger, {});
        return 1;
    }
    const double setup_s =
        std::chrono::duration<double>(first_step.time_since_epoch()).count();

    // Timed passes while the next one (estimated by the last) still
    // fits in the budget, at least three (pairs in traced runs), each
    // round on the next CPU.
    const std::vector<int> cpus = allowedCpus();
    std::vector<double> untraced;
    std::vector<std::vector<double>> untraced_segments;
    std::vector<double> traced;
    std::vector<imsim::obs::ProfileReport> profiles;
    std::vector<PassResult> traced_results;
    const Clock::time_point timed_start = Clock::now();
    const std::size_t min_rounds = args.trace ? 2 : 3;
    double round_s = 0.0;
    for (std::size_t round = 0;
         round < min_rounds ||
         seconds(timed_start, Clock::now()) + round_s <= args.seconds;
         ++round) {
        if (!cpus.empty())
            pinTo(cpus[round % cpus.size()]);
        const Clock::time_point round_start = Clock::now();
        const double t = ledger.run(pass, first_step, result, "timed");
        if (t >= 0.0) {
            untraced.push_back(t);
            untraced_segments.push_back(result.segmentSeconds);
            std::cout << "timed pass: " << t << " s\n";
        }
        if (args.trace) {
            Profiler::reset();
            Profiler::setEnabled(true);
            const double tt =
                ledger.run(pass, first_step, result, "traced");
            Profiler::setEnabled(false);
            if (tt >= 0.0) {
                traced.push_back(tt);
                profiles.push_back(Profiler::report());
                traced_results.push_back(result);
                std::cout << "traced pass: " << tt << " s\n";
            }
        }
        round_s = seconds(round_start, Clock::now());
    }

    const double pass_cpu_s = fastestSegmentsSeconds(untraced_segments);
    std::vector<Metric> metrics;
    if (untraced.empty() || (args.trace && traced.empty())) {
        ledger.fail("no pass could be timed");
    } else if (pass_cpu_s <= 0.0) {
        ledger.fail("the passes did not time the same segments");
    } else if (!args.trace) {
        struct rusage usage_now {};
        getrusage(RUSAGE_SELF, &usage_now);
        metrics = {
            {"pass_cpu_s", "s", pass_cpu_s},
            {"setup_s", "s", setup_s},
            {"peak_rss_mb", "MB",
             static_cast<double>(usage_now.ru_maxrss) / 1024.0},
        };
    } else {
        const std::size_t m = static_cast<std::size_t>(
            std::min_element(traced.begin(), traced.end()) -
            traced.begin());
        std::vector<std::string> unmapped;
        metrics = layerMetrics(
            profiles[m], traced_results[m], traced[m],
            *std::min_element(untraced.begin(), untraced.end()), unmapped);
        for (const auto &name :
             std::set<std::string>(unmapped.begin(), unmapped.end()))
            std::cerr << "perfbench: scope " << name
                      << " maps to no layer (counted as unattributed)\n";
    }
    printResult(ledger, metrics);
    return ledger.correct() ? 0 : 1;
}
