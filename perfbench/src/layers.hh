/**
 * @file
 * Per-layer metrics of a traced pass: obs::Profiler self times of the
 * library's own scopes and of the benchmark's scopes around public
 * calls, folded by layer, with the work counts each layer did.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "obs/profiler.hh"
#include "workloads.hh"

namespace perfbench {

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * Every per-layer metric, in BENCHMARK.json order. A layer's *_s value
 * is the summed self time of its scopes, so the *_s values plus
 * unattributed_s add up to @p traced_pass_s exactly.
 *
 * @param profile          Profile of one traced pass.
 * @param pass             That pass's work counts.
 * @param traced_pass_s    Host seconds of that traced pass.
 * @param untraced_pass_s  Host seconds of a comparable untraced pass.
 * @param unmapped         Receives scope names no layer claims (their
 *                         time lands in unattributed_s).
 */
std::vector<Metric> layerMetrics(const imsim::obs::ProfileReport &profile,
                                 const PassResult &pass,
                                 double traced_pass_s,
                                 double untraced_pass_s,
                                 std::vector<std::string> &unmapped);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
