#include "layers.hh"

#include <map>

namespace perfbench {

namespace {

/** Scope name (library or benchmark) -> the layer metric it feeds. */
const std::map<std::string, std::string> &
scopeLayers()
{
    static const std::map<std::string, std::string> layers{
        {"autoscale.decide", "autoscale.decide_s"},
        {"workload.queueing.arrival", "workload.arrival_s"},
        {"power.allocate", "power.allocate_s"},
        {"datacenter.minute", "cluster.minute_s"},
        {"cluster.minute", "cluster.minute_s"},
        {"datacenter.run", "cluster.rack_aggregate_s"},
        {"cluster.rack_aggregate", "cluster.rack_aggregate_s"},
        {"cluster.session_setup", "cluster.session_setup_s"},
        {"obs.aggregate", "obs.aggregate_s"},
        {"obs.watchdog", "obs.watchdog_s"},
        {"obs.recorder", "obs.recorder_s"},
        {"control.step", "control.step_s"},
        {"control.decide", "control.decide_s"},
    };
    return layers;
}

double
ratio(double num, double den, double scale)
{
    return den > 0.0 ? num / den * scale : 0.0;
}

} // namespace

std::vector<Metric>
layerMetrics(const imsim::obs::ProfileReport &profile,
             const PassResult &pass, double traced_pass_s,
             double untraced_pass_s, std::vector<std::string> &unmapped)
{
    std::map<std::string, double> self_s;
    std::map<std::string, double> calls;
    double attributed = 0.0;
    for (const auto &entry : profile.entries()) {
        const auto slash = entry.path.rfind('/');
        const std::string leaf = slash == std::string::npos
                                     ? entry.path
                                     : entry.path.substr(slash + 1);
        // The rack-aggregate loop times its minutes under the same
        // scope name as the per-server session; they belong to
        // cluster.rack_aggregate_s and are not session minutes.
        const bool in_aggregate =
            leaf == "datacenter.minute" &&
            entry.path.find("datacenter.run/") != std::string::npos;
        if (!in_aggregate)
            calls[leaf] += static_cast<double>(entry.count);
        const auto layer = scopeLayers().find(leaf);
        if (layer == scopeLayers().end()) {
            unmapped.push_back(leaf);
            continue;
        }
        self_s[in_aggregate ? "cluster.rack_aggregate_s" : layer->second] +=
            entry.selfMs * 1e-3;
        attributed += entry.selfMs * 1e-3;
    }

    const double decisions = calls["autoscale.decide"];
    const double arrivals = calls["workload.queueing.arrival"];
    return {
        {"autoscale.decide_s", "s", self_s["autoscale.decide_s"]},
        {"autoscale.decisions", "count", decisions},
        {"autoscale.decide_us", "us",
         ratio(self_s["autoscale.decide_s"], decisions, 1e6)},
        {"workload.arrival_s", "s", self_s["workload.arrival_s"]},
        {"workload.arrivals", "count", arrivals},
        {"workload.arrival_ns", "ns",
         ratio(self_s["workload.arrival_s"], arrivals, 1e9)},
        {"workload.requests", "count", pass.requests},
        {"power.allocate_s", "s", self_s["power.allocate_s"]},
        {"power.allocate_calls", "count", calls["power.allocate"]},
        {"cluster.minute_s", "s", self_s["cluster.minute_s"]},
        {"cluster.minutes", "count", calls["datacenter.minute"]},
        {"cluster.server_minute_ns", "ns",
         ratio(self_s["cluster.minute_s"], pass.serverMinutes, 1e9)},
        {"cluster.capped_minutes", "count", pass.cappedMinutes},
        {"cluster.rack_aggregate_s", "s",
         self_s["cluster.rack_aggregate_s"]},
        {"cluster.session_setup_s", "s",
         self_s["cluster.session_setup_s"]},
        {"obs.aggregate_s", "s", self_s["obs.aggregate_s"]},
        {"obs.watchdog_s", "s", self_s["obs.watchdog_s"]},
        {"obs.recorder_s", "s", self_s["obs.recorder_s"]},
        {"control.step_s", "s", self_s["control.step_s"]},
        {"control.epochs", "count", pass.epochs},
        {"control.step_us", "us",
         ratio(self_s["control.step_s"], pass.epochs, 1e6)},
        {"control.decide_s", "s", self_s["control.decide_s"]},
        {"fault.faults_injected", "count", pass.faults},
        {"fault.invariant_checks", "count", pass.invariantChecks},
        {"unattributed_s", "s", traced_pass_s - attributed},
        {"trace.overhead_s", "s", traced_pass_s - untraced_pass_s},
    };
}

} // namespace perfbench
