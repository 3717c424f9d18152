/**
 * @file
 * Tally of a run's passes: operations attempted and failed, and whether
 * the run is correct.
 *
 * A pass is one round of the workload's episodes (operations). An
 * episode fails when one of its checks fails, and a pass that throws
 * fails all of its episodes. The run is not correct when a pass throws,
 * runs another number of episodes than the workload has, or does not
 * reproduce the first pass's outcomes bit for bit.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <functional>
#include <iosfwd>

#include "workloads.hh"

namespace perfbench {

class Ledger
{
  public:
    /** One pass; sets its first-step instant like runPass. */
    using Pass = std::function<PassResult(CpuClock::time_point &)>;

    /** @param episodes_per_pass  Episodes every pass must run. */
    Ledger(std::size_t episodes_per_pass, std::ostream &log);

    /**
     * Run and tally one pass. The first pass run is the reference the
     * others must reproduce.
     *
     * @return the pass's host seconds, or a negative value when it
     *         threw.
     */
    double run(const Pass &pass, CpuClock::time_point &first_step,
               PassResult &result, const char *label);

    /** Mark the run incorrect, e.g. when no pass could be timed. */
    void fail(const std::string &why);

    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }
    bool correct() const { return correct_; }

  private:
    std::size_t episodesPerPass;
    std::ostream &log;
    bool haveReference = false;
    std::uint64_t referenceDigest = 0;
    Findings referenceFindings;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    bool correct_ = true;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
