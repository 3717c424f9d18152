#include "ledger.hh"

#include <exception>
#include <ostream>

namespace perfbench {

Ledger::Ledger(std::size_t episodes_per_pass, std::ostream &log)
    : episodesPerPass(episodes_per_pass), log(log)
{
}

void
Ledger::fail(const std::string &why)
{
    log << "perfbench: " << why << '\n';
    correct_ = false;
}

double
Ledger::run(const Pass &pass, CpuClock::time_point &first_step,
            PassResult &result, const char *label)
{
    const Clock::time_point t0 = Clock::now();
    try {
        result = pass(first_step);
    } catch (const std::exception &e) {
        attempted_ += episodesPerPass;
        failed_ += episodesPerPass;
        fail(std::string(label) + " pass threw: " + e.what());
        return -1.0;
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();

    attempted_ += result.episodes;
    failed_ += failedEpisodes(result.findings);
    if (result.episodes != episodesPerPass ||
        result.findings.size() != result.episodes) {
        fail(std::string(label) + " pass ran " +
             std::to_string(result.episodes) + " episodes with " +
             std::to_string(result.findings.size()) +
             " sets of findings, not " + std::to_string(episodesPerPass));
    }
    if (!haveReference) {
        haveReference = true;
        referenceDigest = result.digest;
        referenceFindings = result.findings;
        for (std::size_t i = 0; i < result.findings.size(); ++i) {
            for (const auto &failure : result.findings[i])
                log << "perfbench: episode " << i
                    << " failed a check: " << failure << '\n';
        }
    } else if (result.digest != referenceDigest ||
               result.findings != referenceFindings) {
        fail(std::string(label) +
             " pass did not reproduce the first pass");
    }
    return elapsed;
}

} // namespace perfbench
