/**
 * @file
 * Shared helpers for the experiment harnesses: argument parsing, the
 * suite loop, and table formatting. Every bench binary reproduces one
 * table or figure of the paper and prints the same rows/series the
 * paper reports, alongside the paper's published values where the
 * paper gives them (bar charts are read off the figure, so those
 * references are approximate).
 */

#ifndef SRLSIM_BENCHUTIL_HH
#define SRLSIM_BENCHUTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "runner/sweep.hh"
#include "workload/profile.hh"

namespace srl
{
namespace bench
{

struct BenchArgs
{
    std::uint64_t uops = 200000;
    std::vector<workload::SuiteProfile> suites =
        workload::suiteProfiles();
    unsigned jobs = 0;        ///< sweep workers; 0 = all hardware threads
    std::uint64_t seed = 0;   ///< 0 = each suite's canonical seed
};

inline BenchArgs
parseArgs(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--uops") == 0 && i + 1 < argc) {
            args.uops = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--suite") == 0 && i + 1 < argc) {
            args.suites = {workload::suiteProfile(argv[++i])};
        } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            args.jobs =
                static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--uops N] [--suite NAME] "
                         "[--jobs N] [--seed S]\n",
                         argv[0]);
            std::exit(1);
        }
    }
    return args;
}

inline runner::SweepOptions
sweepOptions(const BenchArgs &args)
{
    runner::SweepOptions opts;
    opts.jobs = args.jobs;
    opts.seed = args.seed;
    return opts;
}

/** IPC of run @p idx; fatal if that run failed. */
inline double
runIpc(const stats::StatsReport &rep, std::size_t idx)
{
    const stats::RunRecord &r = rep.runs.at(idx);
    if (r.failed()) {
        std::fprintf(stderr, "run '%s' failed: %s\n", r.name.c_str(),
                     r.error.c_str());
        std::exit(1);
    }
    return r.metric("ipc");
}

/** Print a header row: label column plus one column per suite. */
inline void
printSuiteHeader(const char *label,
                 const std::vector<workload::SuiteProfile> &suites)
{
    std::printf("%-34s", label);
    for (const auto &s : suites)
        std::printf(" %8s", s.name.c_str());
    std::printf("\n");
}

/** Print one series row. */
inline void
printRow(const std::string &label, const std::vector<double> &values)
{
    std::printf("%-34s", label.c_str());
    for (const double v : values)
        std::printf(" %8.2f", v);
    std::printf("\n");
}

/** Model-throughput summary of one timed sweep. */
struct BenchTiming
{
    double wall_s = 0;          ///< host wall-clock for the whole sweep
    std::uint64_t uops = 0;     ///< uops simulated, summed over runs
    std::uint64_t sim_cycles = 0; ///< cycles simulated, summed over runs
    double uopsPerSec() const { return wall_s > 0 ? uops / wall_s : 0; }
    double
    simCyclesPerSec() const
    {
        return wall_s > 0 ? sim_cycles / wall_s : 0;
    }
};

/** Print the standard timing footer (host wall time + model rates). */
inline void
printTiming(const BenchTiming &t)
{
    std::printf("timing: wall %.3f s | %llu uops (%.0f uops/s) | "
                "%llu sim cycles (%.0f cycles/s)\n",
                t.wall_s, static_cast<unsigned long long>(t.uops),
                t.uopsPerSec(),
                static_cast<unsigned long long>(t.sim_cycles),
                t.simCyclesPerSec());
}

/**
 * Run configs x suites through the sweep runner (all points in one
 * parallel batch, baseline included) and print one row per
 * non-baseline config as percent speedup over configs[0], followed by
 * a timing footer.
 */
inline void
runAndPrintSpeedups(
    const std::vector<std::pair<std::string, core::ProcessorConfig>>
        &configs,
    const BenchArgs &args)
{
    const auto points =
        runner::matrixPoints(configs, args.suites, args.uops);
    const auto t0 = std::chrono::steady_clock::now();
    const auto rep = runner::runSweep(points, sweepOptions(args));
    const auto t1 = std::chrono::steady_clock::now();
    const std::size_t ns = args.suites.size();
    for (std::size_t c = 1; c < configs.size(); ++c) {
        std::vector<double> row;
        for (std::size_t s = 0; s < ns; ++s) {
            row.push_back(core::percentSpeedup(
                runIpc(rep, c * ns + s), runIpc(rep, s)));
        }
        printRow(configs[c].first, row);
    }

    BenchTiming t;
    t.wall_s = std::chrono::duration<double>(t1 - t0).count();
    for (const auto &r : rep.runs) {
        if (r.failed())
            continue;
        t.uops += static_cast<std::uint64_t>(r.metric("uops"));
        t.sim_cycles += static_cast<std::uint64_t>(r.metric("cycles"));
    }
    printTiming(t);
}

} // namespace bench
} // namespace srl

#endif // SRLSIM_BENCHUTIL_HH
