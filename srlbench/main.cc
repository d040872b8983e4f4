/**
 * @file
 * srlbench entry point: parses the run arguments, runs one workload, and
 * prints its result as the last line of stdout:
 *
 *   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end set, measured without
 * spans; with --trace 1 they are the per-layer set of a traced run.
 * Exit status is 0 when the run completed (a failed operation is
 * reported in "failed", not through the exit code) and non-zero on a
 * usage error or an exception, in which case no result is printed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hh"

using namespace srlbench;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fig6_sweep|sampled_smarts|"
                 "served_campaign --seed N --seconds S --trace 0|1\n",
                 argv0);
    std::exit(2);
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s, &end, 10);
    return errno == 0 && end != s && *end == '\0' && s[0] != '-';
}

void
printResult(const Outcome &out, bool trace)
{
    const auto &names = trace ? perLayerMetrics() : endToEndMetrics();
    std::string json = "{\"correct\": ";
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, unit] : names) {
        const auto it = out.metrics.find(name);
        const double v = it == out.metrics.end() ? 0.0 : it->second;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
        json += first ? "" : ", ";
        json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    args.process_start = Clock::now();
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t n = 0;
        if (!v)
            usage(argv[0]);
        if (std::strcmp(argv[i], "--workload") == 0) {
            args.workload = v;
        } else if (std::strcmp(argv[i], "--seed") == 0 && parseU64(v, n)) {
            args.seed = n;
            have_seed = true;
        } else if (std::strcmp(argv[i], "--seconds") == 0 &&
                   parseU64(v, n) && n >= 1 && n <= 3600) {
            args.seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (std::strcmp(argv[i], "--trace") == 0 && parseU64(v, n) &&
                   n <= 1) {
            args.trace = n == 1;
            have_trace = true;
        } else {
            usage(argv[0]);
        }
        ++i;
    }
    if (!have_seed || !have_seconds || !have_trace)
        usage(argv[0]);

    void (*workload)(const Args &, Outcome &) = nullptr;
    if (args.workload == "fig6_sweep")
        workload = runFig6Sweep;
    else if (args.workload == "sampled_smarts")
        workload = runSampledSmarts;
    else if (args.workload == "served_campaign")
        workload = runServedCampaign;
    else
        usage(argv[0]);

    std::filesystem::create_directories(workDir());
    std::fprintf(stderr, "srlbench: %s seed %llu, %.0f s, trace %d, %s build\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds,
                 args.trace ? 1 : 0, SRLBENCH_BUILD_TYPE);
    Outcome out;
    try {
        workload(args, out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "srlbench: %s aborted: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
    if (out.attempted == 0) {
        std::fprintf(stderr, "srlbench: no operation attempted\n");
        return 1;
    }
    printResult(out, args.trace);
    return 0;
}
