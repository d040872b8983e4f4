/**
 * @file
 * Throughput benchmark of the two-tier sampled-simulation engine
 * (runner::runSampledPipelined, DESIGN.md §14, one detail worker).
 * Runs the same 2M-uop SRL design
 * point twice — fully detailed through core::runOne, then sampled with
 * ~10% detailed coverage (per-interval plan 880k ff / 20k warm / 100k
 * detail => 2 intervals) — and reports:
 *
 *   - end-to-end speedup of the sampled run over the detailed run
 *     (the quantity the CI perf gate tracks via uops_per_s: "uops
 *     covered per second of host time");
 *   - fast-forward engine throughput vs the detailed model's, the
 *     >= 20x contract the functional engine is built to;
 *   - the sampled run's IPC error vs the fully detailed IPC, for
 *     context on what the 10% sample costs in accuracy.
 *
 * The JSON summary (--json-out) carries wall_s/uops/uops_per_s for
 * tools/bench_gate.py plus the split rates and speedups as extra keys.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <ctime>

#include "bench_util.hh"
#include "runner/sampled.hh"

using namespace srl;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::parseArgs(argc, argv);
    args.uops = args.uops == 200000 ? 2000000 : args.uops;
    const workload::SuiteProfile suite = args.suites.front();
    const core::ProcessorConfig cfg = core::srlConfig();

    // ~10% detailed coverage: scale the canonical 880k/20k/100k plan
    // so --uops keeps the ratio rather than the absolute interval.
    runner::SampledOptions sopts;
    sopts.plan.ff_uops = args.uops * 44 / 100;
    sopts.plan.warm_uops = args.uops / 100;
    sopts.plan.detail_uops = args.uops * 5 / 100;

    const auto t0 = std::chrono::steady_clock::now();
    const core::RunResult detailed =
        core::runOne(cfg, suite, args.uops, args.seed);
    const auto t1 = std::chrono::steady_clock::now();
    const runner::SampledResult sampled = runner::runSampledPipelined(
        cfg, suite, args.uops, args.seed, sopts);
    const auto t2 = std::chrono::steady_clock::now();

    const double detailed_wall =
        std::chrono::duration<double>(t1 - t0).count();
    const double sampled_wall =
        std::chrono::duration<double>(t2 - t1).count();
    const double detailed_rate =
        detailed_wall > 0 ? args.uops / detailed_wall : 0;
    const std::uint64_t ff_total =
        sampled.ff_uops + sampled.warm_uops;
    const double ff_rate =
        sampled.ff_wall_s > 0 ? ff_total / sampled.ff_wall_s : 0;
    const double speedup =
        sampled_wall > 0 ? detailed_wall / sampled_wall : 0;

    const double detailed_ipc =
        detailed.stats.cycles
            ? static_cast<double>(detailed.stats.committed_uops) /
                  static_cast<double>(detailed.stats.cycles)
            : 0;
    const double sampled_ipc =
        sampled.stats.cycles
            ? static_cast<double>(sampled.stats.committed_uops) /
                  static_cast<double>(sampled.stats.cycles)
            : 0;

    std::printf("ff_sampled: %" PRIu64 " uops on %s (plan %" PRIu64
                "/%" PRIu64 "/%" PRIu64 ", %" PRIu64 " intervals)\n",
                args.uops, suite.name.c_str(), sopts.plan.ff_uops,
                sopts.plan.warm_uops, sopts.plan.detail_uops,
                sampled.intervals_run);
    std::printf("detailed: %.3f s (%.0f uops/s)\n", detailed_wall,
                detailed_rate);
    std::printf("sampled:  %.3f s (ff %.3f s, detail %.3f s) | "
                "end-to-end speedup %.1fx\n",
                sampled_wall, sampled.ff_wall_s,
                sampled.detail_wall_s, speedup);
    std::printf("ff engine: %.0f uops/s = %.1fx the detailed model\n",
                ff_rate, detailed_rate > 0 ? ff_rate / detailed_rate : 0);
    std::printf("ipc: detailed %.3f vs sampled %.3f (%.1f%% error at "
                "%.0f%% coverage)\n",
                detailed_ipc, sampled_ipc,
                detailed_ipc > 0
                    ? 100.0 * (sampled_ipc - detailed_ipc) / detailed_ipc
                    : 0,
                100.0 * static_cast<double>(sampled.detail_uops) /
                    static_cast<double>(args.uops));

    bench::BenchTiming t;
    t.wall_s = sampled_wall;
    t.uops = args.uops; // uops *covered* per host second is the gated rate
    t.sim_cycles = sampled.stats.cycles;
    bench::printTiming(t);

    if (!args.json_out.empty()) {
        // writeBenchJson's shape plus the split rates (extra keys are
        // fine for the gate).
        std::FILE *f = std::fopen(args.json_out.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         args.json_out.c_str());
            return 1;
        }
        const char *commit = std::getenv("SRLSIM_COMMIT");
#ifdef SRLSIM_GIT_HEAD
        if (!commit)
            commit = SRLSIM_GIT_HEAD;
#endif
        char date[32] = "unknown";
        const std::time_t now = std::time(nullptr);
        std::tm tm_utc{};
        if (gmtime_r(&now, &tm_utc))
            std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ",
                          &tm_utc);
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"ff_sampled\",\n"
            "  \"commit\": \"%s\",\n"
            "  \"date\": \"%s\",\n"
            "  \"wall_s\": %.6f,\n"
            "  \"uops\": %llu,\n"
            "  \"uops_per_s\": %.1f,\n"
            "  \"sim_cycles\": %llu,\n"
            "  \"sim_cycles_per_s\": %.1f,\n"
            "  \"detailed_wall_s\": %.6f,\n"
            "  \"detailed_uops_per_s\": %.1f,\n"
            "  \"ff_uops_per_s\": %.1f,\n"
            "  \"speedup_vs_detailed\": %.2f,\n"
            "  \"ff_speedup_vs_detailed\": %.2f,\n"
            "  \"config\": {\n"
            "    \"uops_per_run\": %llu,\n"
            "    \"suites\": 1,\n"
            "    \"jobs\": %u,\n"
            "    \"seed\": %llu\n"
            "  }\n"
            "}\n",
            commit ? commit : "unknown", date, t.wall_s,
            static_cast<unsigned long long>(t.uops), t.uopsPerSec(),
            static_cast<unsigned long long>(t.sim_cycles),
            t.simCyclesPerSec(), detailed_wall, detailed_rate, ff_rate,
            speedup, detailed_rate > 0 ? ff_rate / detailed_rate : 0,
            static_cast<unsigned long long>(args.uops), args.jobs,
            static_cast<unsigned long long>(args.seed));
        std::fclose(f);
    }
    return 0;
}
