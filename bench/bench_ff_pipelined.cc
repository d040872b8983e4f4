/**
 * @file
 * Throughput benchmark of the sampled engine's detail-worker pool
 * (runner::runSampledPipelined, DESIGN.md §14). Runs the same 2M-uop
 * SRL design point with 1 detail worker and with 4 under a ~25%
 * detailed-coverage plan (per-interval
 * 176k ff / 10k warm / 64k detail => 8 intervals at 2M uops), and
 * reports:
 *
 *   - the gated quantity: end-to-end uops covered per host second of
 *     the 4-worker run (tools/bench_gate.py tracks
 *     uops_per_s against the committed baseline);
 *   - the machine-readable parallel speedup of 4 workers over 1
 *     (speedup_jobs4_vs_jobs1) — the overlap the pipeline exists to
 *     buy; on a single-core host it degrades toward 1.0 and the
 *     absolute rate is what the gate holds the line on.
 *
 * Each phase is timed with repeatForAtLeast so sub-second runs are
 * amortized over a noise-resistant window.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
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

    // ~25% detailed coverage, 8 intervals at the canonical 2M uops;
    // scaled with --uops so the interval count stays put.
    runner::SampledOptions sopts;
    sopts.plan.ff_uops = args.uops * 88 / 1000;
    sopts.plan.warm_uops = args.uops * 5 / 1000;
    sopts.plan.detail_uops = args.uops * 32 / 1000;

    constexpr double kMinWindowS = 0.25;

    runner::SampledResult jobs1, jobs4;
    sopts.sample_jobs = 1;
    const bench::RepeatTiming t_jobs1 =
        bench::repeatForAtLeast(kMinWindowS, [&] {
            jobs1 = runner::runSampledPipelined(cfg, suite, args.uops,
                                                args.seed, sopts);
        });

    sopts.sample_jobs = 4;
    const bench::RepeatTiming t_jobs4 =
        bench::repeatForAtLeast(kMinWindowS, [&] {
            jobs4 = runner::runSampledPipelined(cfg, suite, args.uops,
                                                args.seed, sopts);
        });

    const double jobs1_wall = t_jobs1.perIterS();
    const double jobs4_wall = t_jobs4.perIterS();
    const double speedup_4v1 =
        jobs4_wall > 0 ? jobs1_wall / jobs4_wall : 0;

    std::printf("ff_pipelined: %" PRIu64 " uops on %s (plan %" PRIu64
                "/%" PRIu64 "/%" PRIu64 ", %" PRIu64 " intervals)\n",
                args.uops, suite.name.c_str(), sopts.plan.ff_uops,
                sopts.plan.warm_uops, sopts.plan.detail_uops,
                jobs4.intervals_run);
    std::printf("1 worker:   %.3f s/run (x%" PRIu64
                ", producer %.3f s, detail sum %.3f s)\n",
                jobs1_wall, t_jobs1.iters, jobs1.ff_wall_s,
                jobs1.detail_wall_s);
    std::printf("4 workers:  %.3f s/run (x%" PRIu64
                ", producer %.3f s, detail sum %.3f s)\n",
                jobs4_wall, t_jobs4.iters, jobs4.ff_wall_s,
                jobs4.detail_wall_s);
    std::printf("speedup: 4 wkrs vs 1 wkr %.2fx\n", speedup_4v1);

    bench::BenchTiming t;
    t.wall_s = jobs4_wall;
    t.uops = args.uops; // uops *covered* per host second is gated
    t.sim_cycles = jobs4.stats.cycles;
    bench::printTiming(t);

    if (!args.json_out.empty()) {
        // writeBenchJson's shape plus the per-mode walls and the
        // machine-readable speedup ratios (extra keys are fine for
        // the gate).
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
            "  \"bench\": \"ff_pipelined\",\n"
            "  \"commit\": \"%s\",\n"
            "  \"date\": \"%s\",\n"
            "  \"wall_s\": %.6f,\n"
            "  \"uops\": %llu,\n"
            "  \"uops_per_s\": %.1f,\n"
            "  \"sim_cycles\": %llu,\n"
            "  \"sim_cycles_per_s\": %.1f,\n"
            "  \"jobs1_wall_s\": %.6f,\n"
            "  \"jobs4_wall_s\": %.6f,\n"
            "  \"speedup_jobs4_vs_jobs1\": %.2f,\n"
            "  \"config\": {\n"
            "    \"uops_per_run\": %llu,\n"
            "    \"suites\": 1,\n"
            "    \"jobs\": 4,\n"
            "    \"seed\": %llu\n"
            "  }\n"
            "}\n",
            commit ? commit : "unknown", date, t.wall_s,
            static_cast<unsigned long long>(t.uops), t.uopsPerSec(),
            static_cast<unsigned long long>(t.sim_cycles),
            t.simCyclesPerSec(), jobs1_wall, jobs4_wall, speedup_4v1,
            static_cast<unsigned long long>(args.uops),
            static_cast<unsigned long long>(args.seed));
        std::fclose(f);
    }
    return 0;
}
