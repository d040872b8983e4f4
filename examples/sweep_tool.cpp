/**
 * @file
 * Command-line sweep driver: runs the canonical SRL design-space sweep
 * (baseline, SRL depths, LCF size x hash, hierarchical, ideal — 11
 * points) through the parallel runner and writes a machine-readable
 * stats report.
 *
 *   sweep_tool --jobs 4 --seed 42 --out report.json
 *
 * The JSON report is byte-identical for a fixed (sweep, seed)
 * regardless of --jobs — CI runs the sweep at --jobs 1 and --jobs 4
 * and diffs the two files. Timing and job count are deliberately kept
 * out of the report for that reason; the wall-clock summary goes to
 * stderr. The same identity holds across execution backends: --server
 * and --cache-dir produce the byte-exact report of a direct local run.
 *
 * Options:
 *   --jobs N     worker threads (default: all hardware threads)
 *   --seed S     base RNG seed; 0 keeps suite-canonical seeds
 *   --out FILE   write JSON report ("-" = stdout; default "-")
 *   --csv FILE   also write the CSV rendering
 *   --suite NAME suite to sweep (default SFP2K)
 *   --uops N     uops per run (default 150000)
 *
 * Execution backends (default: simulate locally, nothing cached):
 *   --server SOCK      submit the sweep to a serve_tool daemon on the
 *                      given unix socket instead of simulating here
 *   --cache-dir DIR    simulate locally but memoize each point in a
 *                      content-addressed store; reruns with the same
 *                      (config, suite, uops, seed) replay from disk
 *   --server-stats FILE  after a --server sweep, fetch the daemon's
 *                      service/cache counters and write them here
 *
 * Observability (probe capture rides along with the sweep):
 *   --trace-out FILE    capture one point instrumented and write its
 *                       Chrome/Perfetto trace JSON (srlsim-trace-v1)
 *   --trace-point NAME  which point to trace (default srl-depth-1024)
 *   --sample-every N    counter-timeline period in cycles (default 64)
 *
 * Sampled simulation (two-tier fast-forward + detail; DESIGN.md §14):
 *   --ff N       per-interval pure fast-forward uops
 *   --warm N     per-interval warming fast-forward uops
 *   --detail N   per-interval detailed uops (required when sampling)
 *   --ckpt-dir DIR  save an srlsim-ckpt-v1 checkpoint at each
 *                   detail-segment entry (local runs only; in --server
 *                   mode the daemon's own --ckpt-dir applies)
 *   --sample-jobs N  concurrent detail workers per sampled point
 *                    (default 1). Reports are byte-identical at every
 *                    N; in --server mode the daemon picks its own
 *                    worker count.
 * Any of --ff/--warm/--detail marks the sweep sampled: every point
 * runs under that plan (runner::runSampledPipelined) instead of fully
 * detailed. Sampling composes with --server (the plan travels in the
 * point specs) but not with --cache-dir or --trace-out.
 *
 * Traces are captured on the worker threads and are byte-identical
 * regardless of --jobs, so the CI determinism diff covers them too.
 * Tracing is local-only: it cannot be combined with --server or
 * --cache-dir (an instrumented run is not the cacheable artifact).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "runner/sampled.hh"
#include "runner/sweep.hh"
#include "service/client.hh"
#include "service/result_cache.hh"
#include "service/service.hh"

using namespace srl;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--jobs N] [--seed S] [--out FILE] "
                 "[--csv FILE] [--suite NAME] [--uops N] "
                 "[--server SOCK] [--cache-dir DIR] "
                 "[--server-stats FILE] "
                 "[--trace-out FILE] [--trace-point NAME] "
                 "[--sample-every N] "
                 "[--ff N] [--warm N] [--detail N] [--ckpt-dir DIR] "
                 "[--sample-jobs N]\n",
                 argv0);
    std::exit(1);
}

void
writeFile(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::fwrite(content.data(), 1, content.size(), stdout);
        return;
    }
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        std::exit(1);
    }
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    std::uint64_t seed = 0;
    std::uint64_t uops = 150000;
    std::string out_path = "-";
    std::string csv_path;
    std::string suite_name = "SFP2K";
    std::string server_socket;
    std::string cache_dir;
    std::string server_stats_path;
    std::string trace_path;
    std::string trace_point = "srl-depth-1024";
    std::uint64_t sample_every = 64;
    std::uint64_t ff_uops = 0;
    std::uint64_t warm_uops = 0;
    std::uint64_t detail_uops = 0;
    std::string ckpt_dir;
    unsigned sample_jobs = 0;

    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char *name) {
            if (std::strcmp(argv[i], name) != 0 || i + 1 >= argc)
                return static_cast<const char *>(nullptr);
            return static_cast<const char *>(argv[++i]);
        };
        if (const char *v = arg("--jobs")) {
            jobs = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (const char *v = arg("--seed")) {
            seed = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--out")) {
            out_path = v;
        } else if (const char *v = arg("--csv")) {
            csv_path = v;
        } else if (const char *v = arg("--suite")) {
            suite_name = v;
        } else if (const char *v = arg("--uops")) {
            uops = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--server")) {
            server_socket = v;
        } else if (const char *v = arg("--cache-dir")) {
            cache_dir = v;
        } else if (const char *v = arg("--server-stats")) {
            server_stats_path = v;
        } else if (const char *v = arg("--trace-out")) {
            trace_path = v;
        } else if (const char *v = arg("--trace-point")) {
            trace_point = v;
        } else if (const char *v = arg("--sample-every")) {
            sample_every = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--ff")) {
            ff_uops = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--warm")) {
            warm_uops = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--detail")) {
            detail_uops = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--ckpt-dir")) {
            ckpt_dir = v;
        } else if (const char *v = arg("--sample-jobs")) {
            sample_jobs =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else {
            usage(argv[0]);
        }
    }
    const bool sampled = ff_uops || warm_uops || detail_uops;
    if (sampled && detail_uops == 0) {
        std::fprintf(stderr, "sampled sweeps need --detail > 0\n");
        return 1;
    }
    if (sampled && (!cache_dir.empty() || !trace_path.empty())) {
        std::fprintf(stderr,
                     "--ff/--warm/--detail do not compose with "
                     "--cache-dir or --trace-out\n");
        return 1;
    }
    if (sample_jobs > 0 && !sampled) {
        std::fprintf(stderr, "--sample-jobs needs a sampling plan "
                             "(--ff/--warm/--detail)\n");
        return 1;
    }
    if (!ckpt_dir.empty() && !sampled) {
        std::fprintf(stderr, "--ckpt-dir needs a sampling plan "
                             "(--ff/--warm/--detail)\n");
        return 1;
    }
    if (!ckpt_dir.empty() && !server_socket.empty()) {
        std::fprintf(stderr, "--ckpt-dir is local-only; the daemon's "
                             "own --ckpt-dir applies in server mode\n");
        return 1;
    }
    if (!trace_path.empty() &&
        (!server_socket.empty() || !cache_dir.empty())) {
        std::fprintf(stderr, "--trace-out is local-only; drop "
                             "--server/--cache-dir to trace\n");
        return 1;
    }
    if (!server_socket.empty() && !cache_dir.empty()) {
        std::fprintf(stderr,
                     "--server and --cache-dir are exclusive (the "
                     "daemon owns the cache in server mode)\n");
        return 1;
    }

    // The canonical sweep as backend-neutral specs; the same specs
    // drive the local runner, the memoized runner, and the daemon, so
    // all three produce the same report bytes.
    std::vector<service::PointSpec> specs =
        service::canonicalSweepSpecs(suite_name, uops, seed);
    if (sampled) {
        for (auto &s : specs) {
            s.ff_uops = ff_uops;
            s.warm_uops = warm_uops;
            s.detail_uops = detail_uops;
        }
    }

    workload::SuiteProfile suite;
    std::vector<runner::SweepPoint> points;
    try {
        suite = specs.front().materializeSuite();
        if (server_socket.empty())
            points = service::materializePoints(specs);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    runner::SweepOptions opts;
    opts.jobs = jobs;
    opts.seed = seed;

    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;

    const auto t0 = std::chrono::steady_clock::now();
    stats::StatsReport rep;
    if (!server_socket.empty()) {
        service::Client client;
        if (!client.connect(server_socket))
            return 1;
        try {
            rep = client.runSweep(specs, seed);
            if (!server_stats_path.empty())
                writeFile(server_stats_path,
                          client.fetchStats().toJson());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "server sweep failed: %s\n",
                         e.what());
            return 1;
        }
        cache_hits = client.lastCachedResults();
        cache_misses = client.lastComputedResults();
    } else if (sampled) {
        // One sampled task per point; runTasks derives the same
        // per-point seeds a detailed sweep would, so a sampled report
        // is comparable row-for-row with the fully detailed one.
        std::vector<runner::Task> tasks;
        tasks.reserve(points.size());
        for (const auto &p : points) {
            tasks.push_back({p.name, [&p, ff_uops, warm_uops,
                                      detail_uops, &ckpt_dir,
                                      sample_jobs](
                                         std::uint64_t run_seed) {
                runner::SampledOptions sopts;
                sopts.plan.ff_uops = ff_uops;
                sopts.plan.warm_uops = warm_uops;
                sopts.plan.detail_uops = detail_uops;
                sopts.ckpt_dir = ckpt_dir;
                sopts.sample_jobs = sample_jobs;
                return runner::runSampledPipelined(
                           p.config, p.suite, p.uops, run_seed, sopts)
                    .record;
            }});
        }
        rep = runner::runTasks(tasks, opts);
    } else if (!cache_dir.empty()) {
        service::ResultCache cache({cache_dir, 0});
        rep = service::runSweepCached(points, opts, cache);
        cache_hits = cache.counters().hits;
        cache_misses = cache.counters().misses;
    } else if (trace_path.empty()) {
        rep = runner::runSweep(points, opts);
    } else {
        obs::ObsConfig capture;
        capture.sample_every = sample_every;
        runner::TracedSweepResult traced = runner::runSweepTraced(
            points, opts, {trace_point}, capture);
        rep = std::move(traced.report);
        if (traced.traces.empty()) {
            std::fprintf(stderr,
                         "--trace-point %s matches no sweep point\n",
                         trace_point.c_str());
            return 1;
        }
        writeFile(trace_path, traced.traces.front().second);
    }
    const auto t1 = std::chrono::steady_clock::now();

    rep.meta["suite"] = suite.name;
    rep.meta["uops"] = std::to_string(uops);

    writeFile(out_path, rep.toJson());
    if (!csv_path.empty())
        writeFile(csv_path, rep.toCsv());

    unsigned failed = 0;
    for (const auto &r : rep.runs)
        failed += r.failed();
    const double secs =
        std::chrono::duration<double>(t1 - t0).count();
    std::fprintf(stderr,
                 "swept %zu points on %s in %.2fs (%u failed)\n",
                 rep.runs.size(), suite.name.c_str(), secs, failed);
    if (!server_socket.empty() || !cache_dir.empty())
        std::fprintf(stderr,
                     "cache: %llu cached / %llu computed\n",
                     static_cast<unsigned long long>(cache_hits),
                     static_cast<unsigned long long>(cache_misses));
    return failed ? 1 : 0;
}
