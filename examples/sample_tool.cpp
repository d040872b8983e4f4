/**
 * @file
 * Single-point sampled-simulation driver: runs one (config, suite)
 * design point under a two-tier fast-forward + detail sampling plan
 * (runner::runSampledPipelined, DESIGN.md §14) and writes a stats
 * report with the aggregate record plus one record per detailed
 * interval.
 *
 *   sample_tool --config srl --suite SFP2K --uops 2000000 \
 *       --ff 170000 --warm 10000 --detail 20000 --out report.json
 *
 * Workers:
 *   --sample-jobs N    concurrent detail workers (default 1). The
 *                      report, trace, and digest are byte-identical at
 *                      every N (CI diffs N=1 vs N=4).
 *
 * Checkpointing / sharding:
 *   --ckpt-dir DIR     save an srlsim-ckpt-v1 checkpoint at every
 *                      detail-segment entry; required for sharding
 *   --shard-start K    first detailed interval to run (restores the
 *                      matching checkpoint from --ckpt-dir; never
 *                      silently re-fast-forwards)
 *   --shard-count N    number of detailed intervals to run (default:
 *                      through the end of the run)
 *   --ckpt-keep-last K with --ckpt-dir: retain only the K most recent
 *                      interval checkpoints (0 = keep all); the shard
 *                      handoff checkpoint is always kept
 * A shard that stops before the last interval also fast-forwards into
 * and checkpoints the next shard's entry point, so a chain of shards
 * covers the run with no overlap. Restore-then-run is byte-identical
 * to the straight-through run: the interval records of shard K..end
 * are the tail of the full run's, its final digest is the full run's,
 * and CI diffs exactly that.
 *
 * Other options:
 *   --config NAME      base config: baseline | srl | hierarchical |
 *                      ideal | monolithic (default srl)
 *   --suite NAME       workload suite (default SFP2K)
 *   --uops N           total uops in the (virtual) full run
 *   --seed S           seed override; 0 keeps the suite's canonical
 *                      seed (runOne semantics)
 *   --out FILE         stats report JSON ("-" = stdout; default "-")
 *   --trace-out FILE   Chrome trace (srlsim-trace-v1) of one detailed
 *                      interval
 *   --trace-interval K which interval to trace (default: shard_start)
 *   --sample-every N   trace counter-timeline period (default 64)
 *
 * stderr prints the wall-clock split (fast-forward vs detail), the
 * realized uop counts, and the final-state digest — the fast-forward
 * determinism hash (same config/suite/seed/plan => same digest).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "runner/sampled.hh"
#include "service/protocol.hh"

using namespace srl;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--config NAME] [--suite NAME] [--uops N] "
                 "[--ff N] [--warm N] [--detail N] [--seed S] "
                 "[--ckpt-dir DIR] [--shard-start K] [--shard-count N] "
                 "[--sample-jobs N] [--ckpt-keep-last K] "
                 "[--out FILE] [--trace-out FILE] [--trace-interval K] "
                 "[--sample-every N]\n",
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
    std::string config_name = "srl";
    std::string suite_name = "SFP2K";
    std::uint64_t uops = 2000000;
    std::uint64_t seed = 0;
    std::string out_path = "-";
    std::string trace_path;
    std::int64_t trace_interval = -1;
    runner::SampledOptions sopts;
    std::uint64_t shard_count = 0; // 0 = through the end of the run

    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char *name) {
            if (std::strcmp(argv[i], name) != 0 || i + 1 >= argc)
                return static_cast<const char *>(nullptr);
            return static_cast<const char *>(argv[++i]);
        };
        if (const char *v = arg("--config")) {
            config_name = v;
        } else if (const char *v = arg("--suite")) {
            suite_name = v;
        } else if (const char *v = arg("--uops")) {
            uops = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--ff")) {
            sopts.plan.ff_uops = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--warm")) {
            sopts.plan.warm_uops = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--detail")) {
            sopts.plan.detail_uops = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--seed")) {
            seed = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--ckpt-dir")) {
            sopts.ckpt_dir = v;
        } else if (const char *v = arg("--shard-start")) {
            sopts.shard_start = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--shard-count")) {
            shard_count = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--sample-jobs")) {
            sopts.sample_jobs =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (const char *v = arg("--ckpt-keep-last")) {
            sopts.ckpt_keep_last = std::strtoull(v, nullptr, 10);
        } else if (const char *v = arg("--out")) {
            out_path = v;
        } else if (const char *v = arg("--trace-out")) {
            trace_path = v;
        } else if (const char *v = arg("--trace-interval")) {
            trace_interval = std::strtoll(v, nullptr, 10);
        } else if (const char *v = arg("--sample-every")) {
            sopts.obs.sample_every = std::strtoull(v, nullptr, 10);
        } else {
            usage(argv[0]);
        }
    }
    if (shard_count)
        sopts.shard_count = shard_count;
    if (!trace_path.empty())
        sopts.trace_interval =
            trace_interval >= 0
                ? trace_interval
                : static_cast<std::int64_t>(sopts.shard_start);

    runner::SampledResult res;
    try {
        service::PointSpec spec;
        spec.base = config_name;
        spec.suite = suite_name;
        const core::ProcessorConfig cfg = spec.materializeConfig();
        const workload::SuiteProfile suite = spec.materializeSuite();
        res = runner::runSampledPipelined(cfg, suite, uops, seed,
                                          sopts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }

    stats::StatsReport rep;
    rep.meta["config"] = config_name;
    rep.meta["suite"] = suite_name;
    rep.meta["uops"] = std::to_string(uops);
    rep.meta["final_digest"] = res.final_digest.toHex();
    res.record.name = "sampled";
    rep.runs.push_back(res.record);
    for (const auto &r : res.interval_records)
        rep.runs.push_back(r);
    writeFile(out_path, rep.toJson());
    if (!trace_path.empty())
        writeFile(trace_path, res.trace_json);

    std::fprintf(
        stderr,
        "sampled %s/%s: ff %llu uops (%.2fs), detail %llu uops "
        "(%.2fs), %llu intervals, %zu checkpoints\n",
        config_name.c_str(), suite_name.c_str(),
        static_cast<unsigned long long>(res.ff_uops + res.warm_uops),
        res.ff_wall_s,
        static_cast<unsigned long long>(res.detail_uops),
        res.detail_wall_s,
        static_cast<unsigned long long>(res.intervals_run),
        res.ckpts_saved.size());
    std::fprintf(stderr, "final state digest: %s\n",
                 res.final_digest.toHex().c_str());
    return 0;
}
