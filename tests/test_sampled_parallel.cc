/**
 * @file
 * Jobs-invariance contract for the sampled engine
 * (runner::runSampledPipelined, DESIGN.md §14).
 *
 * The engine's core promise is that the worker count is
 * invisible in the results: stats JSON (aggregate + per-interval
 * rows), the srlsim-trace-v1 trace, and the final-state digest are
 * byte-identical at --sample-jobs 1, 2, and 4, across every golden
 * configuration — including the rollback-heavy one whose snoop
 * traffic is the hardest state to keep deterministic. On top of that:
 * backpressure (a tiny queue bound plus deliberately slowed workers)
 * must change nothing but wall time; the on-disk checkpoints the
 * producer can leave behind must round-trip to the exact in-memory
 * payload bytes; and checkpoint retention must keep only the
 * requested tail of the interval checkpoints.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "core/simulator.hh"
#include "core/snapshot.hh"
#include "runner/sampled.hh"
#include "workload/profile.hh"

namespace
{

using namespace srl;

/** Self-cleaning temp directory. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/srlsim-test-XXXXXX";
        EXPECT_NE(mkdtemp(tmpl), nullptr);
        path = tmpl;
    }

    ~TempDir()
    {
        if (DIR *d = opendir(path.c_str())) {
            while (const dirent *e = readdir(d)) {
                const std::string n = e->d_name;
                if (n != "." && n != "..")
                    std::remove((path + "/" + n).c_str());
            }
            closedir(d);
        }
        rmdir(path.c_str());
    }

    std::size_t
    fileCount() const
    {
        std::size_t count = 0;
        if (DIR *d = opendir(path.c_str())) {
            while (const dirent *e = readdir(d)) {
                const std::string n = e->d_name;
                if (n != "." && n != "..")
                    ++count;
            }
            closedir(d);
        }
        return count;
    }
};

/** The golden configurations the invariance contract is pinned
 * across (same set as tests/test_sampled.cc). */
std::vector<std::pair<std::string, core::ProcessorConfig>>
goldenConfigs()
{
    std::vector<std::pair<std::string, core::ProcessorConfig>> cfgs;
    cfgs.emplace_back("srl", core::srlConfig());
    cfgs.emplace_back("baseline", core::baselineConfig());

    core::ProcessorConfig deep = core::srlConfig();
    deep.name = "srl-deep-miss";
    deep.memory.memory_latency = 2000;
    cfgs.emplace_back("deep-miss", std::move(deep));

    // External snoops force load-tracking violations and rollbacks —
    // every sampled interval draws them from its own
    // derived RNG cursor, which must make them jobs-invariant.
    core::ProcessorConfig snoopy = core::srlConfig();
    snoopy.name = "srl-rollback-heavy";
    snoopy.snoop_rate = 0.05;
    cfgs.emplace_back("rollback-heavy", std::move(snoopy));
    return cfgs;
}

runner::SampledOptions
planOpts()
{
    runner::SampledOptions opts;
    opts.plan.ff_uops = 6000;
    opts.plan.warm_uops = 2000;
    opts.plan.detail_uops = 4000;
    return opts;
}

constexpr std::uint64_t kTotal = 60000; // 5 intervals of 12000
constexpr std::uint64_t kSeed = 777;

/** Full report bytes: aggregate + per-interval rows, as sample_tool
 * assembles them. */
std::string
reportJson(const runner::SampledResult &res)
{
    stats::StatsReport rep;
    rep.runs.push_back(res.record);
    for (const auto &r : res.interval_records)
        rep.runs.push_back(r);
    return rep.toJson();
}

TEST(SampledParallel, ResultsAreByteIdenticalAcrossWorkerCounts)
{
    const auto suite = workload::suiteProfile("SFP2K");
    for (const auto &[label, cfg] : goldenConfigs()) {
        SCOPED_TRACE(label);

        runner::SampledOptions opts = planOpts();
        opts.trace_interval = 3;
        opts.sample_jobs = 1;
        const auto r1 =
            runner::runSampledPipelined(cfg, suite, kTotal, kSeed, opts);
        ASSERT_EQ(r1.intervals_run, 5u);
        ASSERT_FALSE(r1.trace_json.empty());

        for (const unsigned jobs : {2u, 4u}) {
            SCOPED_TRACE(jobs);
            opts.sample_jobs = jobs;
            const auto rn =
                runner::runSampledPipelined(cfg, suite, kTotal, kSeed, opts);
            EXPECT_EQ(reportJson(r1), reportJson(rn));
            EXPECT_EQ(r1.trace_json, rn.trace_json);
            EXPECT_EQ(r1.final_digest.lo, rn.final_digest.lo);
            EXPECT_EQ(r1.final_digest.hi, rn.final_digest.hi);
        }
    }
}

TEST(SampledParallel, PipelinedIsRepeatable)
{
    // Same invocation twice => same bytes (no hidden run-to-run
    // nondeterminism from thread scheduling).
    const auto suite = workload::suiteProfile("MM");
    const core::ProcessorConfig cfg = core::srlConfig();
    runner::SampledOptions opts = planOpts();
    opts.sample_jobs = 4;
    const auto a =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, opts);
    const auto b =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, opts);
    EXPECT_EQ(reportJson(a), reportJson(b));
    EXPECT_EQ(a.final_digest.lo, b.final_digest.lo);
    EXPECT_EQ(a.final_digest.hi, b.final_digest.hi);
}

TEST(SampledParallel, BackpressureAndSlowWorkersChangeNothing)
{
    // Queue bound of one plus deliberately slowed even intervals: the
    // producer must block (backpressure) rather than skip or reorder,
    // and the stitched results must stay byte-identical.
    const auto suite = workload::suiteProfile("SFP2K");
    const core::ProcessorConfig cfg = core::srlConfig();

    runner::SampledOptions ref = planOpts();
    ref.sample_jobs = 1;
    const auto r_ref =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, ref);

    runner::SampledOptions stressed = planOpts();
    stressed.sample_jobs = 2;
    stressed.queue_capacity = 1;
    stressed.worker_start_hook = [](std::uint64_t interval) {
        if (interval % 2 == 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    };
    const auto r_stressed =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, stressed);

    EXPECT_EQ(reportJson(r_ref), reportJson(r_stressed));
    EXPECT_EQ(r_ref.final_digest.lo, r_stressed.final_digest.lo);
    EXPECT_EQ(r_ref.final_digest.hi, r_stressed.final_digest.hi);
}

TEST(SampledParallel, OnDiskCheckpointsMatchInMemoryPayloads)
{
    // --ckpt-dir persists the entry payloads that travel through the
    // in-memory queue, stamped with the aggregate of the intervals
    // before them: loading a saved file and re-serializing the
    // restored state must reproduce the file's own digest, and writing
    // checkpoints must not perturb results.
    const auto suite = workload::suiteProfile("SFP2K");
    const core::ProcessorConfig cfg = core::srlConfig();
    TempDir dir;

    runner::SampledOptions plain = planOpts();
    plain.sample_jobs = 2;
    const auto r_plain =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, plain);

    runner::SampledOptions saving = planOpts();
    saving.sample_jobs = 2;
    saving.ckpt_dir = dir.path;
    const auto r_saving =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, saving);
    ASSERT_EQ(r_saving.ckpts_saved.size(), 5u);

    EXPECT_EQ(reportJson(r_plain), reportJson(r_saving));
    EXPECT_EQ(r_plain.final_digest.lo, r_saving.final_digest.lo);
    EXPECT_EQ(r_plain.final_digest.hi, r_saving.final_digest.hi);

    const core::SnapshotContext ctx = core::makeSnapshotContext(
        cfg, suite, kTotal, kSeed, plain.plan.ff_uops,
        plain.plan.warm_uops, plain.plan.detail_uops);
    for (std::uint64_t k = 0; k < r_saving.ckpts_saved.size(); ++k) {
        SCOPED_TRACE(k);
        EXPECT_EQ(r_saving.ckpts_saved[k],
                  dir.path + "/" + core::snapshotFileName(ctx, k));
        core::SimState sim(cfg);
        const core::LoadedSnapshot loaded = core::loadSnapshot(
            r_saving.ckpts_saved[k], ctx, sim);
        EXPECT_EQ(loaded.meta.next_interval, k);
        EXPECT_EQ(loaded.meta.detail_done, k * plain.plan.detail_uops);
        // Round-trip: in-memory re-serialization of the restored
        // state reproduces the on-disk payload digest bit for bit.
        const chash::Hash128 again = core::snapshotDigest(
            ctx, loaded.meta, sim, loaded.gen);
        EXPECT_EQ(again.lo, loaded.digest.lo);
        EXPECT_EQ(again.hi, loaded.digest.hi);
    }
}

TEST(SampledParallel, RetentionKeepsOnlyTheRequestedTail)
{
    const auto suite = workload::suiteProfile("SFP2K");
    const core::ProcessorConfig cfg = core::srlConfig();
    TempDir dir;

    runner::SampledOptions opts = planOpts();
    opts.sample_jobs = 2;
    opts.ckpt_dir = dir.path;
    opts.ckpt_keep_last = 2;
    const auto res =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, opts);
    ASSERT_EQ(res.ckpts_saved.size(), 5u);

    // Only the last two interval checkpoints survive; the pruned ones
    // are gone from disk (ckpts_saved records what was *written*).
    EXPECT_EQ(dir.fileCount(), 2u);
    const core::SnapshotContext ctx = core::makeSnapshotContext(
        cfg, suite, kTotal, kSeed, opts.plan.ff_uops,
        opts.plan.warm_uops, opts.plan.detail_uops);
    for (std::uint64_t k = 0; k < 5; ++k) {
        core::SimState sim(cfg);
        const std::string &path = res.ckpts_saved[k];
        if (k < 3) {
            EXPECT_THROW(core::loadSnapshot(path, ctx, sim),
                         core::SnapshotError);
        } else {
            const core::LoadedSnapshot loaded =
                core::loadSnapshot(path, ctx, sim);
            EXPECT_EQ(loaded.meta.next_interval, k);
        }
    }
}

TEST(SampledParallel, RejectsEmptyPlans)
{
    const auto suite = workload::suiteProfile("SFP2K");
    const core::ProcessorConfig cfg = core::srlConfig();

    runner::SampledOptions empty;
    empty.sample_jobs = 2;
    EXPECT_THROW(
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, empty),
        std::invalid_argument);
}

TEST(SampledParallel, WorkerFailurePropagatesAsAnException)
{
    // A throwing interval must abort the whole run with the worker's
    // exception — not deadlock the producer on a full queue and not
    // return a partial result.
    const auto suite = workload::suiteProfile("SFP2K");
    const core::ProcessorConfig cfg = core::srlConfig();

    runner::SampledOptions opts = planOpts();
    opts.sample_jobs = 2;
    opts.queue_capacity = 1;
    opts.worker_start_hook = [](std::uint64_t interval) {
        if (interval == 2)
            throw std::runtime_error("injected worker failure");
    };
    EXPECT_THROW(runner::runSampledPipelined(cfg, suite, kTotal, kSeed, opts),
                 std::runtime_error);
}

} // namespace
