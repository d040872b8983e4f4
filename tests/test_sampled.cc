/**
 * @file
 * Golden restore-equivalence contract for sampled simulation.
 *
 * The whole point of `srlsim-ckpt-v1` is that a checkpoint is not an
 * approximation: restore-then-run must be *byte-identical* — stats
 * JSON and srlsim-trace-v1 trace — to the uninterrupted sampled run,
 * across every store-queue model, a deep-miss configuration, and a
 * rollback-heavy (snoopy) one. On top of that, fast-forwarding is
 * deterministic (same seed => same checkpoint digest), an all-detail
 * plan reproduces runOne exactly (the adopting-Processor refactor is
 * invisible), and a chain of shards covers a run with no overlap.
 */

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <string>
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
};

/** The golden configurations the restore contract is pinned across. */
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

    // External snoops force load-tracking violations and rollbacks,
    // and exercise the snoop RNG cursor carried across segments.
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

std::string
recordJson(const stats::RunRecord &rec)
{
    stats::StatsReport rep;
    rep.runs.push_back(rec);
    return rep.toJson();
}

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

TEST(Sampled, RestoreThenRunIsByteIdenticalToStraightRun)
{
    const auto suite = workload::suiteProfile("SFP2K");
    for (const auto &[label, cfg] : goldenConfigs()) {
        SCOPED_TRACE(label);
        TempDir dir;

        // Straight sampled run, checkpointing every interval and
        // tracing interval 3.
        runner::SampledOptions full = planOpts();
        full.ckpt_dir = dir.path;
        full.trace_interval = 3;
        const auto r_full =
            runner::runSampledPipelined(cfg, suite, kTotal, kSeed, full);
        ASSERT_EQ(r_full.ckpts_saved.size(), 5u);
        ASSERT_FALSE(r_full.trace_json.empty());

        // Sharded: restore checkpoint 3 and run the tail.
        runner::SampledOptions shard = planOpts();
        shard.ckpt_dir = dir.path;
        shard.shard_start = 3;
        shard.trace_interval = 3;
        const auto r_shard =
            runner::runSampledPipelined(cfg, suite, kTotal, kSeed, shard);
        // It saves interval 4's entry, not the one it restored from.
        EXPECT_EQ(r_shard.ckpts_saved.size(), 1u);

        // Byte-identical aggregate stats JSON: the checkpoint carries
        // the accumulated intervals, so the tail shard's final record
        // IS the full run's record.
        EXPECT_EQ(recordJson(r_full.record),
                  recordJson(r_shard.record));
        // Byte-identical srlsim-trace-v1 trace of the restored
        // interval.
        EXPECT_EQ(r_full.trace_json, r_shard.trace_json);
        // And the final simulator state digests agree.
        EXPECT_EQ(r_full.final_digest.lo, r_shard.final_digest.lo);
        EXPECT_EQ(r_full.final_digest.hi, r_shard.final_digest.hi);
    }
}

TEST(Sampled, FastForwardIsDeterministic)
{
    const auto suite = workload::suiteProfile("MM");
    const core::ProcessorConfig cfg = core::srlConfig();

    TempDir da, db;
    runner::SampledOptions a = planOpts();
    a.ckpt_dir = da.path;
    runner::SampledOptions b = planOpts();
    b.ckpt_dir = db.path;

    const auto ra = runner::runSampledPipelined(cfg, suite, kTotal, kSeed, a);
    const auto rb = runner::runSampledPipelined(cfg, suite, kTotal, kSeed, b);

    // Same seed => same final state digest and byte-identical
    // checkpoint files (same canonical names, same contents).
    EXPECT_EQ(ra.final_digest.lo, rb.final_digest.lo);
    EXPECT_EQ(ra.final_digest.hi, rb.final_digest.hi);
    ASSERT_EQ(ra.ckpts_saved.size(), rb.ckpts_saved.size());
    for (std::size_t i = 0; i < ra.ckpts_saved.size(); ++i) {
        EXPECT_EQ(ra.ckpts_saved[i].substr(da.path.size()),
                  rb.ckpts_saved[i].substr(db.path.size()));
        EXPECT_EQ(slurp(ra.ckpts_saved[i]), slurp(rb.ckpts_saved[i]));
    }

    // A different seed diverges.
    const auto rc =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed + 1, planOpts());
    EXPECT_FALSE(rc.final_digest.lo == ra.final_digest.lo &&
                 rc.final_digest.hi == ra.final_digest.hi);
}

TEST(Sampled, TracingAnIntervalChangesNoDigestOrCheckpoint)
{
    // A traced interval ticks every cycle (the counter sampler turns
    // skip-ahead off), so its skipped_cycles diagnostic reads 0. That
    // must not reach the aggregate the checkpoints and digest carry.
    const auto suite = workload::suiteProfile("SFP2K");
    const core::ProcessorConfig cfg = core::srlConfig();

    TempDir dp, dt;
    runner::SampledOptions plain = planOpts();
    plain.ckpt_dir = dp.path;
    runner::SampledOptions traced = planOpts();
    traced.ckpt_dir = dt.path;
    traced.trace_interval = 1;

    const auto rp =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, plain);
    const auto rt =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, traced);
    ASSERT_FALSE(rt.trace_json.empty());

    EXPECT_EQ(recordJson(rp.record), recordJson(rt.record));
    EXPECT_EQ(rp.final_digest.lo, rt.final_digest.lo);
    EXPECT_EQ(rp.final_digest.hi, rt.final_digest.hi);
    ASSERT_EQ(rp.ckpts_saved.size(), rt.ckpts_saved.size());
    for (std::size_t i = 0; i < rp.ckpts_saved.size(); ++i)
        EXPECT_TRUE(slurp(rp.ckpts_saved[i]) == slurp(rt.ckpts_saved[i]))
            << "checkpoint " << i << " differs";
}

TEST(Sampled, AllDetailPlanReproducesRunOneExactly)
{
    // With ff=warm=0 and one detail interval covering the whole run,
    // the sampled engine is runOne modulo the adopting-Processor
    // plumbing — which must be invisible. The rollback-heavy config is
    // left out: every sampled interval draws its snoops from a cursor
    // of its own (DESIGN.md §14), where runOne keeps one stream, so
    // its snoop traffic differs by design.
    const auto suite = workload::suiteProfile("SFP2K");
    for (const auto &[label, cfg] : goldenConfigs()) {
        if (cfg.snoop_rate > 0)
            continue;
        SCOPED_TRACE(label);
        runner::SampledOptions opts;
        opts.plan.detail_uops = 20000;
        const auto sampled =
            runner::runSampledPipelined(cfg, suite, 20000, kSeed, opts);
        const auto direct = core::runOne(cfg, suite, 20000, kSeed);

        const core::ProcessorStats &a = sampled.stats;
        const core::ProcessorStats &b = direct.stats;
#define SRLSIM_EXPECT_FIELD(f) EXPECT_EQ(a.f, b.f) << #f
        SRLSIM_EXPECT_FIELD(cycles);
        SRLSIM_EXPECT_FIELD(committed_uops);
        SRLSIM_EXPECT_FIELD(committed_loads);
        SRLSIM_EXPECT_FIELD(committed_stores);
        SRLSIM_EXPECT_FIELD(slice_uops);
        SRLSIM_EXPECT_FIELD(poisoned_stores);
        SRLSIM_EXPECT_FIELD(redone_stores);
        SRLSIM_EXPECT_FIELD(srl_stalled_loads);
        SRLSIM_EXPECT_FIELD(indexed_forwards);
        SRLSIM_EXPECT_FIELD(mem_violations);
        SRLSIM_EXPECT_FIELD(snoop_violations);
        SRLSIM_EXPECT_FIELD(overflow_violations);
        SRLSIM_EXPECT_FIELD(branch_mispredicts);
        SRLSIM_EXPECT_FIELD(mem_misses);
        SRLSIM_EXPECT_FIELD(fc_writebacks);
        SRLSIM_EXPECT_FIELD(redo_phase_misses);
        SRLSIM_EXPECT_FIELD(temp_update_stalls);
#undef SRLSIM_EXPECT_FIELD
    }
}

TEST(Sampled, ShardChainCoversTheRunWithoutOverlap)
{
    const auto suite = workload::suiteProfile("SFP2K");
    const core::ProcessorConfig cfg = core::srlConfig();
    TempDir dir;

    // Reference: one straight sampled run (no checkpoint I/O).
    const auto r_full =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, planOpts());

    // Chain: [0,2) -> [2,4) -> [4,5); each shard leaves the next
    // shard's entry checkpoint behind.
    runner::SampledOptions s0 = planOpts();
    s0.ckpt_dir = dir.path;
    s0.shard_start = 0;
    s0.shard_count = 2;
    const auto r0 = runner::runSampledPipelined(cfg, suite, kTotal, kSeed, s0);
    EXPECT_EQ(r0.intervals_run, 2u);

    runner::SampledOptions s1 = s0;
    s1.shard_start = 2;
    const auto r1 = runner::runSampledPipelined(cfg, suite, kTotal, kSeed, s1);
    EXPECT_EQ(r1.intervals_run, 2u);

    runner::SampledOptions s2 = s0;
    s2.shard_start = 4;
    const auto r2 = runner::runSampledPipelined(cfg, suite, kTotal, kSeed, s2);
    EXPECT_EQ(r2.intervals_run, 1u);

    // The shards' interval records, concatenated, are the straight
    // run's, and the last shard's aggregate equals the straight run's.
    std::string sharded;
    for (const auto *r : {&r0, &r1, &r2})
        for (const auto &rec : r->interval_records)
            sharded += recordJson(rec);
    std::string straight;
    for (const auto &rec : r_full.interval_records)
        straight += recordJson(rec);
    EXPECT_EQ(straight, sharded);
    EXPECT_EQ(recordJson(r_full.record), recordJson(r2.record));
    EXPECT_EQ(r_full.final_digest.lo, r2.final_digest.lo);
    EXPECT_EQ(r_full.final_digest.hi, r2.final_digest.hi);
}

TEST(Sampled, ShardingNeverSilentlyFallsBackToFastForward)
{
    const auto suite = workload::suiteProfile("SFP2K");
    const core::ProcessorConfig cfg = core::srlConfig();

    // No checkpoint directory at all: malformed request.
    runner::SampledOptions no_dir = planOpts();
    no_dir.shard_start = 2;
    EXPECT_THROW(
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, no_dir),
        std::invalid_argument);

    // Directory present but checkpoint absent: hard error, never a
    // quiet re-fast-forward.
    TempDir dir;
    runner::SampledOptions missing = planOpts();
    missing.ckpt_dir = dir.path;
    missing.shard_start = 2;
    EXPECT_THROW(
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, missing),
        core::SnapshotError);

    // A malformed plan is rejected too.
    runner::SampledOptions bad;
    bad.plan.detail_uops = 0;
    EXPECT_THROW(runner::runSampledPipelined(cfg, suite, kTotal, kSeed, bad),
                 std::invalid_argument);
    runner::SampledOptions far = planOpts();
    far.ckpt_dir = dir.path;
    far.shard_start = 99;
    EXPECT_THROW(runner::runSampledPipelined(cfg, suite, kTotal, kSeed, far),
                 std::invalid_argument);
}

TEST(Sampled, RetentionPrunesIntervalsButPinsTheHandoff)
{
    // ckpt_keep_last bounds the on-disk interval checkpoints of one
    // run, but the shard-handoff checkpoint — the next shard's entry
    // point — must survive any K, or a bounded-retention shard chain
    // could never be resumed.
    const auto suite = workload::suiteProfile("SFP2K");
    const core::ProcessorConfig cfg = core::srlConfig();
    TempDir dir;

    runner::SampledOptions head = planOpts();
    head.ckpt_dir = dir.path;
    head.shard_start = 0;
    head.shard_count = 3;
    head.ckpt_keep_last = 1;
    const auto r_head =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, head);
    // Entry checkpoints 0,1,2 written, plus the pinned handoff for
    // interval 3.
    ASSERT_EQ(r_head.ckpts_saved.size(), 4u);

    // Retention boundary: of the three prunable entry checkpoints
    // only the most recent (interval 2) survives, and the handoff is
    // untouched — exactly two files on disk.
    std::size_t remaining = 0;
    if (DIR *d = opendir(dir.path.c_str())) {
        while (const dirent *e = readdir(d)) {
            const std::string n = e->d_name;
            if (n != "." && n != "..")
                ++remaining;
        }
        closedir(d);
    }
    EXPECT_EQ(remaining, 2u);

    // The tail shard restores from the pinned handoff and matches the
    // straight run — retention never breaks the chain.
    runner::SampledOptions tail = planOpts();
    tail.ckpt_dir = dir.path;
    tail.shard_start = 3;
    const auto r_tail =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, tail);
    const auto r_full =
        runner::runSampledPipelined(cfg, suite, kTotal, kSeed, planOpts());
    EXPECT_EQ(recordJson(r_full.record), recordJson(r_tail.record));
    EXPECT_EQ(r_full.final_digest.lo, r_tail.final_digest.lo);
    EXPECT_EQ(r_full.final_digest.hi, r_tail.final_digest.hi);
}

TEST(Sampled, WarmingActuallyWarms)
{
    // The warm span exists to cut cold-start misses in the detailed
    // interval; verify it measurably does (otherwise the warming hooks
    // have rotted into no-ops).
    const auto suite = workload::suiteProfile("SFP2K");
    const core::ProcessorConfig cfg = core::srlConfig();

    runner::SampledOptions cold;
    cold.plan.ff_uops = 40000;
    cold.plan.warm_uops = 0;
    cold.plan.detail_uops = 10000;
    runner::SampledOptions warm;
    warm.plan.ff_uops = 20000;
    warm.plan.warm_uops = 20000;
    warm.plan.detail_uops = 10000;

    const auto r_cold =
        runner::runSampledPipelined(cfg, suite, 50000, kSeed, cold);
    const auto r_warm =
        runner::runSampledPipelined(cfg, suite, 50000, kSeed, warm);
    EXPECT_LT(r_warm.stats.branch_mispredicts,
              r_cold.stats.branch_mispredicts);
}

} // namespace
