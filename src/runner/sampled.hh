/**
 * @file
 * Sampled-simulation engine: interleaves functional fast-forward with
 * cycle-accurate detailed intervals (SMARTS-style systematic
 * sampling) so billion-uop workloads finish in minutes instead of
 * hours.
 *
 * A run of `total_uops` is cut into intervals of
 * `ff_uops + warm_uops + detail_uops`. A producer thread fast-forwards
 * the whole stream functionally (warming caches and predictors over
 * the warm and detail spans) and snapshots the state at every detail
 * entry; a pool of detail workers each adopt a snapshot and run that
 * interval on the full out-of-order model; the calling thread stitches
 * the per-interval records in interval order. Intervals are
 * independent: a detailed run never feeds the state of the next one,
 * so results are byte-identical at any worker count (DESIGN.md §14).
 *
 * Checkpointing: with a checkpoint directory set, every detail-entry
 * snapshot is also saved as an `srlsim-ckpt-v1` file carrying the
 * aggregate of the intervals before it. A shard
 * [shard_start, shard_start + shard_count) restores the file of its
 * first interval instead of re-fast-forwarding, and a shard that stops
 * early leaves the next shard's entry checkpoint behind, so a chain of
 * shards reproduces the straight run (interval records, trace, final
 * digest) byte for byte — tests/test_sampled.cc and CI enforce this.
 */

#ifndef SRLSIM_RUNNER_SAMPLED_HH
#define SRLSIM_RUNNER_SAMPLED_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/chash.hh"
#include "common/stats.hh"
#include "core/config.hh"
#include "core/processor.hh"
#include "obs/export.hh"
#include "workload/profile.hh"

namespace srl
{
namespace runner
{

/** Per-interval uop budget of a sampled run. */
struct SampledPlan
{
    std::uint64_t ff_uops = 0;     ///< pure functional span
    std::uint64_t warm_uops = 0;   ///< functional span with warming
    std::uint64_t detail_uops = 0; ///< cycle-accurate span (required)

    std::uint64_t
    intervalUops() const
    {
        return ff_uops + warm_uops + detail_uops;
    }
};

struct SampledOptions
{
    SampledPlan plan;

    /**
     * When non-empty, save an `srlsim-ckpt-v1` checkpoint at every
     * detail-segment entry (and load from here when sharded).
     */
    std::string ckpt_dir;

    /**
     * Shard selection: run detailed intervals
     * [shard_start, shard_start + shard_count). A non-zero shard_start
     * requires the matching checkpoint in ckpt_dir — the driver never
     * silently falls back to re-fast-forwarding.
     */
    std::uint64_t shard_start = 0;
    std::uint64_t shard_count = ~std::uint64_t{0};

    /**
     * When >= 0, capture a Chrome trace (srlsim-trace-v1) of that
     * detailed interval, per @p obs (its `enabled` flag is ignored).
     */
    std::int64_t trace_interval = -1;
    obs::ObsConfig obs;

    /**
     * Number of detail workers (0 = 1). Results are byte-identical at
     * every value; only wall time changes.
     */
    unsigned sample_jobs = 0;

    /**
     * Bound on snapshots buffered between the producer and the detail
     * workers. The producer blocks when the queue is full
     * (backpressure), so a slow worker pool never makes the run
     * accumulate unbounded state. 0 = 2 * sample_jobs + 2.
     */
    std::size_t queue_capacity = 0;

    /**
     * Checkpoint-directory retention: keep only the most recent K
     * interval checkpoints written by this run (0 = keep all, the
     * default). The shard-handoff checkpoint — the next shard's entry
     * point — is always kept regardless of K.
     */
    std::uint64_t ckpt_keep_last = 0;

    /**
     * Test-only hook: a detail worker invokes this
     * with the interval number just before simulating it. Used to
     * inject slow (or failing) workers in the backpressure stress
     * tests. Must be thread-safe; an exception thrown here aborts the
     * run like any other worker failure.
     */
    std::function<void(std::uint64_t)> worker_start_hook;
};

/** Everything a sampled run produces. */
struct SampledResult
{
    /** Aggregate record over all detailed intervals run. */
    stats::RunRecord record;
    /** One record per detailed interval, in interval order. */
    std::vector<stats::RunRecord> interval_records;
    /** srlsim-trace-v1 JSON of the traced interval ("" if none). */
    std::string trace_json;
    /** Paths of checkpoints written, in interval order. */
    std::vector<std::string> ckpts_saved;

    /** Accumulated detailed-segment statistics. */
    core::ProcessorStats stats;
    std::uint64_t ff_uops = 0;     ///< uops fast-forwarded (pure)
    std::uint64_t warm_uops = 0;   ///< uops fast-forwarded warming
    std::uint64_t detail_uops = 0; ///< uops simulated in detail
    std::uint64_t intervals_run = 0;

    /**
     * Host wall-clock split (seconds): ff_wall_s is the producer
     * thread's total wall (fast-forward + snapshot serialization) and
     * detail_wall_s is the *sum* of per-worker interval walls; the two
     * overlap, so they exceed the end-to-end wall time by design.
     */
    double ff_wall_s = 0.0;
    double detail_wall_s = 0.0;

    /**
     * Digest of the final simulator state (the fast-forward
     * determinism hash: same config/suite/seed/plan => same digest).
     */
    chash::Hash128 final_digest;
};

/**
 * Run (config, suite) for @p total_uops under the sampling plan in
 * @p opts. Seed semantics match core::runOne: non-zero
 * @p seed_override replaces the suite's workload seed and re-keys the
 * snoop stream. Throws core::SnapshotError on checkpoint problems
 * (including a shard whose entry checkpoint is missing),
 * std::invalid_argument on a malformed plan or shard, and rethrows the
 * first producer or worker failure.
 */
SampledResult runSampledPipelined(const core::ProcessorConfig &config,
                                  const workload::SuiteProfile &suite,
                                  std::uint64_t total_uops,
                                  std::uint64_t seed_override,
                                  const SampledOptions &opts);

} // namespace runner
} // namespace srl

#endif // SRLSIM_RUNNER_SAMPLED_HH
