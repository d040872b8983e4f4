/**
 * @file
 * Versioned on-disk simulator-state checkpoints: `srlsim-ckpt-v1`.
 *
 * A checkpoint captures everything a sampled run needs to resume at a
 * drained interval boundary: the run's identity (canonical config and
 * suite digests, seed, length, sampling plan), the resume cursor and
 * accumulated detailed-interval statistics, the persistent SimState
 * (memory image, caches, predictors, snoop RNG), and the workload
 * generator cursor. Restore-then-run from a checkpoint is
 * byte-identical to the uninterrupted sampled run — enforced by
 * tests/test_sampled.cc across the golden configurations.
 *
 * File layout (all integers little-endian):
 *
 *     "srlsim-ckpt-v1\n"   15-byte magic
 *     u32  version (1)
 *     u64  payload size in bytes
 *     u64  payload digest lo, u64 hi   (chash of the payload bytes)
 *     payload                          (context, meta, SimState,
 *                                       GeneratorState)
 *
 * Writes are atomic (temp file + rename, like service::ResultCache);
 * every validation failure — truncation, bad magic/version, digest
 * mismatch, context mismatch, trailing bytes — throws SnapshotError.
 * A corrupt checkpoint can therefore never restore silently wrong.
 *
 * The payload digest doubles as the fast-forward determinism hash:
 * two runs that reach the same boundary with identical state produce
 * identical digests (snapshotDigest computes it without touching disk).
 */

#ifndef SRLSIM_CORE_SNAPSHOT_HH
#define SRLSIM_CORE_SNAPSHOT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/bytes.hh"
#include "common/chash.hh"
#include "common/stats.hh"
#include "core/processor.hh"
#include "core/sim_state.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace srl
{
namespace core
{

/** Raised on any checkpoint I/O or validation failure. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Identity of the sampled run a checkpoint belongs to. The loader
 * hard-errors when any field disagrees, so a checkpoint can never be
 * restored into a differently configured simulation.
 */
struct SnapshotContext
{
    chash::Hash128 config_digest;
    chash::Hash128 suite_digest;
    std::uint64_t run_seed = 0;
    std::uint64_t total_uops = 0;
    std::uint64_t ff_uops = 0;
    std::uint64_t warm_uops = 0;
    std::uint64_t detail_uops = 0;
};

/** Build the context for (config, suite, length, seed, plan). */
SnapshotContext makeSnapshotContext(const ProcessorConfig &config,
                                    const workload::SuiteProfile &suite,
                                    std::uint64_t total_uops,
                                    std::uint64_t run_seed,
                                    std::uint64_t ff_uops,
                                    std::uint64_t warm_uops,
                                    std::uint64_t detail_uops);

/**
 * Resume cursor + accumulated aggregates. Statistics accumulated over
 * the detailed intervals run so far ride inside the checkpoint so a
 * restored shard's final aggregate record is byte-identical to the
 * straight-through run's.
 */
struct SnapshotMeta
{
    std::uint64_t consumed_uops = 0; ///< stream position (= next seq)
    std::uint64_t next_interval = 0; ///< detailed interval to run next
    std::uint64_t ff_done = 0;       ///< uops fast-forwarded (pure)
    std::uint64_t warm_done = 0;     ///< uops fast-forwarded warming
    std::uint64_t detail_done = 0;   ///< uops simulated in detail
    ProcessorStats stats;            ///< summed detailed-segment stats
    stats::Occupancy occupancy;      ///< merged SRL occupancy
};

/** Visit every ProcessorStats counter in canonical order. */
template <typename Stats, typename Fn>
void
visitStatsFields(Stats &s, Fn &&fn)
{
    fn(s.cycles);
    fn(s.committed_uops);
    fn(s.committed_loads);
    fn(s.committed_stores);
    fn(s.slice_uops);
    fn(s.poisoned_stores);
    fn(s.redone_stores);
    fn(s.srl_stalled_loads);
    fn(s.indexed_forwards);
    fn(s.mem_violations);
    fn(s.snoop_violations);
    fn(s.overflow_violations);
    fn(s.branch_mispredicts);
    fn(s.mem_misses);
    fn(s.fc_writebacks);
    fn(s.redo_phase_misses);
    fn(s.temp_update_stalls);
    fn(s.stall_ckpt);
    fn(s.stall_stq);
    fn(s.stall_lq);
    fn(s.stall_sdb);
    fn(s.stall_sched);
    fn(s.stall_rf);
    fn(s.miss_hot);
    fn(s.miss_warm);
    fn(s.miss_cold);
    fn(s.miss_stream);
    fn(s.drain_block_head);
    fn(s.drain_block_fence);
    fn(s.drain_block_line);
    fn(s.skipped_cycles);
}

/** a += b, field-wise. */
void accumulateStats(ProcessorStats &a, const ProcessorStats &b);

/**
 * Payload digest of the state (context + meta + sim + gen) without
 * writing a file — the fast-forward determinism hash.
 */
chash::Hash128 snapshotDigest(const SnapshotContext &ctx,
                              const SnapshotMeta &meta,
                              const SimState &sim,
                              const workload::GeneratorState &gen);

/**
 * Serialize (context, meta, sim, gen) into the `srlsim-ckpt-v1`
 * *payload* byte string — exactly the bytes that follow the file
 * header on disk, so an in-memory handoff and a persisted checkpoint
 * are the same encoding. @p recycled (possibly empty) is consumed as
 * the output buffer: its capacity is reused, so a pipelined producer
 * cycling buffers through a pool allocates nothing in steady state.
 */
std::string buildSnapshotPayload(const SnapshotContext &ctx,
                                 const SnapshotMeta &meta,
                                 const SimState &sim,
                                 const workload::GeneratorState &gen,
                                 std::string &&recycled = {});

/**
 * Atomically write an already-built payload to @p path under the
 * `srlsim-ckpt-v1` container (header + digest + payload).
 * @return payload digest. @throws SnapshotError on I/O failure.
 */
chash::Hash128 writeSnapshotPayload(const std::string &path,
                                    const std::string &payload);

/**
 * Atomically write a checkpoint to @p path. @return payload digest.
 * @throws SnapshotError on any I/O failure (ENOSPC included).
 */
chash::Hash128 saveSnapshot(const std::string &path,
                            const SnapshotContext &ctx,
                            const SnapshotMeta &meta,
                            const SimState &sim,
                            const workload::GeneratorState &gen);

struct LoadedSnapshot
{
    SnapshotMeta meta;
    workload::GeneratorState gen;
    chash::Hash128 digest; ///< payload digest of the loaded file
};

/**
 * Load, validate, and restore a checkpoint: @p sim is overwritten with
 * the stored state; the meta and generator cursor are returned.
 * @throws SnapshotError on any validation failure, including a context
 * mismatch with @p ctx. On throw, @p sim is unspecified.
 */
LoadedSnapshot loadSnapshot(const std::string &path,
                            const SnapshotContext &ctx, SimState &sim);

/**
 * Restore simulator state from an in-memory payload produced by
 * buildSnapshotPayload: @p sim is overwritten, the meta and generator
 * cursor are returned. Validates the embedded context against @p ctx
 * (and payload well-formedness) exactly like loadSnapshot, but skips
 * the container digest check — the bytes never left the process. The
 * returned digest field is zero.
 * @throws SnapshotError on context mismatch or malformed payload.
 */
LoadedSnapshot adoptSnapshotPayload(const std::string &payload,
                                    const SnapshotContext &ctx,
                                    SimState &sim);

/**
 * Re-encode @p payload with @p meta in place of the meta it carries;
 * the context, SimState and generator bytes are copied verbatim.
 * @p recycled (possibly empty) is consumed as the output buffer. The
 * sampled engine's producer builds a payload before the intervals
 * ahead of it have run; this stamps their aggregate in before the
 * payload is persisted.
 * @throws SnapshotError on a malformed payload.
 */
std::string replaceSnapshotMeta(const std::string &payload,
                                const SnapshotMeta &meta,
                                std::string &&recycled = {});

/**
 * Canonical file name of the checkpoint at detailed-interval
 * boundary @p interval of the run @p ctx: "ckpt-<32 hex>.v1". The
 * salt hashed into the name is "srlsim-ckpt-name-v1-pipelined", the
 * one the sampled engine's entry checkpoints have always carried.
 */
std::string snapshotFileName(const SnapshotContext &ctx,
                             std::uint64_t interval);

} // namespace core
} // namespace srl

#endif // SRLSIM_CORE_SNAPSHOT_HH
