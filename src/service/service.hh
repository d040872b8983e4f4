/**
 * @file
 * The sweep service: admission control and execution for design-point
 * requests, on top of the content-addressed ResultCache and the
 * runner's ThreadPool.
 *
 * Admission: each client owns a FIFO of pending jobs; a round-robin
 * dispatcher feeds at most `jobs` concurrent simulations from those
 * FIFOs, so one client streaming thousands of points cannot starve
 * another submitting two. Total queued (not yet running) jobs are
 * bounded by `queue_depth`; a submit over the bound is rejected with
 * kBusy and the client's retry_after hint — backpressure instead of
 * unbounded memory. drain() stops admission (further submits get
 * kDraining) and blocks until every queued and running job has
 * completed and delivered its result, which is what the daemon does on
 * SIGTERM.
 *
 * Execution: a job materializes its PointSpec, content-addresses the
 * materialized point (common/chash.hh), and runs it through
 * ResultCache::getOrCompute — so identical points across clients (or
 * across daemon restarts, via the disk store) simulate once.
 *
 * runSweepCached() is the daemon-less flavor of the same memoization:
 * runner::runSweep semantics (byte-identical report, any job count)
 * with each point wrapped in the cache.
 */

#ifndef SRLSIM_SERVICE_SERVICE_HH
#define SRLSIM_SERVICE_SERVICE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runner/sweep.hh"
#include "runner/thread_pool.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"

namespace srl
{
namespace service
{

struct ServiceOptions
{
    /** Concurrent simulations; 0 = one per hardware thread. */
    unsigned jobs = 0;
    /** Max queued (admitted, not yet running) jobs across clients. */
    std::size_t queue_depth = 64;
    /** Backpressure hint handed to rejected clients. */
    unsigned retry_after_ms = 200;
    /**
     * Checkpoint directory for sampled points (PointSpec::sampled()):
     * shard requests restore their interval's `srlsim-ckpt-v1` entry
     * from here and leave the next shard's behind. Empty = sampled
     * points run straight through without checkpoint I/O (shard
     * requests then fail loudly).
     */
    std::string ckpt_dir;
    /**
     * Detail-worker count for sampled points: how many concurrent
     * detailed intervals one sampled run uses. Purely a server-side
     * throughput knob — sampled results are byte-identical at any
     * value, so it is not part of the cache key. 0 = 1.
     */
    unsigned sample_jobs = 0;
};

class SweepService
{
  public:
    /** How a submit was received. */
    enum class Admit : std::uint8_t
    {
        kAccepted,
        kBusy,     ///< queue full; retry after retry_after_ms
        kDraining, ///< shutting down; no new work
    };

    /**
     * Completion callback: the finished record (name forced to the
     * spec's), its content key, and how the cache satisfied it. Called
     * on a worker thread; error records carry RunRecord::error.
     */
    using ResultFn = std::function<void(
        const stats::RunRecord &, const chash::Hash128 &,
        ResultCache::Outcome)>;

    SweepService(ResultCache &cache, const ServiceOptions &opts);
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /**
     * Admit one design point for @p client. On kAccepted, @p done
     * fires exactly once, later, from a worker thread; on kBusy /
     * kDraining it never fires.
     */
    Admit submit(std::uint64_t client, PointSpec spec, ResultFn done);

    /** Stop admitting and block until all admitted work completed. */
    void drain();

    const ServiceOptions &options() const { return opts_; }
    unsigned retryAfterMs() const { return opts_.retry_after_ms; }

    /** Service + cache counters as one srlsim-stats-v1 report. */
    stats::StatsReport statsReport() const;

  private:
    struct Job
    {
        PointSpec spec;
        ResultFn done;
    };

    void pump(std::unique_lock<std::mutex> &lock);
    void runJob(Job job);

    ResultCache &cache_;
    ServiceOptions opts_;
    unsigned max_active_;
    runner::ThreadPool pool_;

    mutable std::mutex mutex_;
    std::condition_variable drained_cv_;
    std::map<std::uint64_t, std::deque<Job>> queues_;
    std::vector<std::uint64_t> rr_clients_; ///< clients with queued work
    std::size_t rr_cursor_ = 0;
    std::size_t queued_ = 0;
    unsigned active_ = 0;
    bool draining_ = false;

    // Counters (guarded by mutex_).
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t rejected_busy_ = 0;
    std::uint64_t rejected_draining_ = 0;
    std::size_t queue_peak_ = 0;
};

/**
 * runner::runSweep with every point memoized through @p cache. The
 * report is byte-identical to runner::runSweep of the same points and
 * options — on a cold cache because each task computes exactly the
 * runSweep record, on a warm cache because entries round-trip through
 * the byte-exact stats codec (and record names are re-imposed from
 * the point list, so a cache entry can serve differently named rows).
 */
stats::StatsReport runSweepCached(
    const std::vector<runner::SweepPoint> &points,
    const runner::SweepOptions &opts, ResultCache &cache);

/**
 * The canonical 11-point SRL design-space sweep (sweep_tool's sweep:
 * baseline, four SRL depths, four LCF size x hash points,
 * hierarchical, ideal) as protocol specs, with per-point run seeds
 * derived from @p base_seed exactly like runner::runTasks derives
 * them — so a server-side execution of these specs reproduces a local
 * runSweep byte for byte.
 */
std::vector<PointSpec> canonicalSweepSpecs(const std::string &suite,
                                           std::uint64_t uops,
                                           std::uint64_t base_seed);

/**
 * Expand specs into runner sweep points (materialized config + suite,
 * in spec order). @throws stats::ParseError on an invalid spec.
 */
std::vector<runner::SweepPoint>
materializePoints(const std::vector<PointSpec> &specs);

} // namespace service
} // namespace srl

#endif // SRLSIM_SERVICE_SERVICE_HH
