#include "runner/sampled.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/random.hh"
#include "core/fast_forward.hh"
#include "core/sim_state.hh"
#include "core/simulator.hh"
#include "core/snapshot.hh"
#include "runner/thread_pool.hh"
#include "workload/generator.hh"
#include "workload/prewarm.hh"

namespace srl
{
namespace runner
{

namespace
{

/** Pass through at most @p limit uops of the wrapped stream. */
class LimitStream : public isa::UopStream
{
  public:
    LimitStream(isa::UopStream &inner, std::uint64_t limit)
        : inner_(inner), limit_(limit)
    {
    }

    bool
    next(isa::Uop &out) override
    {
        if (taken_ >= limit_ || !inner_.next(out))
            return false;
        ++taken_;
        return true;
    }

    std::uint64_t taken() const { return taken_; }

  private:
    isa::UopStream &inner_;
    std::uint64_t limit_;
    std::uint64_t taken_ = 0;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Keep-last-K pruning of interval checkpoints written by one run.
 * Pinned saves (shard handoff points — the next shard's entry) are
 * never pruned; keep == 0 disables pruning entirely.
 */
class CkptRetention
{
  public:
    explicit CkptRetention(std::uint64_t keep) : keep_(keep) {}

    void
    saved(const std::string &path, bool pinned)
    {
        if (keep_ == 0 || pinned)
            return;
        deletable_.push_back(path);
        while (deletable_.size() > keep_) {
            std::remove(deletable_.front().c_str());
            deletable_.pop_front();
        }
    }

  private:
    std::uint64_t keep_;
    std::deque<std::string> deletable_;
};

/**
 * Aggregate record over the detailed intervals, mirroring
 * recordFromResult's field order so sampled and detailed reports read
 * alike.
 */
stats::RunRecord
aggregateRecord(const core::ProcessorConfig &config,
                const workload::SuiteProfile &suite,
                std::uint64_t seed_override, const SampledPlan &plan,
                const core::SnapshotMeta &meta)
{
    stats::RunRecord rec;
    rec.meta["config"] = config.name;
    rec.meta["suite"] = suite.name;
    rec.meta["run_seed"] = std::to_string(seed_override);
    rec.meta["plan"] = std::to_string(plan.ff_uops) + "/" +
                       std::to_string(plan.warm_uops) + "/" +
                       std::to_string(plan.detail_uops);

    const core::ProcessorStats &s = meta.stats;
    rec.set("uops", static_cast<double>(s.committed_uops));
    rec.set("cycles", static_cast<double>(s.cycles));
    rec.set("ipc", s.ipc());
    rec.set("committed_loads", static_cast<double>(s.committed_loads));
    rec.set("committed_stores",
            static_cast<double>(s.committed_stores));
    rec.set("mem_misses", static_cast<double>(s.mem_misses));
    rec.set("branch_mispredicts",
            static_cast<double>(s.branch_mispredicts));
    rec.set("mem_violations", static_cast<double>(s.mem_violations));
    rec.set("snoop_violations",
            static_cast<double>(s.snoop_violations));
    rec.set("overflow_violations",
            static_cast<double>(s.overflow_violations));
    rec.set("slice_uops", static_cast<double>(s.slice_uops));

    if (config.model == core::StqModel::kSrl) {
        const core::SrlRatios q = core::srlRatios(s);
        rec.set("pct_stores_redone", q.pct_stores_redone);
        rec.set("pct_miss_dep_stores", q.pct_miss_dep_stores);
        rec.set("pct_miss_dep_uops", q.pct_miss_dep_uops);
        rec.set("srl_stalls_per_10k", q.srl_stalls_per_10k);
        rec.set("pct_time_srl_occupied",
                meta.occupancy.percentOccupied());
        for (const auto t : core::figure7Thresholds())
            rec.set("srl_occupancy_above_" + std::to_string(t),
                    meta.occupancy.percentAbove(t));
    }

    rec.set("sampled_ff_uops", static_cast<double>(meta.ff_done));
    rec.set("sampled_warm_uops", static_cast<double>(meta.warm_done));
    rec.set("sampled_detail_uops",
            static_cast<double>(meta.detail_done));
    // Cumulative across shards (a tail shard's record equals the
    // straight run's), unlike result.intervals_run which is local.
    rec.set("sampled_intervals",
            static_cast<double>(meta.next_interval));
    return rec;
}

/** Per-interval row ("interval_<k>": uops / cycles / ipc). */
stats::RunRecord
intervalRecord(std::uint64_t k, const core::ProcessorStats &s)
{
    stats::RunRecord irec;
    irec.name = "interval_" + std::to_string(k);
    irec.meta["interval"] = std::to_string(k);
    irec.set("uops", static_cast<double>(s.committed_uops));
    irec.set("cycles", static_cast<double>(s.cycles));
    irec.set("ipc", s.ipc());
    return irec;
}

/**
 * Per-interval snoop stream key: intervals are independent units of
 * work, so each one draws external snoops from its own
 * deterministically derived cursor instead of chaining one cursor
 * through the run (which would serialize the intervals).
 */
std::uint64_t
intervalSnoopCursor(std::uint64_t snoop_seed, std::uint64_t interval)
{
    return Random(splitmix64(snoop_seed ^
                             splitmix64(interval + 1)))
        .rawState();
}

// ------------------------------------------------------------------
// Pipeline plumbing
// ------------------------------------------------------------------

/** One checkpoint handed from the producer to a detail worker. */
struct WorkItem
{
    std::uint64_t interval = 0;
    std::uint64_t detail_span = 0;
    std::string payload; ///< srlsim-ckpt-v1 payload bytes
};

/** What one detail worker produced for one interval. */
struct IntervalOutcome
{
    core::ProcessorStats stats;
    stats::Occupancy occupancy;
    std::uint64_t taken = 0;
    double wall_s = 0.0;
    std::string trace_json;
    /** Entry payload and the producer cursor it carries, kept for
     * persisting (payload "" = not persisted). */
    core::SnapshotMeta cursor;
    std::string payload;
};

/**
 * Shared state of one sampled run: the bounded checkpoint queue
 * (producer -> workers), the result map (workers -> stitcher), the
 * recycled-buffer pool, and failure propagation. All waits carry the
 * abort predicate so one failing thread releases every other.
 */
class Pipeline
{
  public:
    explicit Pipeline(std::size_t capacity) : capacity_(capacity) {}

    /** Producer: block until there is queue space, then enqueue.
     * @return false when the run aborted meanwhile. */
    bool
    push(WorkItem &&item)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        space_cv_.wait(lock, [this] {
            return aborted_ || queue_.size() < capacity_;
        });
        if (aborted_)
            return false;
        end_ = item.interval + 1;
        queue_.push_back(std::move(item));
        items_cv_.notify_one();
        return true;
    }

    /** Producer: no more items will be pushed. */
    void
    finishProducing()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        closed_ = true;
        items_cv_.notify_all();
        results_cv_.notify_all();
    }

    /** Worker: dequeue the next checkpoint.
     * @return false when the queue is drained-and-closed or the run
     * aborted. */
    bool
    pop(WorkItem &item)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        items_cv_.wait(lock, [this] {
            return aborted_ || closed_ || !queue_.empty();
        });
        if (aborted_ || queue_.empty())
            return false;
        item = std::move(queue_.front());
        queue_.pop_front();
        space_cv_.notify_one();
        return true;
    }

    /** Worker: post interval @p k's outcome for the stitcher. */
    void
    post(std::uint64_t k, IntervalOutcome &&outcome)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        results_[k] = std::move(outcome);
        results_cv_.notify_all();
    }

    /**
     * Stitcher: wait for interval @p k's outcome. @return false when
     * no outcome will ever arrive (producer finished below k, or the
     * run aborted).
     */
    bool
    await(std::uint64_t k, IntervalOutcome &out)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        results_cv_.wait(lock, [this, k] {
            return aborted_ || results_.count(k) != 0 ||
                   (closed_ && k >= end_);
        });
        const auto it = results_.find(k);
        if (it == results_.end())
            return false;
        out = std::move(it->second);
        results_.erase(it);
        return true;
    }

    /** Any thread: record the first failure and release everyone. */
    void
    fail(std::exception_ptr e)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!error_)
            error_ = std::move(e);
        aborted_ = true;
        space_cv_.notify_all();
        items_cv_.notify_all();
        results_cv_.notify_all();
    }

    bool
    aborted() const
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return aborted_;
    }

    /** After all threads joined: rethrow the first failure, if any. */
    void
    rethrowIfFailed()
    {
        if (error_)
            std::rethrow_exception(error_);
    }

    /** Recycle a payload buffer (keeps its capacity). */
    void
    recycle(std::string &&buf)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        pool_.push_back(std::move(buf));
    }

    /** Get a recycled payload buffer ("" on a cold pool). */
    std::string
    buffer()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (pool_.empty())
            return {};
        std::string buf = std::move(pool_.back());
        pool_.pop_back();
        return buf;
    }

  private:
    mutable std::mutex mutex_;
    std::condition_variable space_cv_;   // producer waits for room
    std::condition_variable items_cv_;   // workers wait for items
    std::condition_variable results_cv_; // stitcher waits for results
    std::deque<WorkItem> queue_;
    std::size_t capacity_;
    std::uint64_t end_ = 0; ///< one past the last interval pushed
    bool closed_ = false;
    bool aborted_ = false;
    std::exception_ptr error_;
    std::map<std::uint64_t, IntervalOutcome> results_;
    std::vector<std::string> pool_;
};

} // namespace

SampledResult
runSampledPipelined(const core::ProcessorConfig &config,
                    const workload::SuiteProfile &suite,
                    std::uint64_t total_uops,
                    std::uint64_t seed_override,
                    const SampledOptions &opts)
{
    const SampledPlan &plan = opts.plan;
    if (plan.detail_uops == 0)
        throw std::invalid_argument(
            "runSampledPipelined: plan.detail_uops must be > 0");

    const std::uint64_t interval_len = plan.intervalUops();
    const std::uint64_t num_intervals =
        (total_uops + interval_len - 1) / interval_len;
    const std::uint64_t shard_start = opts.shard_start;
    if (shard_start > 0 && shard_start >= num_intervals)
        throw std::invalid_argument(
            "runSampledPipelined: shard_start beyond the last "
            "interval (" +
            std::to_string(num_intervals) + " intervals)");
    if (shard_start > 0 && opts.ckpt_dir.empty())
        throw std::invalid_argument(
            "runSampledPipelined: sharded run needs a checkpoint "
            "directory");
    const std::uint64_t end_interval =
        opts.shard_count > num_intervals - shard_start
            ? num_intervals
            : shard_start + opts.shard_count;
    const unsigned jobs = std::max(1u, opts.sample_jobs);
    const std::size_t capacity =
        opts.queue_capacity ? opts.queue_capacity
                            : 2 * static_cast<std::size_t>(jobs) + 2;

    // Same seed plumbing as runOne: the effective config re-keys the
    // snoop stream, while the checkpoint context hashes the caller's
    // config (the seed travels separately in the context).
    core::ProcessorConfig cfg = config;
    if (seed_override)
        cfg.snoop_seed = splitmix64(seed_override ^ cfg.snoop_seed);
    const core::SnapshotContext ctx = core::makeSnapshotContext(
        config, suite, total_uops, seed_override, plan.ff_uops,
        plan.warm_uops, plan.detail_uops);
    const auto ckptPath = [&](std::uint64_t k) {
        return opts.ckpt_dir + "/" + core::snapshotFileName(ctx, k);
    };

    // Producer-side state lives on this frame so the final digest (and
    // a shard's handoff checkpoint) can be taken after every thread
    // has been joined.
    workload::Generator gen(suite, total_uops, seed_override);
    core::SimState sim(cfg);
    core::FastForwardEngine ff(sim);
    core::SnapshotMeta pmeta; // producer cursor (aggregates unused)
    core::SnapshotMeta meta;  // aggregate, stitched in interval order

    // A shard resumes from the checkpoint at its first interval's
    // detail entry, which also carries the aggregate of every interval
    // before it. Never a silent re-fast-forward from uop 0.
    if (shard_start > 0) {
        const std::string path = ckptPath(shard_start);
        const core::LoadedSnapshot loaded =
            core::loadSnapshot(path, ctx, sim);
        if (loaded.meta.next_interval != shard_start)
            throw core::SnapshotError(
                "snapshot: " + path + " resumes interval " +
                std::to_string(loaded.meta.next_interval) +
                ", expected " + std::to_string(shard_start));
        gen.restoreState(loaded.gen);
        meta = loaded.meta;
        pmeta = loaded.meta;
    }

    const auto restored = [&](std::uint64_t k) {
        return shard_start > 0 && k == shard_start;
    };

    // Fast-forward and warm to interval k's detail entry (a restored
    // shard already stands at its first one) and key its snoop
    // stream. @return the detail span (0 = the stream ended first).
    const auto enterInterval = [&](std::uint64_t k) {
        if (!restored(k)) {
            const std::uint64_t base = k * interval_len;
            const std::uint64_t ff_span =
                std::min(plan.ff_uops, total_uops - base);
            const std::uint64_t warm_span =
                std::min(plan.warm_uops, total_uops - base - ff_span);
            pmeta.ff_done += ff.run(gen, ff_span, /*warm=*/false);
            pmeta.warm_done += ff.run(gen, warm_span, /*warm=*/true);
            pmeta.consumed_uops = gen.emitted();
            pmeta.next_interval = k;
        }
        const std::uint64_t detail_span =
            std::min(plan.detail_uops, total_uops - pmeta.consumed_uops);
        if (detail_span > 0) {
            sim.snoop_rng_state = intervalSnoopCursor(cfg.snoop_seed, k);
            sim.snoop_payload = (k + 1) << 32;
        }
        return detail_span;
    };

    Pipeline pipe(capacity);
    double producer_wall_s = 0.0;
    bool handoff = false; // producer stands at the next shard's entry

    // ---- producer: continuous fast-forward + snapshot emission ----
    const auto producerFn = [&]() {
        try {
            const auto t0 = std::chrono::steady_clock::now();
            if (shard_start == 0)
                // Warmed-cache methodology at uop zero, as runOne.
                workload::prewarmCaches(suite, sim.hier);
            std::uint64_t k = shard_start;
            for (; k < end_interval; ++k) {
                const std::uint64_t detail_span = enterInterval(k);
                if (detail_span == 0)
                    break;
                std::string payload = core::buildSnapshotPayload(
                    ctx, pmeta, sim, gen.captureState(),
                    pipe.buffer());
                if (!pipe.push(
                        WorkItem{k, detail_span, std::move(payload)}))
                    break; // aborted
                // Advance through the detail span functionally (with
                // warming) so interval k+1's entry state has seen it;
                // the workers' detailed runs of the span never feed
                // back. These uops are accounted as detail coverage
                // by the workers, not as ff/warm.
                ff.run(gen, detail_span, /*warm=*/true);
            }
            // Shard handoff: a shard that stops before the last
            // interval also fast-forwards into the next shard's entry
            // point, so a chain of shards needs no overlap.
            if (k == end_interval && end_interval < num_intervals &&
                !opts.ckpt_dir.empty()) {
                enterInterval(end_interval);
                handoff = true;
            }
            producer_wall_s = secondsSince(t0);
        } catch (...) {
            pipe.fail(std::current_exception());
        }
        pipe.finishProducing();
    };

    // ---- detail workers: adopt a checkpoint, run the interval ----
    // Every entry checkpoint is persisted, except the one a shard was
    // restored from (already on disk, and not this run's to prune).
    const auto persist = [&](std::uint64_t k) {
        return !opts.ckpt_dir.empty() && !restored(k);
    };
    const auto workerFn = [&]() {
        try {
            core::SimState wsim(cfg);
            workload::Generator wgen(suite, total_uops, seed_override);
            WorkItem item;
            while (pipe.pop(item)) {
                if (opts.worker_start_hook)
                    opts.worker_start_hook(item.interval);
                core::LoadedSnapshot loaded =
                    core::adoptSnapshotPayload(item.payload, ctx,
                                               wsim);
                wgen.restoreState(loaded.gen);
                const std::uint64_t start_seq = loaded.meta.consumed_uops;
                IntervalOutcome out;
                if (persist(item.interval)) {
                    out.cursor = std::move(loaded.meta);
                    out.payload = std::move(item.payload);
                } else {
                    pipe.recycle(std::move(item.payload));
                }

                LimitStream seg(wgen, item.detail_span);
                core::Processor cpu(cfg, seg, wsim, start_seq);

                const bool traced =
                    opts.trace_interval >= 0 &&
                    static_cast<std::uint64_t>(opts.trace_interval) ==
                        item.interval;
                std::shared_ptr<obs::Recording> rec;
                obs::ProbeBus bus;
                if (traced) {
                    rec = std::make_shared<obs::Recording>(
                        opts.obs.ring_capacity,
                        opts.obs.sample_every);
                    rec->meta["config"] = config.name;
                    rec->meta["suite"] = suite.name;
                    rec->meta["uops"] = std::to_string(total_uops);
                    rec->meta["seed"] =
                        std::to_string(seed_override);
                    rec->meta["interval"] =
                        std::to_string(item.interval);
                    bus.attach(&rec->ring);
                    cpu.attachProbeBus(&bus);
                    if (opts.obs.sample_every > 0)
                        cpu.attachSampler(&rec->sampler);
                }

                const auto t0 = std::chrono::steady_clock::now();
                const core::ProcessorStats &s = cpu.run();

                out.wall_s = secondsSince(t0);
                out.stats = s;
                // Skip-ahead is a host strategy (chash leaves it out
                // too), and a traced interval never skips, so its
                // count stays out of the checkpointed aggregate and
                // the final digest.
                out.stats.skipped_cycles = 0;
                out.occupancy = cpu.srlOccupancy();
                out.taken = seg.taken();
                if (rec) {
                    rec->sampler.dropGauges();
                    rec->meta["cycles"] = std::to_string(s.cycles);
                    out.trace_json = obs::toChromeTrace(*rec);
                }
                pipe.post(item.interval, std::move(out));
            }
        } catch (...) {
            pipe.fail(std::current_exception());
        }
    };

    SampledResult result;
    CkptRetention retention(opts.ckpt_keep_last);
    const auto save = [&](std::uint64_t k, const std::string &payload,
                          bool pinned) {
        const std::string path = ckptPath(k);
        core::writeSnapshotPayload(path, payload);
        result.ckpts_saved.push_back(path);
        retention.saved(path, pinned);
    };

    // ---- run the pipeline; this thread is the stitcher ----
    {
        std::thread producer(producerFn);
        {
            ThreadPool workers(jobs);
            for (unsigned i = 0; i < jobs; ++i)
                workers.submit(workerFn);

            try {
                IntervalOutcome out;
                for (std::uint64_t k = shard_start; pipe.await(k, out);
                     ++k) {
                    // A persisted entry checkpoint carries the
                    // aggregate of the intervals before it, so a
                    // shard restored from it finishes with the
                    // straight run's record and digest.
                    if (!out.payload.empty()) {
                        core::SnapshotMeta entry = std::move(out.cursor);
                        entry.detail_done = meta.detail_done;
                        entry.stats = meta.stats;
                        entry.occupancy = meta.occupancy;
                        std::string bytes = core::replaceSnapshotMeta(
                            out.payload, entry, pipe.buffer());
                        save(k, bytes, /*pinned=*/false);
                        pipe.recycle(std::move(bytes));
                        pipe.recycle(std::move(out.payload));
                    }
                    core::accumulateStats(meta.stats, out.stats);
                    meta.occupancy.merge(out.occupancy);
                    meta.detail_done += out.taken;
                    meta.next_interval = k + 1;
                    result.detail_wall_s += out.wall_s;
                    ++result.intervals_run;
                    result.interval_records.push_back(
                        intervalRecord(k, out.stats));
                    if (!out.trace_json.empty())
                        result.trace_json = std::move(out.trace_json);
                }
            } catch (...) {
                pipe.fail(std::current_exception());
            }
            workers.wait();
        } // joins the worker threads
        producer.join();
    }
    pipe.rethrowIfFailed();

    // Cursor totals come from the producer; its state (which has
    // fast-forwarded to the end of the shard) anchors the final
    // digest, and is the next shard's entry checkpoint when the shard
    // stops early.
    meta.ff_done = pmeta.ff_done;
    meta.warm_done = pmeta.warm_done;
    meta.consumed_uops = gen.emitted();
    const std::string final_payload =
        core::buildSnapshotPayload(ctx, meta, sim, gen.captureState());
    result.final_digest =
        chash::hashBytes(final_payload.data(), final_payload.size());
    if (handoff)
        save(end_interval, final_payload, /*pinned=*/true);

    result.stats = meta.stats;
    result.ff_uops = meta.ff_done;
    result.warm_uops = meta.warm_done;
    result.detail_uops = meta.detail_done;
    result.ff_wall_s = producer_wall_s;
    result.record =
        aggregateRecord(config, suite, seed_override, plan, meta);
    return result;
}

} // namespace runner
} // namespace srl
