#include "service/service.hh"

#include <thread>
#include <utility>

#include "runner/sampled.hh"

namespace srl
{
namespace service
{

SweepService::SweepService(ResultCache &cache,
                           const ServiceOptions &opts)
    : cache_(cache), opts_(opts),
      max_active_(opts.jobs ? opts.jobs
                            : (std::thread::hardware_concurrency()
                                   ? std::thread::hardware_concurrency()
                                   : 1)),
      pool_(max_active_)
{
}

SweepService::~SweepService()
{
    drain();
}

SweepService::Admit
SweepService::submit(std::uint64_t client, PointSpec spec,
                     ResultFn done)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (draining_) {
        ++rejected_draining_;
        return Admit::kDraining;
    }
    if (queued_ >= opts_.queue_depth) {
        ++rejected_busy_;
        return Admit::kBusy;
    }
    auto &q = queues_[client];
    if (q.empty())
        rr_clients_.push_back(client);
    q.push_back(Job{std::move(spec), std::move(done)});
    ++queued_;
    ++submitted_;
    queue_peak_ = std::max(queue_peak_, queued_);
    pump(lock);
    return Admit::kAccepted;
}

void
SweepService::pump(std::unique_lock<std::mutex> &lock)
{
    // Called with mutex_ held; hands ready jobs to the pool
    // round-robin across clients until the concurrency budget or the
    // queues run out.
    (void)lock;
    while (active_ < max_active_ && queued_ > 0) {
        rr_cursor_ %= rr_clients_.size();
        const std::uint64_t client = rr_clients_[rr_cursor_];
        auto &q = queues_[client];
        Job job = std::move(q.front());
        q.pop_front();
        --queued_;
        if (q.empty()) {
            queues_.erase(client);
            // The erase shifts the next client into the cursor slot,
            // so the cursor only advances when the client stays.
            rr_clients_.erase(rr_clients_.begin() +
                              static_cast<std::ptrdiff_t>(rr_cursor_));
        } else {
            ++rr_cursor_;
        }
        ++active_;
        auto shared = std::make_shared<Job>(std::move(job));
        pool_.submit([this, shared] { runJob(std::move(*shared)); });
    }
}

void
SweepService::runJob(Job job)
{
    stats::RunRecord record;
    chash::Hash128 key{};
    ResultCache::Outcome outcome = ResultCache::Outcome::kMiss;

    try {
        const core::ProcessorConfig cfg = job.spec.materializeConfig();
        const workload::SuiteProfile suite =
            job.spec.materializeSuite();
        const std::uint64_t run_seed = job.spec.run_seed;
        const std::uint64_t uops = job.spec.uops;
        const bool occupancy = job.spec.occupancy_series;
        key = chash::pointKey(cfg, suite, uops, run_seed, occupancy,
                              job.spec.ff_uops, job.spec.warm_uops,
                              job.spec.detail_uops,
                              job.spec.shard_start,
                              job.spec.shard_count);
        const PointSpec &spec = job.spec;
        const std::string &ckpt_dir = opts_.ckpt_dir;
        const unsigned sample_jobs = opts_.sample_jobs;
        ResultCache::GetResult got = cache_.getOrCompute(
            key,
            [&cfg, &suite, uops, run_seed, occupancy, &spec,
             &ckpt_dir, sample_jobs] {
                if (spec.sampled()) {
                    runner::SampledOptions sopts;
                    sopts.plan.ff_uops = spec.ff_uops;
                    sopts.plan.warm_uops = spec.warm_uops;
                    sopts.plan.detail_uops = spec.detail_uops;
                    sopts.ckpt_dir = ckpt_dir;
                    sopts.shard_start = spec.shard_start;
                    if (spec.shard_count)
                        sopts.shard_count = spec.shard_count;
                    // Worker count is a daemon knob, never part of
                    // the key: sampled results are jobs-invariant.
                    sopts.sample_jobs = sample_jobs;
                    return runner::runSampledPipelined(
                               cfg, suite, uops, run_seed, sopts)
                        .record;
                }
                const core::RunResult r =
                    core::runOne(cfg, suite, uops, run_seed);
                return runner::recordFromResult(r, run_seed, occupancy);
            });
        record = std::move(got.record);
        outcome = got.outcome;
    } catch (const std::exception &e) {
        record.error = e.what();
    } catch (...) {
        record.error = "unknown exception";
    }
    record.name = job.spec.name;

    if (job.done)
        job.done(record, key, outcome);

    std::unique_lock<std::mutex> lock(mutex_);
    --active_;
    ++completed_;
    if (record.failed())
        ++failed_;
    pump(lock);
    if (queued_ == 0 && active_ == 0)
        drained_cv_.notify_all();
}

void
SweepService::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    draining_ = true;
    drained_cv_.wait(lock,
                     [this] { return queued_ == 0 && active_ == 0; });
}

stats::StatsReport
SweepService::statsReport() const
{
    stats::StatsReport rep;
    rep.meta["role"] = "srlsim-service";

    stats::RunRecord svc;
    svc.name = "service";
    {
        std::lock_guard<std::mutex> lock(mutex_);
        svc.set("submitted", static_cast<double>(submitted_));
        svc.set("completed", static_cast<double>(completed_));
        svc.set("failed", static_cast<double>(failed_));
        svc.set("rejected_busy", static_cast<double>(rejected_busy_));
        svc.set("rejected_draining",
                static_cast<double>(rejected_draining_));
        svc.set("queue_depth", static_cast<double>(queued_));
        svc.set("queue_peak", static_cast<double>(queue_peak_));
        svc.set("active", static_cast<double>(active_));
        svc.set("max_active", static_cast<double>(max_active_));
    }
    rep.runs.push_back(std::move(svc));
    rep.runs.push_back(cache_.countersRecord());
    return rep;
}

stats::StatsReport
runSweepCached(const std::vector<runner::SweepPoint> &points,
               const runner::SweepOptions &opts, ResultCache &cache)
{
    std::vector<runner::Task> tasks;
    tasks.reserve(points.size());
    for (const auto &p : points) {
        tasks.push_back(
            {p.name, [&p, &opts, &cache](std::uint64_t run_seed) {
                 const chash::Hash128 key =
                     chash::pointKey(p.config, p.suite, p.uops,
                                     run_seed, opts.occupancy_series);
                 ResultCache::GetResult got = cache.getOrCompute(
                     key, [&p, &opts, run_seed] {
                         const core::RunResult r = core::runOne(
                             p.config, p.suite, p.uops, run_seed);
                         return runner::recordFromResult(
                             r, run_seed, opts.occupancy_series);
                     });
                 // runTasks re-imposes the task name, so a hit that
                 // was stored under another row name still lands
                 // correctly.
                 return got.record;
             }});
    }
    return runner::runTasks(tasks, opts);
}

std::vector<PointSpec>
canonicalSweepSpecs(const std::string &suite, std::uint64_t uops,
                    std::uint64_t base_seed)
{
    std::vector<PointSpec> specs;
    const auto add = [&](PointSpec s) {
        s.suite = suite;
        s.uops = uops;
        s.run_seed = runner::deriveRunSeed(base_seed, specs.size());
        specs.push_back(std::move(s));
    };

    PointSpec baseline;
    baseline.name = "baseline";
    baseline.base = "baseline";
    add(baseline);
    for (const unsigned depth : {128u, 256u, 512u, 1024u}) {
        PointSpec s;
        s.name = "srl-depth-" + std::to_string(depth);
        s.base = "srl";
        s.srl_depth = depth;
        add(s);
    }
    for (const char *hash : {"lab", "3pax"}) {
        for (const unsigned entries : {256u, 2048u}) {
            PointSpec s;
            s.name = "lcf-" + std::to_string(entries) + "-" + hash;
            s.base = "srl";
            s.lcf_entries = entries;
            s.lcf_hash = hash;
            add(s);
        }
    }
    PointSpec hier;
    hier.name = "hierarchical";
    hier.base = "hierarchical";
    add(hier);
    PointSpec ideal;
    ideal.name = "ideal-stq";
    ideal.base = "ideal";
    add(ideal);
    return specs;
}

std::vector<runner::SweepPoint>
materializePoints(const std::vector<PointSpec> &specs)
{
    std::vector<runner::SweepPoint> points;
    points.reserve(specs.size());
    for (const auto &s : specs) {
        points.push_back({s.name, s.materializeConfig(),
                          s.materializeSuite(), s.uops});
    }
    return points;
}

} // namespace service
} // namespace srl
