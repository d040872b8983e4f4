/**
 * @file
 * sampled_smarts: one long SFP2K run on the SRL model under the
 * pipelined sampled engine (runner::runSampledPipelined), SMARTS-style:
 * many short detail windows at about 1% coverage, each preceded by a
 * pure and a warming fast-forward span. Fast-forward and the full
 * SimState handoff at every detail entry dominate; the detailed model
 * does little.
 *
 * One operation is one detail interval. A round is one sampled run of
 * each of kPrograms SFP2K programs, whose workload seeds come from
 * --seed; rounds repeat until --seconds have passed. (The seed changes
 * the program's footprint, and with it a run's cost, by up to ~40%;
 * four programs per round keep the figures from following the seed.)
 * Per-operation latency is the pipeline's period: the gap between
 * successive interval starts, as the engine's worker start hook
 * reports them.
 *
 * Checks (untimed, after the rounds):
 *  - every interval's detailed uops equal the plan's arithmetic;
 *  - a replica of the pipeline built from public calls
 *    (FastForwardEngine, buildSnapshotPayload, adoptSnapshotPayload,
 *    Processor) reproduces every interval's cycles, and each detail
 *    window commits the loads and stores the generator holds there;
 *  - the aggregate record's loads and stores equal the windows' sum;
 *  - every round, and a 3-worker run, give the same report, interval
 *    records and final digest as round 0;
 *  - the replica's fast-forward over the whole run leaves memory equal
 *    to the in-order byte-map executor's.
 * The replica is also the traced run's layer probe: its calls are the
 * spans behind ff.*, snapshot.* and detail.run_s.
 */

#include <algorithm>
#include <cstdio>

#include "checks.hh"
#include "common.hh"
#include "common/random.hh"
#include "core/config.hh"
#include "core/fast_forward.hh"
#include "core/processor.hh"
#include "core/sim_state.hh"
#include "core/simulator.hh"
#include "core/snapshot.hh"
#include "runner/sampled.hh"
#include "service/protocol.hh"
#include "workload/generator.hh"
#include "workload/prewarm.hh"
#include "workload/profile.hh"

namespace srlbench
{

namespace
{

constexpr std::uint64_t kTotalUops = 2'000'000;
constexpr srl::runner::SampledPlan kPlan{89'000, 10'000, 1'000};
constexpr unsigned kWorkers = 1; // + the producer thread
constexpr std::size_t kQueue = 2;  // handoffs buffered ahead of workers
constexpr unsigned kCheckWorkers = 3; // the worker-count invariance check
constexpr std::size_t kPrograms = 4; // SFP2K programs (seeds) per round

/** At most @p limit uops of @p inner. */
class Limited : public srl::isa::UopStream
{
  public:
    Limited(srl::isa::UopStream &inner, std::uint64_t limit)
        : inner_(inner), limit_(limit)
    {
    }
    bool
    next(srl::isa::Uop &out) override
    {
        if (taken_ >= limit_ || !inner_.next(out))
            return false;
        ++taken_;
        return true;
    }

  private:
    srl::isa::UopStream &inner_;
    std::uint64_t limit_;
    std::uint64_t taken_ = 0;
};

/** Everything that must repeat exactly between two sampled runs. */
std::string
fingerprint(const srl::runner::SampledResult &r)
{
    std::string s = srl::service::encodeRecord(r.record);
    for (const auto &rec : r.interval_records)
        s += srl::service::encodeRecord(rec);
    return s + r.final_digest.toHex();
}

struct ReplicaResult
{
    std::vector<srl::core::ProcessorStats> intervals;
    std::vector<double> payload_bytes;
    std::string memory_failure; ///< ff memory vs the in-order executor
};

/**
 * The pipelined engine's steps as separate public calls, serially:
 * producer fast-forward, snapshot build, worker adopt, detailed run.
 * (The SRL config has no external snoop traffic, so the per-interval
 * snoop cursor the engine derives does not affect the windows.)
 */
ReplicaResult
replica(const srl::core::ProcessorConfig &config,
        const srl::workload::SuiteProfile &suite, std::uint64_t seed,
        const InOrderOracle &oracle, Tracer &tracer)
{
    srl::core::ProcessorConfig cfg = config;
    cfg.snoop_seed = srl::splitmix64(seed ^ cfg.snoop_seed);
    const srl::core::SnapshotContext ctx = srl::core::makeSnapshotContext(
        config, suite, kTotalUops, seed, kPlan.ff_uops, kPlan.warm_uops,
        kPlan.detail_uops);

    srl::workload::Generator gen(suite, kTotalUops, seed);
    srl::core::SimState sim(cfg);
    srl::core::FastForwardEngine ff(sim);
    srl::workload::prewarmCaches(suite, sim.hier);
    srl::workload::Generator wgen(suite, kTotalUops, seed);
    srl::core::SimState wsim(cfg);
    srl::core::SnapshotMeta meta;

    ReplicaResult out;
    std::string payload; // recycled between handoffs, as the engine does
    for (std::uint64_t k = 0;; ++k) {
        const std::uint64_t base = k * kPlan.intervalUops();
        if (base >= kTotalUops)
            break;
        {
            ScopedSpan s(tracer, "ff.pure", k);
            meta.ff_done += ff.run(
                gen, std::min(kPlan.ff_uops, kTotalUops - base), false);
        }
        {
            ScopedSpan s(tracer, "ff.warm", k);
            meta.warm_done += ff.run(
                gen, std::min(kPlan.warm_uops, kTotalUops - gen.emitted()),
                true);
        }
        meta.consumed_uops = gen.emitted();
        meta.next_interval = k;
        const std::uint64_t span =
            std::min(kPlan.detail_uops, kTotalUops - gen.emitted());
        if (span == 0)
            break;
        {
            ScopedSpan s(tracer, "snapshot.build", k);
            payload = srl::core::buildSnapshotPayload(
                ctx, meta, sim, gen.captureState(), std::move(payload));
        }
        out.payload_bytes.push_back(static_cast<double>(payload.size()));
        {
            ScopedSpan s(tracer, "snapshot.adopt", k);
            const srl::core::LoadedSnapshot loaded =
                srl::core::adoptSnapshotPayload(payload, ctx, wsim);
            wgen.restoreState(loaded.gen);
        }
        Limited seg(wgen, span);
        srl::core::Processor cpu(cfg, seg, wsim, meta.consumed_uops);
        {
            ScopedSpan s(tracer, "detail.run", k);
            out.intervals.push_back(cpu.run());
        }
        {
            ScopedSpan s(tracer, "ff.warm", k);
            ff.run(gen, span, true);
        }
    }
    out.memory_failure = checkFinalMemory(oracle, sim.mem);
    return out;
}
/** One of the round's programs: its seed, expectations and results. */
struct Program
{
    std::uint64_t seed = 0;
    std::vector<StreamCounts> windows; ///< per interval, from the generator
    std::string reference;             ///< round 0's fingerprint
    srl::runner::SampledResult first;  ///< round 0's result
    bool repeatable = true;
};

/** Committed loads/stores of each detail window, from the generator. */
std::vector<StreamCounts>
windowCounts(const srl::workload::SuiteProfile &suite, std::uint64_t seed)
{
    std::vector<StreamCounts> windows;
    srl::workload::Generator gen(suite, kTotalUops, seed);
    srl::isa::Uop u;
    for (std::uint64_t i = 0; gen.next(u); ++i) {
        const std::uint64_t k = i / kPlan.intervalUops();
        if (i % kPlan.intervalUops() < kPlan.ff_uops + kPlan.warm_uops)
            continue;
        if (windows.size() <= k)
            windows.resize(k + 1);
        ++windows[k].uops;
        windows[k].loads += u.isLoad();
        windows[k].stores += u.isStore();
    }
    return windows;
}

/**
 * Check one program: @return one verdict per interval (empty = ok).
 * Runs the worker-count invariance run and the replica, whose layer
 * spans go to @p tracer.
 */
std::vector<std::string>
checkProgram(const Program &prog, const srl::core::ProcessorConfig &config,
             const srl::workload::SuiteProfile &suite,
             const srl::runner::SampledOptions &opts, Tracer &tracer,
             ReplicaResult &rep)
{
    const auto &records = prog.first.interval_records;
    std::vector<std::string> failures(records.size());
    std::string run_failure;
    if (records.size() != prog.windows.size())
        run_failure = "engine ran " + std::to_string(records.size()) +
                      " intervals, plan has " +
                      std::to_string(prog.windows.size());
    for (std::size_t k = 0; k < failures.size(); ++k)
        failures[k] = checkIntervalUops(records[k], k, kPlan, kTotalUops);
    StreamCounts sum;
    for (const StreamCounts &w : prog.windows) {
        sum.uops += w.uops;
        sum.loads += w.loads;
        sum.stores += w.stores;
    }
    if (run_failure.empty())
        run_failure = checkRecordCounts(prog.first.record, sum);
    if (run_failure.empty() && !prog.repeatable)
        run_failure = "rounds disagree on the report or final digest";
    if (run_failure.empty()) {
        srl::runner::SampledOptions more = opts;
        more.sample_jobs = kCheckWorkers;
        more.worker_start_hook = nullptr;
        if (fingerprint(srl::runner::runSampledPipelined(
                config, suite, kTotalUops, prog.seed, more)) !=
            prog.reference)
            run_failure = std::to_string(kCheckWorkers) +
                          "-worker run differs from the " +
                          std::to_string(kWorkers) + "-worker run";
    }

    InOrderOracle oracle;
    {
        srl::workload::Generator gen(suite, kTotalUops, prog.seed);
        oracle.run(gen);
    }
    rep = replica(config, suite, prog.seed, oracle, tracer);
    if (run_failure.empty())
        run_failure = rep.memory_failure;
    if (run_failure.empty() && rep.intervals.size() != failures.size())
        run_failure = "replica ran a different number of intervals";
    for (std::size_t k = 0; k < failures.size() && k < rep.intervals.size();
         ++k) {
        const srl::core::ProcessorStats &s = rep.intervals[k];
        const StreamCounts &w = prog.windows[k];
        if (!failures[k].empty())
            continue;
        if (static_cast<double>(s.cycles) != records[k].metric("cycles"))
            failures[k] = "replica interval " + std::to_string(k) +
                          " took " + std::to_string(s.cycles) +
                          " cycles, engine " +
                          std::to_string(records[k].metric("cycles"));
        else if (s.committed_loads != w.loads ||
                 s.committed_stores != w.stores)
            failures[k] = "interval " + std::to_string(k) + " committed " +
                          std::to_string(s.committed_loads) + " loads/" +
                          std::to_string(s.committed_stores) +
                          " stores, generator window holds " +
                          std::to_string(w.loads) + "/" +
                          std::to_string(w.stores);
    }
    if (!run_failure.empty())
        for (std::string &f : failures)
            f = run_failure;
    return failures;
}

} // namespace

void
runSampledSmarts(const Args &args, Outcome &out)
{
    // ---- set-up: expected per-window counts from the generator, then
    // the producer's and one worker's state built and pre-warmed once,
    // cold ----
    const srl::core::ProcessorConfig config = srl::core::srlConfig();
    const srl::workload::SuiteProfile suite =
        srl::workload::suiteProfile("SFP2K");
    std::vector<Program> progs(kPrograms);
    for (std::size_t p = 0; p < progs.size(); ++p) {
        const std::uint64_t seed =
            srl::splitmix64(args.seed ^ srl::splitmix64(p + 1));
        progs[p].seed = seed ? seed : 1;
        progs[p].windows = windowCounts(suite, progs[p].seed);
    }
    {
        srl::workload::Generator gen(suite, kTotalUops, progs[0].seed);
        srl::core::SimState sim(config);
        srl::workload::prewarmCaches(suite, sim.hier);
        srl::workload::Generator wgen(suite, kTotalUops, progs[0].seed);
        srl::core::SimState wsim(config);
    }
    out.set("setup_s", secondsSince(args.process_start));

    // ---- timed rounds ----
    Tracer tracer(args.trace);
    const std::uint64_t planned =
        (kTotalUops + kPlan.intervalUops() - 1) / kPlan.intervalUops();
    std::vector<Clock::time_point> starts(planned);
    srl::runner::SampledOptions opts;
    opts.plan = kPlan;
    opts.sample_jobs = kWorkers;
    opts.queue_capacity = kQueue;
    opts.worker_start_hook = [&starts](std::uint64_t k) {
        starts.at(k) = Clock::now();
    };

    std::vector<double> periods_ms, untraced_walls, traced_walls;
    std::vector<double> producer_s, worker_s, overlap;
    std::vector<double> covered_rates, detail_rates; // per round, uops/s
    std::uint64_t rounds = 0, intervals = 0;
    double peak_rss = 0.0;
    const auto timed_start = Clock::now();
    // A traced run needs an untraced and a traced round at least.
    const std::uint64_t min_rounds = args.trace ? 2 : 1;
    while (rounds < min_rounds || secondsSince(timed_start) < args.seconds) {
        const bool traced_round = args.trace && rounds % 2 == 1;
        double wall = 0.0, producer = 0.0, worker = 0.0;
        std::uint64_t covered = 0, detail = 0;
        for (Program &prog : progs) {
            const auto r0 = Clock::now();
            srl::runner::SampledResult r = srl::runner::runSampledPipelined(
                config, suite, kTotalUops, prog.seed, opts);
            wall += secondsSince(r0);
            std::vector<Clock::time_point> s(
                starts.begin(), starts.begin() + static_cast<std::ptrdiff_t>(
                                                     r.intervals_run));
            std::sort(s.begin(), s.end());
            for (std::size_t k = 1; k < s.size(); ++k) {
                if (traced_round)
                    tracer.record("sampled.interval", s[k - 1], s[k], k);
                else
                    periods_ms.push_back(secondsBetween(s[k - 1], s[k]) *
                                         1e3);
            }
            if (traced_round)
                tracer.record("sampled.run", r0, Clock::now(), rounds);
            producer += r.ff_wall_s;
            worker += r.detail_wall_s;
            covered += r.ff_uops + r.warm_uops + r.detail_uops;
            detail += r.detail_uops;
            intervals += r.intervals_run;
            if (rounds == 0) {
                prog.reference = fingerprint(r);
                prog.first = std::move(r);
            } else if (fingerprint(r) != prog.reference) {
                prog.repeatable = false;
            }
        }
        (traced_round ? traced_walls : untraced_walls).push_back(wall);
        if (traced_round) {
            producer_s.push_back(producer);
            worker_s.push_back(worker);
            overlap.push_back((producer + worker) / wall);
        } else {
            covered_rates.push_back(static_cast<double>(covered) / wall);
            detail_rates.push_back(static_cast<double>(detail) / wall);
        }
        // Peak RSS of the set-up and one round: later rounds repeat it.
        if (rounds == 0)
            peak_rss = peakRssMb();
        ++rounds;
    }
    const double timed_s = secondsSince(timed_start);

    // ---- checks (untimed) ----
    Tracer quiet(false);
    std::vector<double> payload_bytes;
    std::uint64_t failed_intervals = 0, per_round = 0;
    for (const Program &prog : progs) {
        ReplicaResult rep;
        const std::vector<std::string> failures = checkProgram(
            prog, config, suite, opts, args.trace ? tracer : quiet, rep);
        payload_bytes.insert(payload_bytes.end(), rep.payload_bytes.begin(),
                             rep.payload_bytes.end());
        per_round += failures.size();
        for (std::size_t k = 0; k < failures.size(); ++k) {
            if (failures[k].empty())
                continue;
            ++failed_intervals;
            std::fprintf(stderr, "srlbench: FAIL seed %llu interval %zu: %s\n",
                         static_cast<unsigned long long>(prog.seed), k,
                         failures[k].c_str());
        }
    }
    out.attempted = intervals;
    out.failed = rounds * failed_intervals;

    std::printf("sampled_smarts: %llu rounds x %llu intervals (%zu programs), "
                "%.2f s timed, %llu intervals fail their checks\n",
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(per_round), progs.size(),
                timed_s, static_cast<unsigned long long>(failed_intervals));

    // ---- end-to-end metrics ----
    int tail_pct = 50;
    out.set("detail_uops_per_s", median(detail_rates));
    out.set("sampled_uops_per_s", median(covered_rates));
    out.set("campaign_s", median(untraced_walls));
    out.set("op_p50_ms", median(periods_ms));
    out.set("op_tail_ms", tailValue(periods_ms, tail_pct));
    out.set("peak_rss_mb", peak_rss);
    std::printf("sampled_smarts: %.4g covered uops/s, round %.3f s, interval "
                "period p50 %.2f ms, p%d %.2f ms (%zu samples)\n",
                median(covered_rates), median(untraced_walls),
                median(periods_ms), tail_pct, out.metrics["op_tail_ms"],
                periods_ms.size());
    if (!args.trace)
        return;

    // ---- per-layer metrics (replica spans are per round: all programs) --
    const double handoffs = static_cast<double>(payload_bytes.size());
    out.set("ff.pure_s", tracer.total("ff.pure"));
    out.set("ff.warm_s", tracer.total("ff.warm"));
    out.set("detail.run_s", tracer.total("detail.run"));
    out.set("snapshot.build_ms",
            tracer.total("snapshot.build") * 1e3 / handoffs);
    out.set("snapshot.adopt_ms",
            tracer.total("snapshot.adopt") * 1e3 / handoffs);
    double bytes = 0.0;
    for (const double b : payload_bytes)
        bytes += b;
    out.set("snapshot.payload_mb", bytes / handoffs / (1024.0 * 1024.0));
    out.set("sampled.producer_s", median(producer_s));
    out.set("sampled.worker_s", median(worker_s));
    out.set("sampled.overlap_ratio", median(overlap));
    out.set("trace.overhead_ratio",
            median(traced_walls) / median(untraced_walls) - 1.0);
    tracer.writeChromeTrace(workDir() + "/spans-sampled_smarts.json");

    // Accuracy reference: the first program fully detailed.
    const auto t0 = Clock::now();
    const srl::core::RunResult full =
        srl::core::runOne(config, suite, kTotalUops, progs[0].seed);
    const double sampled_ipc = progs[0].first.record.metric("ipc");
    std::printf("sampled_smarts: sampled IPC %.4f vs fully detailed IPC "
                "%.4f (%+.1f%%) for seed %llu; detailed run %.2f s\n",
                sampled_ipc, full.ipc, 100.0 * (sampled_ipc / full.ipc - 1.0),
                static_cast<unsigned long long>(progs[0].seed),
                secondsSince(t0));
}

} // namespace srlbench
