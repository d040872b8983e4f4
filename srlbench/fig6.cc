/**
 * @file
 * fig6_sweep: the paper's Figure 6 campaign — 4 store-queue models
 * (baseline, SRL, hierarchical, ideal) x the 7 Table-2 suites at their
 * canonical seeds, 200k uops each, fully detailed.
 *
 * One operation is one design point, run through runner::runSweep.
 * A round is all 28 points, taken in an order shuffled from --seed and
 * the round number by a
 * closed loop of loadThreads() workers (a worker starts its next point
 * only when its previous one returned), which is how runSweep's own
 * pool would schedule them. Rounds repeat until --seconds have passed.
 *
 * Traced run: odd rounds replace each runSweep call by the same
 * simulation composed from public calls (Generator, Processor,
 * prewarmCaches, Processor::run), each inside a span; even rounds stay
 * untraced, and the ratio of their median walls is the tracing
 * overhead.
 *
 * Checks (untimed, after the rounds):
 *  - every round's record of a point is byte-identical to round 0's;
 *  - committed uops, loads and stores equal counts taken by iterating
 *    the generator;
 *  - an oracle pass re-runs each point through the public Processor
 *    API with the load-commit hook: every committed load value must
 *    equal the in-order byte-map executor's, every stored byte of final
 *    memory must match, and the cycle count must equal the timed
 *    record's.
 * A point failing any check fails that operation in every round.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>

#include "checks.hh"
#include "common.hh"
#include "core/config.hh"
#include "core/processor.hh"
#include "core/simulator.hh"
#include "obs/probe.hh"
#include "runner/sweep.hh"
#include "service/protocol.hh"
#include "workload/generator.hh"
#include "workload/prewarm.hh"
#include "workload/profile.hh"

namespace srlbench
{

namespace
{

constexpr std::uint64_t kUops = 200000;

struct Model
{
    const char *label;
    srl::core::ProcessorConfig config;
};

std::vector<Model>
fig6Models()
{
    return {{"baseline", srl::core::baselineConfig()},
            {"srl", srl::core::srlConfig()},
            {"hierarchical", srl::core::hierarchicalConfig()},
            {"ideal", srl::core::idealConfig()}};
}

struct Point
{
    std::size_t model = 0; ///< index into fig6Models()
    std::size_t suite = 0; ///< index into suiteProfiles()
    srl::runner::SweepPoint sweep;
};

/** Counts per structure, from a probe bus sink. */
class StructureCounter : public srl::obs::ProbeSink
{
  public:
    void
    onEvent(const srl::obs::Event &e) override
    {
        ++counts[static_cast<std::size_t>(e.structure)];
    }
    std::uint64_t counts[static_cast<std::size_t>(
        srl::obs::Structure::kNumStructures)] = {};
};

/** Result of re-running one point under the oracle. */
struct OracleVerdict
{
    std::string failure; ///< empty = every check passed
    std::uint64_t bad_loads = 0;
};

OracleVerdict
oraclePass(const Point &p, const InOrderOracle &oracle,
           std::uint64_t want_cycles)
{
    OracleVerdict v;
    srl::workload::Generator gen(p.sweep.suite, kUops);
    srl::core::Processor cpu(p.sweep.config, gen);
    srl::workload::prewarmCaches(p.sweep.suite, cpu.hierarchyMut());
    cpu.setLoadCommitHook([&](srl::SeqNum seq, srl::Addr addr,
                              unsigned size, std::uint64_t value) {
        std::string why =
            checkCommittedLoad(oracle, seq, addr, size, value);
        if (why.empty())
            return;
        ++v.bad_loads;
        if (v.failure.empty())
            v.failure = std::move(why);
    });
    const srl::core::ProcessorStats &s = cpu.run();
    if (v.failure.empty() && s.cycles != want_cycles)
        v.failure = "oracle pass took " + std::to_string(s.cycles) +
                    " cycles, timed record " + std::to_string(want_cycles);
    if (v.failure.empty())
        v.failure = checkFinalMemory(oracle, cpu.mem());
    return v;
}

/**
 * The traced form of one point: runOne's steps as separate public
 * calls, each in a span. @return the full statistics.
 */
srl::core::ProcessorStats
tracedPoint(const Point &p, const char *run_span, Tracer &tracer,
            std::uint64_t op)
{
    std::unique_ptr<srl::workload::Generator> gen;
    {
        ScopedSpan s(tracer, "workload.gen", op);
        gen = std::make_unique<srl::workload::Generator>(p.sweep.suite,
                                                         kUops);
    }
    std::unique_ptr<srl::core::Processor> cpu;
    {
        ScopedSpan s(tracer, "core.construct", op);
        cpu = std::make_unique<srl::core::Processor>(p.sweep.config, *gen);
    }
    {
        ScopedSpan s(tracer, "workload.prewarm", op);
        srl::workload::prewarmCaches(p.sweep.suite, cpu->hierarchyMut());
    }
    const auto t0 = Clock::now();
    const srl::core::ProcessorStats s = cpu->run();
    const auto t1 = Clock::now();
    tracer.record("core.run", t0, t1, op);
    tracer.record(run_span, t0, t1, op);
    return s;
}

} // namespace

void
runFig6Sweep(const Args &args, Outcome &out)
{
    // ---- set-up: the points, expected counts from the generator, and
    // every point's machine built and pre-warmed once, cold ----
    const std::vector<Model> models = fig6Models();
    const std::vector<srl::workload::SuiteProfile> suites =
        srl::workload::suiteProfiles();
    std::vector<Point> points;
    for (std::size_t m = 0; m < models.size(); ++m)
        for (std::size_t s = 0; s < suites.size(); ++s)
            points.push_back(
                {m, s,
                 {std::string(models[m].label) + "/" + suites[s].name,
                  models[m].config, suites[s], kUops}});
    std::vector<std::size_t> indices(points.size());
    std::iota(indices.begin(), indices.end(), 0);

    std::vector<StreamCounts> counts;
    for (const auto &suite : suites) {
        srl::workload::Generator gen(suite, kUops);
        counts.push_back(countStream(gen));
    }
    for (const Point &p : points) {
        srl::workload::Generator gen(p.sweep.suite, kUops);
        srl::core::Processor cpu(p.sweep.config, gen);
        srl::workload::prewarmCaches(p.sweep.suite, cpu.hierarchyMut());
    }
    out.set("setup_s", secondsSince(args.process_start));

    // ---- timed rounds ----
    Tracer tracer(args.trace);
    const unsigned threads = loadThreads();
    const std::size_t n = points.size();
    std::vector<std::string> reference(n); // round 0's records
    std::vector<std::uint64_t> ref_cycles(n, 0);
    std::vector<std::uint8_t> nondeterministic(n, 0);
    std::vector<double> latencies_ms, untraced_walls, traced_walls;
    std::vector<srl::core::ProcessorStats> traced_stats(n);
    std::vector<double> round_rates; // detailed uops/s of each round
    std::uint64_t rounds = 0;
    double peak_rss = 0.0;
    const auto timed_start = Clock::now();
    // A traced run needs an untraced and a traced round at least.
    const std::uint64_t min_rounds = args.trace ? 2 : 1;
    while (rounds < min_rounds || secondsSince(timed_start) < args.seconds) {
        const bool traced_round = args.trace && rounds % 2 == 1;
        std::vector<double> lat(n, 0.0);
        std::vector<std::uint64_t> uops(n, 0);
        const std::vector<std::size_t> order =
            roundOrder(indices, args.seed, rounds);
        const auto r0 = Clock::now();
        closedLoop(n, threads, [&](std::size_t i) {
            const std::size_t idx = order[i];
            const Point &p = points[idx];
            const auto t0 = Clock::now();
            if (traced_round) {
                const std::uint64_t op = rounds * n + i;
                const srl::core::ProcessorStats s = tracedPoint(
                    p,
                    (std::string("core.run.") + models[p.model].label)
                        .c_str(),
                    tracer, op);
                tracer.record("fig6.point", t0, Clock::now(), op);
                uops[idx] = s.committed_uops;
                if (s.cycles != ref_cycles[idx])
                    nondeterministic[idx] = 1;
                traced_stats[idx] = s;
            } else {
                const srl::stats::StatsReport rep =
                    srl::runner::runSweep({p.sweep}, {1, 0, true});
                const srl::stats::RunRecord &rec = rep.runs.at(0);
                uops[idx] = static_cast<std::uint64_t>(
                    rec.hasMetric("uops") ? rec.metric("uops") : 0);
                const std::string bytes = srl::service::encodeRecord(rec);
                if (rounds == 0) {
                    reference[idx] = bytes;
                    ref_cycles[idx] = static_cast<std::uint64_t>(
                        rec.hasMetric("cycles") ? rec.metric("cycles")
                                                : 0);
                } else if (bytes != reference[idx]) {
                    nondeterministic[idx] = 1;
                }
            }
            lat[idx] = secondsSince(t0) * 1e3;
        });
        const double wall = secondsSince(r0);
        (traced_round ? traced_walls : untraced_walls).push_back(wall);
        std::uint64_t round_uops = 0;
        for (const std::uint64_t u : uops)
            round_uops += u;
        if (!traced_round) {
            latencies_ms.insert(latencies_ms.end(), lat.begin(), lat.end());
            round_rates.push_back(static_cast<double>(round_uops) / wall);
        }
        // Peak RSS of the set-up and one round: later rounds repeat it.
        if (rounds == 0)
            peak_rss = peakRssMb();
        ++rounds;
    }
    const double timed_s = secondsSince(timed_start);

    // ---- checks (untimed) ----
    std::vector<InOrderOracle> oracles(suites.size());
    closedLoop(suites.size(), threads, [&](std::size_t s) {
        srl::workload::Generator gen(suites[s], kUops);
        oracles[s].run(gen);
    });
    std::vector<OracleVerdict> verdicts(n);
    closedLoop(n, threads, [&](std::size_t i) {
        verdicts[i] =
            oraclePass(points[i], oracles[points[i].suite], ref_cycles[i]);
    });
    std::uint64_t failed_points = 0;
    std::vector<double> ipc(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const srl::stats::StatsReport rep =
            srl::stats::StatsReport::fromJson(reference[i]);
        ipc[i] = rep.runs.at(0).hasMetric("ipc") ? rep.runs[0].metric("ipc")
                                                 : 0.0;
        std::string why = checkRecordCounts(rep.runs.at(0),
                                            counts[points[i].suite]);
        if (why.empty() && nondeterministic[i])
            why = "records differ between rounds";
        if (why.empty())
            why = verdicts[i].failure;
        if (why.empty())
            continue;
        ++failed_points;
        std::fprintf(stderr, "srlbench: FAIL %s: %s (%llu bad loads)\n",
                     points[i].sweep.name.c_str(), why.c_str(),
                     static_cast<unsigned long long>(verdicts[i].bad_loads));
    }
    out.attempted = rounds * n;
    out.failed = rounds * failed_points;

    std::printf("fig6_sweep: %llu rounds x %zu points, %.2f s timed, "
                "%llu of %zu points fail their checks\n",
                static_cast<unsigned long long>(rounds), n, timed_s,
                static_cast<unsigned long long>(failed_points), n);

    // Figure 6 itself: % speedup over the 48-entry-STQ baseline.
    std::printf("fig6_sweep: %% speedup over baseline:");
    for (const auto &suite : suites)
        std::printf(" %7s", suite.name.c_str());
    for (std::size_t m = 1; m < models.size(); ++m) {
        std::printf("\n  %-40s", models[m].label);
        for (std::size_t s = 0; s < suites.size(); ++s)
            std::printf(" %7.1f",
                        srl::core::percentSpeedup(ipc[m * suites.size() + s],
                                                  ipc[s]));
    }
    std::printf("\n");

    // ---- end-to-end metrics ----
    int tail_pct = 50;
    const double rate = median(round_rates);
    out.set("detail_uops_per_s", rate);
    out.set("sampled_uops_per_s", rate);
    out.set("campaign_s", median(untraced_walls));
    out.set("op_p50_ms", median(latencies_ms));
    out.set("op_tail_ms", tailValue(latencies_ms, tail_pct));
    out.set("peak_rss_mb", peak_rss);
    std::printf("fig6_sweep: %.4g uops/s, round %.3f s, point p50 %.1f ms, "
                "p%d %.1f ms (%zu samples)\n",
                rate, median(untraced_walls), median(latencies_ms),
                tail_pct, out.metrics["op_tail_ms"],
                latencies_ms.size());
    if (!args.trace)
        return;

    // ---- per-layer metrics (traced rounds) ----
    const double tr = static_cast<double>(traced_walls.size());
    srl::core::ProcessorStats sum;
    for (const auto &s : traced_stats) {
        sum.cycles += s.cycles;
        sum.skipped_cycles += s.skipped_cycles;
        sum.redone_stores += s.redone_stores;
        sum.srl_stalled_loads += s.srl_stalled_loads;
        sum.indexed_forwards += s.indexed_forwards;
        sum.mem_violations += s.mem_violations;
        sum.mem_misses += s.mem_misses;
        sum.branch_mispredicts += s.branch_mispredicts;
    }
    const double run_s = tracer.total("core.run") / tr;
    out.set("core.run_s", run_s);
    for (const Model &m : models)
        out.set(std::string("core.run_s.") + m.label,
                tracer.total(std::string("core.run.") + m.label) / tr);
    const double ticked =
        static_cast<double>(sum.cycles - sum.skipped_cycles);
    out.set("core.ns_per_ticked_cycle", run_s * 1e9 / ticked);
    out.set("core.skipped_cycle_ratio",
            static_cast<double>(sum.skipped_cycles) /
                static_cast<double>(sum.cycles));
    out.set("core.sim_cycles", static_cast<double>(sum.cycles));
    out.set("core.construct_s", tracer.total("core.construct") / tr);
    out.set("lsq.redone_stores", static_cast<double>(sum.redone_stores));
    out.set("lsq.srl_stalled_loads",
            static_cast<double>(sum.srl_stalled_loads));
    out.set("lsq.indexed_forwards",
            static_cast<double>(sum.indexed_forwards));
    out.set("lsq.mem_violations", static_cast<double>(sum.mem_violations));
    out.set("memsys.mem_misses", static_cast<double>(sum.mem_misses));
    out.set("predictor.branch_mispredicts",
            static_cast<double>(sum.branch_mispredicts));
    out.set("workload.gen_s", tracer.total("workload.gen") / tr);
    out.set("workload.prewarm_s", tracer.total("workload.prewarm") / tr);
    out.set("trace.overhead_ratio",
            median(traced_walls) / median(untraced_walls) - 1.0);

    // Probe events per structure: one point per model (the suite with
    // the most memory-level parallelism), with a probe bus attached
    // against the same point without one.
    double plain_s = 0.0, probed_s = 0.0;
    StructureCounter counter;
    const std::size_t probe_suite = 0; // SFP2K
    for (std::size_t m = 0; m < models.size(); ++m) {
        const Point &p = points[m * suites.size() + probe_suite];
        for (const bool probed : {false, true}) {
            srl::workload::Generator gen(p.sweep.suite, kUops);
            srl::core::Processor cpu(p.sweep.config, gen);
            srl::workload::prewarmCaches(p.sweep.suite, cpu.hierarchyMut());
            srl::obs::ProbeBus bus;
            if (probed) {
                bus.attach(&counter);
                cpu.attachProbeBus(&bus);
            }
            const auto t0 = Clock::now();
            cpu.run();
            (probed ? probed_s : plain_s) += secondsSince(t0);
        }
    }
    for (std::size_t s = 0;
         s < static_cast<std::size_t>(srl::obs::Structure::kNumStructures);
         ++s)
        out.set(std::string("obs.events.") +
                    srl::obs::structureName(
                        static_cast<srl::obs::Structure>(s)),
                static_cast<double>(counter.counts[s]));
    out.set("obs.overhead_ratio", probed_s / plain_s - 1.0);
    tracer.writeChromeTrace(workDir() + "/spans-fig6_sweep.json");
}

} // namespace srlbench
