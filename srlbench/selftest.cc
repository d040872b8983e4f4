/**
 * @file
 * Self-test of the benchmark's checks: each check must pass on real
 * srlsim output and report a failure when that output is corrupted in
 * one place — one committed load value, one served record, one
 * interval's uop count, one committed-store count. Run it with
 *
 *   python3 srlbench/run.py --selftest
 *
 * Exit status 0 when every check behaved, 1 otherwise.
 */

#include <cstdio>
#include <string>

#include "checks.hh"
#include "core/config.hh"
#include "core/processor.hh"
#include "runner/sampled.hh"
#include "runner/sweep.hh"
#include "workload/generator.hh"
#include "workload/prewarm.hh"
#include "workload/profile.hh"

using namespace srlbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what, const std::string &detail)
{
    std::printf("%s  %s%s%s\n", ok ? "ok  " : "FAIL", what,
                detail.empty() ? "" : ": ", detail.c_str());
    failures += !ok;
}

/** Committed-load failures of a 20k-uop SFP2K run on the SRL model,
 * with the @p corrupt-th committed load's value flipped (0 = none). */
std::uint64_t
badLoads(std::uint64_t corrupt, std::string &first)
{
    const auto suite = srl::workload::suiteProfile("SFP2K");
    srl::workload::Generator ref(suite, 20000);
    InOrderOracle oracle;
    oracle.run(ref);
    srl::workload::Generator gen(suite, 20000);
    srl::core::Processor cpu(srl::core::srlConfig(), gen);
    srl::workload::prewarmCaches(suite, cpu.hierarchyMut());
    std::uint64_t n = 0, bad = 0;
    cpu.setLoadCommitHook([&](srl::SeqNum seq, srl::Addr addr, unsigned size,
                              std::uint64_t value) {
        if (++n == corrupt)
            value ^= 1;
        const std::string why =
            checkCommittedLoad(oracle, seq, addr, size, value);
        if (!why.empty() && bad++ == 0)
            first = why;
    });
    cpu.run();
    const std::string mem = checkFinalMemory(oracle, cpu.mem());
    if (!mem.empty() && bad++ == 0)
        first = mem;
    return bad;
}

} // namespace

int
main()
{
    // One committed load value.
    std::string why;
    expect(badLoads(0, why) == 0, "clean run: every committed load matches",
           why);
    why.clear();
    expect(badLoads(100, why) == 1,
           "corrupted 100th committed load is reported", why);

    // One served record.
    const auto suite = srl::workload::suiteProfile("SINT2K");
    const srl::stats::StatsReport rep = srl::runner::runSweep(
        {{"srl/SINT2K", srl::core::srlConfig(), suite, 20000}}, {1, 0, true});
    const srl::stats::RunRecord &direct = rep.runs.at(0);
    expect(checkServedRecord(direct, direct).empty(),
           "identical served record passes", "");
    srl::stats::RunRecord served = direct;
    served.set("cycles", direct.metric("cycles") + 1);
    why = checkServedRecord(served, direct);
    expect(!why.empty(), "served record with one changed cycle count is "
                         "reported",
           why);

    // Record counts against the generator.
    srl::workload::Generator gen(suite, 20000);
    StreamCounts counts = countStream(gen);
    expect(checkRecordCounts(direct, counts).empty(),
           "committed uops/loads/stores match the generator", "");
    ++counts.stores;
    why = checkRecordCounts(direct, counts);
    expect(!why.empty(), "one extra store in the generator count is reported",
           why);

    // One interval count of a sampled run.
    srl::runner::SampledOptions opts;
    opts.plan = {89000, 10000, 1000};
    opts.sample_jobs = 1;
    const std::uint64_t total = 300000;
    const srl::runner::SampledResult r = srl::runner::runSampledPipelined(
        srl::core::srlConfig(), srl::workload::suiteProfile("SFP2K"), total,
        7, opts);
    bool clean = r.interval_records.size() == 3;
    for (std::size_t k = 0; k < r.interval_records.size(); ++k)
        clean = clean &&
                checkIntervalUops(r.interval_records[k], k, opts.plan, total)
                    .empty();
    expect(clean, "every interval simulates the planned detail uops", "");
    srl::stats::RunRecord bad = r.interval_records.at(1);
    bad.set("uops", bad.metric("uops") - 1);
    why = checkIntervalUops(bad, 1, opts.plan, total);
    expect(!why.empty(), "interval 1 one uop short is reported", why);

    std::printf("%s\n", failures ? "selftest FAILED" : "selftest passed");
    return failures ? 1 : 0;
}
