/**
 * @file
 * Design-space exploration: sweeps the SRL organization's free
 * parameters (SRL depth, LCF size and hash, forwarding-cache geometry,
 * load-buffer associativity and overflow policy) on one suite and
 * prints IPC plus the supporting occupancy/stall statistics — the kind
 * of study a microarchitect would run before committing to the paper's
 * chosen configuration.
 *
 * Every point runs in one parallel batch through the sweep runner, so
 * the whole exploration takes roughly one simulation's wall-clock per
 * hardware thread.
 *
 * Usage: design_space [suite] [uops] [jobs]
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/simulator.hh"
#include "runner/sweep.hh"

using namespace srl;

namespace
{

void
report(const stats::RunRecord &r, double base_ipc)
{
    if (r.failed()) {
        std::printf("%-40s  FAILED: %s\n", r.name.c_str(),
                    r.error.c_str());
        return;
    }
    const double ipc = r.metric("ipc");
    std::printf("%-40s  ipc %6.3f  speedup %6.2f%%  occupied %5.1f%%  "
                "stalls/10k %5.1f\n",
                r.name.c_str(), ipc,
                core::percentSpeedup(ipc, base_ipc),
                r.metric("pct_time_srl_occupied"),
                r.metric("srl_stalls_per_10k"));
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string suite_name = argc > 1 ? argv[1] : "SFP2K";
    const std::uint64_t uops =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 150000;
    const unsigned jobs =
        argc > 3 ? static_cast<unsigned>(std::strtoul(argv[3], nullptr, 10))
                 : 0;
    const auto suite = workload::suiteProfile(suite_name);

    std::printf("SRL design space on %s (%llu uops)\n",
                suite.name.c_str(),
                static_cast<unsigned long long>(uops));

    // Sections of the study; each names a half-open range of points.
    std::vector<runner::SweepPoint> points;
    std::vector<std::pair<const char *, std::size_t>> sections;
    const auto add = [&](const std::string &name,
                         const core::ProcessorConfig &cfg) {
        points.push_back({name, cfg, suite, uops});
    };

    add("baseline (48-entry STQ)", core::baselineConfig());

    sections.emplace_back("SRL depth", points.size());
    for (const unsigned depth : {128u, 256u, 512u, 1024u}) {
        auto cfg = core::srlConfig();
        cfg.srl.srl.capacity = depth;
        add("srl depth " + std::to_string(depth), cfg);
    }

    sections.emplace_back("LCF size x hash", points.size());
    for (const auto hash : {lsq::HashScheme::kLowerAddressBits,
                            lsq::HashScheme::kThreePieceXor}) {
        for (const unsigned entries : {256u, 1024u, 2048u}) {
            auto cfg = core::srlConfig();
            cfg.srl.lcf.entries = entries;
            cfg.srl.lcf.hash = hash;
            add("lcf " + std::to_string(entries) +
                    (hash == lsq::HashScheme::kLowerAddressBits
                         ? " LAB"
                         : " 3-PAX"),
                cfg);
        }
    }

    sections.emplace_back("forwarding cache geometry", points.size());
    for (const auto &[entries, assoc] :
         {std::pair<unsigned, unsigned>{64, 4},
          std::pair<unsigned, unsigned>{256, 4},
          std::pair<unsigned, unsigned>{256, 8},
          std::pair<unsigned, unsigned>{1024, 8}}) {
        auto cfg = core::srlConfig();
        cfg.srl.fwd_cache = {entries, assoc};
        add("fc " + std::to_string(entries) + "x" +
                std::to_string(assoc),
            cfg);
    }

    sections.emplace_back("load buffer organization", points.size());
    for (const auto &[assoc, policy, victims, name] :
         {std::tuple<unsigned, lsq::OverflowPolicy, unsigned,
                     const char *>{
              4, lsq::OverflowPolicy::kVictimBuffer, 32, "4w+victim"},
          {8, lsq::OverflowPolicy::kVictimBuffer, 32, "8w+victim"},
          {8, lsq::OverflowPolicy::kViolate, 0, "8w violate"}}) {
        auto cfg = core::srlConfig();
        cfg.load_buffer.assoc = assoc;
        cfg.load_buffer.overflow = policy;
        cfg.load_buffer.victim_entries = victims;
        add(name, cfg);
    }

    runner::SweepOptions opts;
    opts.jobs = jobs;
    const auto rep = runner::runSweep(points, opts);

    const stats::RunRecord &base = rep.runs[0];
    if (base.failed()) {
        std::fprintf(stderr, "baseline failed: %s\n",
                     base.error.c_str());
        return 1;
    }
    const double base_ipc = base.metric("ipc");
    std::printf("baseline (48-entry STQ) ipc %.3f\n", base_ipc);

    for (std::size_t si = 0; si < sections.size(); ++si) {
        const std::size_t end = si + 1 < sections.size()
                                    ? sections[si + 1].second
                                    : rep.runs.size();
        std::printf("\n== %s ==\n", sections[si].first);
        for (std::size_t i = sections[si].second; i < end; ++i)
            report(rep.runs[i], base_ipc);
    }
    return 0;
}
