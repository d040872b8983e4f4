#include "core/simulator.hh"

#include "common/logging.hh"
#include "common/random.hh"

#include "workload/generator.hh"
#include "workload/prewarm.hh"

namespace srl
{
namespace core
{

void
ReferenceExecutor::run(isa::UopStream &stream)
{
    isa::Uop u;
    while (stream.next(u)) {
        if (u.isLoad()) {
            load_values_[u.seq] = mem_.read(u.effAddr, u.memSize);
        } else if (u.isStore()) {
            mem_.write(u.effAddr, u.memSize, u.storeData);
        }
        ++uops_;
    }
}

std::uint64_t
ReferenceExecutor::loadValue(SeqNum seq) const
{
    const auto it = load_values_.find(seq);
    panic_if(it == load_values_.end(),
             "reference has no load at seq %llu",
             static_cast<unsigned long long>(seq));
    return it->second;
}

bool
ReferenceExecutor::hasLoad(SeqNum seq) const
{
    return load_values_.count(seq) != 0;
}

const std::vector<std::uint64_t> &
figure7Thresholds()
{
    static const std::vector<std::uint64_t> kThresholds{
        0, 64, 128, 192, 256, 384, 512, 768, 1024};
    return kThresholds;
}

SrlRatios
srlRatios(const ProcessorStats &s)
{
    const auto ratio = [](std::uint64_t part, std::uint64_t whole,
                          double scale) {
        return whole ? scale * static_cast<double>(part) /
                           static_cast<double>(whole)
                     : 0.0;
    };
    SrlRatios q;
    q.pct_stores_redone =
        ratio(s.redone_stores, s.committed_stores, 100.0);
    q.pct_miss_dep_stores =
        ratio(s.poisoned_stores, s.committed_stores, 100.0);
    q.pct_miss_dep_uops = ratio(s.slice_uops, s.committed_uops, 100.0);
    q.srl_stalls_per_10k =
        ratio(s.srl_stalled_loads, s.committed_uops, 1e4);
    return q;
}

RunResult
runOne(const ProcessorConfig &config,
       const workload::SuiteProfile &suite, std::uint64_t num_uops,
       std::uint64_t seed_override)
{
    return runOne(config, suite, num_uops, seed_override,
                  obs::ObsConfig{});
}

RunResult
runOne(const ProcessorConfig &config,
       const workload::SuiteProfile &suite, std::uint64_t num_uops,
       std::uint64_t seed_override, const obs::ObsConfig &obs)
{
    workload::Generator gen(suite, num_uops, seed_override);
    ProcessorConfig cfg = config;
    if (seed_override)
        cfg.snoop_seed = splitmix64(seed_override ^ cfg.snoop_seed);
    Processor cpu(cfg, gen);

    // Warmed-cache methodology: pre-fill the suite's cache-resident
    // regions so compulsory misses do not swamp the phase behavior the
    // experiments study (the paper's tracing methodology runs long
    // warmups for the same reason).
    workload::prewarmCaches(suite, cpu.hierarchyMut());

    // Observability: attach the capture structures before the first
    // cycle so the event stream and timeline cover the whole run.
    std::shared_ptr<obs::Recording> rec;
    obs::ProbeBus bus;
    if (obs.enabled) {
        rec = std::make_shared<obs::Recording>(obs.ring_capacity,
                                               obs.sample_every);
        rec->meta["config"] = config.name;
        rec->meta["suite"] = suite.name;
        rec->meta["uops"] = std::to_string(num_uops);
        rec->meta["seed"] = std::to_string(seed_override);
        bus.attach(&rec->ring);
        cpu.attachProbeBus(&bus);
        // A periodic sampler observes the machine every cycle, which
        // forces the model to tick every cycle (no quiescence skip).
        // Only attach one when sampling is actually requested, so
        // probe-only traced runs keep the fast path.
        if (obs.sample_every > 0)
            cpu.attachSampler(&rec->sampler);
    }

    const ProcessorStats &s = cpu.run();

    if (rec) {
        // The gauges capture the processor; it dies with this frame.
        rec->sampler.dropGauges();
        rec->meta["cycles"] = std::to_string(s.cycles);
    }

    RunResult r;
    r.config_name = config.name;
    r.workload_name = suite.name;
    r.uops = s.committed_uops;
    r.cycles = s.cycles;
    r.ipc = s.ipc();
    r.stats = s;

    if (config.model == StqModel::kSrl) {
        const SrlRatios q = srlRatios(s);
        r.pct_stores_redone = q.pct_stores_redone;
        r.pct_miss_dep_stores = q.pct_miss_dep_stores;
        r.pct_miss_dep_uops = q.pct_miss_dep_uops;
        r.srl_stalls_per_10k = q.srl_stalls_per_10k;
        r.pct_time_srl_occupied = cpu.srlOccupancy().percentOccupied();
        for (const auto t : figure7Thresholds())
            r.srl_occupancy_above[t] = cpu.srlOccupancy().percentAbove(t);
    }
    r.recording = std::move(rec);
    return r;
}

} // namespace core
} // namespace srl
