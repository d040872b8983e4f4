/**
 * @file
 * Simulation driver: runs a (config, workload) pair to completion,
 * surfaces run-level metrics, provides the in-order functional
 * reference executor used for correctness checking, and computes the
 * percent-speedup-over-baseline numbers every figure in the paper
 * reports.
 */

#ifndef SRLSIM_CORE_SIMULATOR_HH
#define SRLSIM_CORE_SIMULATOR_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hh"
#include "core/processor.hh"
#include "isa/uop.hh"
#include "memsys/main_memory.hh"
#include "obs/export.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace srl
{
namespace core
{

/** Result of one simulation run. */
struct RunResult
{
    std::string config_name;
    std::string workload_name;
    std::uint64_t uops = 0;
    std::uint64_t cycles = 0;
    double ipc = 0.0;
    ProcessorStats stats;

    // SRL-specific series (empty for other models).
    double pct_stores_redone = 0.0;
    double pct_miss_dep_stores = 0.0;
    double pct_miss_dep_uops = 0.0;
    double srl_stalls_per_10k = 0.0;
    double pct_time_srl_occupied = 0.0;
    std::map<std::uint64_t, double> srl_occupancy_above; ///< Fig. 7

    /**
     * Observability capture (null unless the run was instrumented via
     * the ObsConfig overload of runOne). Shared so results stay
     * copyable; the gauges are dropped before the processor dies, so
     * the recording is safe to use for the result's whole lifetime.
     */
    std::shared_ptr<obs::Recording> recording;
};

/** Percent speedup of @p ipc over @p base_ipc. */
inline double
percentSpeedup(double ipc, double base_ipc)
{
    return base_ipc > 0 ? 100.0 * (ipc / base_ipc - 1.0) : 0.0;
}

/**
 * The in-order functional reference: executes the uop stream one at a
 * time against a private memory image. Used to validate the committed
 * load values and final memory image of the out-of-order machine.
 */
class ReferenceExecutor
{
  public:
    /** Run the whole stream; records every load's value by seq. */
    void run(isa::UopStream &stream);

    /** Value the reference observed for the load at @p seq. */
    std::uint64_t loadValue(SeqNum seq) const;

    /** True iff a load at @p seq was executed. */
    bool hasLoad(SeqNum seq) const;

    memsys::MainMemory &mem() { return mem_; }
    const memsys::MainMemory &mem() const { return mem_; }

    std::uint64_t uops() const { return uops_; }

  private:
    memsys::MainMemory mem_;
    /** Hash map, not ordered: the validation hot path is point lookups
     * keyed by seq (one per committed load), never ordered scans. */
    std::unordered_map<SeqNum, std::uint64_t> load_values_;
    std::uint64_t uops_ = 0;
};

/**
 * Run one (config, suite) pair for @p num_uops micro-ops and collect
 * metrics (including the Table 3 columns when the config is SRL).
 *
 * A non-zero @p seed_override replaces the suite's built-in workload
 * seed (and re-keys the snoop stream) so a sweep driver can give every
 * run an independent deterministic RNG stream. Zero keeps the suite's
 * canonical seed. runOne has no shared mutable state: concurrent calls
 * from different threads are safe.
 */
RunResult runOne(const ProcessorConfig &config,
                 const workload::SuiteProfile &suite,
                 std::uint64_t num_uops,
                 std::uint64_t seed_override = 0);

/**
 * Instrumented variant: when @p obs.enabled, the run is executed with
 * a probe bus feeding an event ring of @p obs.ring_capacity and a
 * counter sampler at @p obs.sample_every cycles; the capture is
 * returned in RunResult::recording. With obs.enabled false this is
 * exactly the plain runOne (no probes attached, recording null).
 */
RunResult runOne(const ProcessorConfig &config,
                 const workload::SuiteProfile &suite,
                 std::uint64_t num_uops, std::uint64_t seed_override,
                 const obs::ObsConfig &obs);

/** Occupancy thresholds reported in Figure 7. */
const std::vector<std::uint64_t> &figure7Thresholds();

/** The Table 3 ratios of an SRL run, each 0 when its base is 0. */
struct SrlRatios
{
    double pct_stores_redone = 0.0;
    double pct_miss_dep_stores = 0.0;
    double pct_miss_dep_uops = 0.0;
    double srl_stalls_per_10k = 0.0;
};

/** Derive the Table 3 ratios from a run's (or an aggregate's) stats. */
SrlRatios srlRatios(const ProcessorStats &s);

} // namespace core
} // namespace srl

#endif // SRLSIM_CORE_SIMULATOR_HH
