/**
 * @file
 * The benchmark's correctness checks, kept apart from the timing code
 * so the self-test (selftest.cc) can feed them corrupted inputs.
 *
 * The oracle is the in-order "instantaneous instruction execution"
 * model: every uop completes, in program order, before the next one
 * starts. It keeps memory as a plain byte map and is written here on
 * purpose, independent of srlsim's own functional paths
 * (core::ReferenceExecutor, FastForwardEngine, MainMemory).
 *
 * Every check returns an empty string when it passes and a one-line
 * description of the first discrepancy otherwise.
 */

#ifndef SRLBENCH_CHECKS_HH
#define SRLBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "isa/uop.hh"
#include "memsys/main_memory.hh"
#include "runner/sampled.hh"

namespace srlbench
{

/** Uop, load and store counts of a stream or a span of one. */
struct StreamCounts
{
    std::uint64_t uops = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
};

/** In-order executor over a byte map (untouched bytes read as 0). */
class InOrderOracle
{
  public:
    /** Execute the whole stream; remember every load's value. */
    void run(srl::isa::UopStream &stream);

    /** True iff the load at @p seq ran and read @p value. */
    bool hasLoad(srl::SeqNum seq) const;
    std::uint64_t loadValue(srl::SeqNum seq) const;

    /** Final value of every byte any store wrote. */
    const std::unordered_map<srl::Addr, std::uint8_t> &
    storedBytes() const
    {
        return bytes_;
    }

  private:
    std::unordered_map<srl::Addr, std::uint8_t> bytes_;
    /** Load values indexed by seq; is_load_ marks the loads. */
    std::vector<std::uint64_t> load_values_;
    std::vector<bool> is_load_;
};

/** Count uops, loads and stores by iterating @p stream. */
StreamCounts countStream(srl::isa::UopStream &stream);

/** A committed load's value against the oracle's. */
std::string checkCommittedLoad(const InOrderOracle &oracle,
                               srl::SeqNum seq, srl::Addr addr,
                               unsigned size, std::uint64_t value);

/** Every byte the oracle's stores wrote, against @p mem. */
std::string checkFinalMemory(const InOrderOracle &oracle,
                             const srl::memsys::MainMemory &mem);

/** A run record's committed uops/loads/stores against @p want. */
std::string checkRecordCounts(const srl::stats::RunRecord &rec,
                              const StreamCounts &want);

/**
 * One sampled interval record: its detailed uops against the plan's
 * arithmetic for interval @p k of a @p total_uops run.
 */
std::string checkIntervalUops(const srl::stats::RunRecord &rec,
                              std::uint64_t k,
                              const srl::runner::SampledPlan &plan,
                              std::uint64_t total_uops);

/** A served record, byte for byte, against the direct one. */
std::string checkServedRecord(const srl::stats::RunRecord &served,
                              const srl::stats::RunRecord &direct);

} // namespace srlbench

#endif // SRLBENCH_CHECKS_HH
