#include "checks.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "service/protocol.hh"

namespace srlbench
{

namespace
{

std::string
format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
format(const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    return buf;
}

} // namespace

void
InOrderOracle::run(srl::isa::UopStream &stream)
{
    srl::isa::Uop u;
    while (stream.next(u)) {
        if (u.isLoad()) {
            std::uint64_t v = 0;
            for (unsigned i = 0; i < u.memSize; ++i) {
                const auto it = bytes_.find(u.effAddr + i);
                if (it != bytes_.end())
                    v |= std::uint64_t{it->second} << (8 * i);
            }
            if (u.seq >= load_values_.size()) {
                load_values_.resize(u.seq + 1, 0);
                is_load_.resize(u.seq + 1, false);
            }
            load_values_[u.seq] = v;
            is_load_[u.seq] = true;
        } else if (u.isStore()) {
            for (unsigned i = 0; i < u.memSize; ++i)
                bytes_[u.effAddr + i] =
                    static_cast<std::uint8_t>(u.storeData >> (8 * i));
        }
    }
}

bool
InOrderOracle::hasLoad(srl::SeqNum seq) const
{
    return seq < is_load_.size() && is_load_[seq];
}

std::uint64_t
InOrderOracle::loadValue(srl::SeqNum seq) const
{
    return hasLoad(seq) ? load_values_[seq] : 0;
}

StreamCounts
countStream(srl::isa::UopStream &stream)
{
    StreamCounts c;
    srl::isa::Uop u;
    while (stream.next(u)) {
        ++c.uops;
        c.loads += u.isLoad();
        c.stores += u.isStore();
    }
    return c;
}

std::string
checkCommittedLoad(const InOrderOracle &oracle, srl::SeqNum seq,
                   srl::Addr addr, unsigned size, std::uint64_t value)
{
    if (!oracle.hasLoad(seq))
        return format("committed load seq %" PRIu64
                      " is not a load in program order",
                      static_cast<std::uint64_t>(seq));
    const std::uint64_t want = oracle.loadValue(seq);
    if (value == want)
        return {};
    return format("load seq %" PRIu64 " (%u B at 0x%" PRIx64
                  ") committed 0x%" PRIx64 ", in-order value 0x%" PRIx64,
                  static_cast<std::uint64_t>(seq), size,
                  static_cast<std::uint64_t>(addr), value, want);
}

std::string
checkFinalMemory(const InOrderOracle &oracle,
                 const srl::memsys::MainMemory &mem)
{
    for (const auto &[addr, byte] : oracle.storedBytes()) {
        const std::uint64_t got = mem.read(addr, 1);
        if (got != byte)
            return format("final memory byte 0x%" PRIx64
                          " is 0x%02" PRIx64 ", in-order 0x%02x",
                          static_cast<std::uint64_t>(addr), got, byte);
    }
    return {};
}

std::string
checkRecordCounts(const srl::stats::RunRecord &rec,
                  const StreamCounts &want)
{
    if (!rec.error.empty())
        return "run error: " + rec.error;
    const struct
    {
        const char *key;
        std::uint64_t want;
    } fields[] = {{"uops", want.uops},
                  {"committed_loads", want.loads},
                  {"committed_stores", want.stores}};
    for (const auto &f : fields) {
        const double got = rec.hasMetric(f.key) ? rec.metric(f.key) : -1;
        if (got != static_cast<double>(f.want))
            return format("%s is %.0f, generator says %" PRIu64, f.key,
                          got, f.want);
    }
    return {};
}

namespace
{

/** Detail-window uops of interval @p k under @p plan (0 past the end). */
std::uint64_t
plannedDetailUops(std::uint64_t k, const srl::runner::SampledPlan &plan,
                  std::uint64_t total_uops)
{
    const std::uint64_t entry =
        k * plan.intervalUops() + plan.ff_uops + plan.warm_uops;
    if (entry >= total_uops)
        return 0;
    return std::min(plan.detail_uops, total_uops - entry);
}

} // namespace

std::string
checkIntervalUops(const srl::stats::RunRecord &rec, std::uint64_t k,
                  const srl::runner::SampledPlan &plan,
                  std::uint64_t total_uops)
{
    const std::uint64_t want = plannedDetailUops(k, plan, total_uops);
    const double got = rec.hasMetric("uops") ? rec.metric("uops") : -1;
    if (got != static_cast<double>(want))
        return format("interval %" PRIu64 " simulated %.0f uops in detail,"
                      " plan says %" PRIu64,
                      k, got, want);
    return {};
}

std::string
checkServedRecord(const srl::stats::RunRecord &served,
                  const srl::stats::RunRecord &direct)
{
    const std::string a = srl::service::encodeRecord(served);
    const std::string b = srl::service::encodeRecord(direct);
    if (a == b)
        return {};
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    return format("served record %s differs from direct runSweep at "
                  "byte %zu",
                  served.name.c_str(), i);
}

} // namespace srlbench
