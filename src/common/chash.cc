#include "common/chash.hh"

#include <bit>
#include <cstring>

#include "common/random.hh"
#include "core/config.hh"
#include "workload/profile.hh"

namespace srl
{
namespace chash
{

const char kSchemaVersion[] = "srlsim-chash-v1";

namespace
{

// Field type tags. Values are part of the canonical schema: changing
// them (like changing field order) must change every digest, which is
// why kSchemaVersion is folded into pointKey.
constexpr std::uint8_t kTagU32 = 1;
constexpr std::uint8_t kTagU64 = 2;
constexpr std::uint8_t kTagF64 = 3;
constexpr std::uint8_t kTagBool = 4;
constexpr std::uint8_t kTagStr = 5;
constexpr std::uint8_t kTagBegin = 6;
constexpr std::uint8_t kTagEnd = 7;

void
appendLe(std::string &out, std::uint64_t v, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        out += static_cast<char>((v >> (8 * i)) & 0xff);
}

} // namespace

std::string
Hash128::toHex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string out(32, '0');
    for (unsigned i = 0; i < 16; ++i) {
        const std::uint64_t word = i < 8 ? hi : lo;
        const unsigned shift = 8 * (7 - (i & 7));
        const auto byte =
            static_cast<unsigned>((word >> shift) & 0xff);
        out[2 * i] = digits[byte >> 4];
        out[2 * i + 1] = digits[byte & 0xf];
    }
    return out;
}

Hash128
hashBytes(const void *data, std::size_t len)
{
    // Two independently keyed 64-bit lanes over 8-byte blocks, each
    // block folded in with a SplitMix64 finalization. Non-cryptographic
    // but well-mixed: any single-bit change in the input avalanches
    // through both lanes.
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint64_t h1 = 0x9e3779b97f4a7c15ull ^ len;
    std::uint64_t h2 = 0xc2b2ae3d27d4eb4full ^ (len * 0x9ddfea08eb382d69ull);
    std::size_t n = len;
    while (n >= 8) {
        std::uint64_t k;
        std::memcpy(&k, p, 8);
        h1 = splitmix64(h1 ^ k);
        h2 = splitmix64(h2 + (k * 0xff51afd7ed558ccdull));
        p += 8;
        n -= 8;
    }
    if (n > 0) {
        std::uint64_t k = 0;
        std::memcpy(&k, p, n);
        k |= static_cast<std::uint64_t>(n) << 56; // length-tag the tail
        h1 = splitmix64(h1 ^ k);
        h2 = splitmix64(h2 + (k * 0xff51afd7ed558ccdull));
    }
    // Cross-mix the lanes so they never degenerate to one another.
    Hash128 out;
    out.lo = splitmix64(h1 ^ (h2 >> 1));
    out.hi = splitmix64(h2 ^ (out.lo >> 1));
    return out;
}

void
CanonicalWriter::tagAndName(std::uint8_t tag, const char *name)
{
    bytes_ += static_cast<char>(tag);
    const std::size_t n = std::strlen(name);
    appendLe(bytes_, n, 2);
    bytes_.append(name, n);
}

void
CanonicalWriter::u64(const char *name, std::uint64_t v)
{
    tagAndName(kTagU64, name);
    appendLe(bytes_, v, 8);
}

void
CanonicalWriter::u32(const char *name, std::uint32_t v)
{
    tagAndName(kTagU32, name);
    appendLe(bytes_, v, 4);
}

void
CanonicalWriter::f64(const char *name, double v)
{
    tagAndName(kTagF64, name);
    appendLe(bytes_, std::bit_cast<std::uint64_t>(v), 8);
}

void
CanonicalWriter::boolean(const char *name, bool v)
{
    tagAndName(kTagBool, name);
    bytes_ += static_cast<char>(v ? 1 : 0);
}

void
CanonicalWriter::str(const char *name, const std::string &v)
{
    tagAndName(kTagStr, name);
    appendLe(bytes_, v.size(), 4);
    bytes_ += v;
}

void
CanonicalWriter::begin(const char *section)
{
    tagAndName(kTagBegin, section);
}

void
CanonicalWriter::end(const char *section)
{
    tagAndName(kTagEnd, section);
}

std::string
serializeConfig(const core::ProcessorConfig &c)
{
    CanonicalWriter w;
    w.begin("config");
    w.str("name", c.name);

    w.u32("alloc_width", c.alloc_width);
    w.u32("issue_width", c.issue_width);
    w.u32("branch_mispredict_penalty", c.branch_mispredict_penalty);
    w.u32("sched_int", c.sched_int);
    w.u32("sched_fp", c.sched_fp);
    w.u32("sched_mem", c.sched_mem);
    w.u32("regs_int", c.regs_int);
    w.u32("regs_fp", c.regs_fp);
    w.u32("fu_int_alu", c.fu_int_alu);
    w.u32("fu_int_mul", c.fu_int_mul);
    w.u32("fu_fp", c.fu_fp);
    w.u32("load_ports", c.load_ports);
    w.u32("store_ports", c.store_ports);

    w.begin("checkpoints");
    w.u32("num_checkpoints", c.checkpoints.num_checkpoints);
    w.u32("max_interval", c.checkpoints.max_interval);
    w.u32("branch_interval", c.checkpoints.branch_interval);
    w.end("checkpoints");

    w.begin("sdb");
    w.u32("capacity", c.sdb.capacity);
    w.end("sdb");

    w.enumeration("model", c.model);

    const auto stq = [&w](const char *section,
                          const lsq::StoreQueueParams &p) {
        w.begin(section);
        w.str("name", p.name);
        w.u32("capacity", p.capacity);
        w.u32("forward_latency", p.forward_latency);
        w.end(section);
    };
    stq("stq", c.stq);
    stq("l2_stq", c.l2_stq);
    w.u32("mtb_entries", c.mtb_entries);

    w.begin("srl");
    w.u32("srl_capacity", c.srl.srl.capacity);
    w.boolean("use_lcf", c.srl.use_lcf);
    w.u32("lcf_entries", c.srl.lcf.entries);
    w.u32("lcf_counter_bits", c.srl.lcf.counter_bits);
    w.enumeration("lcf_hash", c.srl.lcf.hash);
    w.boolean("indexed_forwarding", c.srl.indexed_forwarding);
    w.boolean("use_fwd_cache", c.srl.use_fwd_cache);
    w.boolean("drain_only_in_redo", c.srl.drain_only_in_redo);
    w.u32("fwd_cache_entries", c.srl.fwd_cache.entries);
    w.u32("fwd_cache_assoc", c.srl.fwd_cache.assoc);
    w.end("srl");

    w.begin("load_queue");
    w.u32("capacity", c.load_queue.capacity);
    w.end("load_queue");

    w.begin("load_buffer");
    w.u32("entries", c.load_buffer.entries);
    w.u32("assoc", c.load_buffer.assoc);
    w.enumeration("overflow", c.load_buffer.overflow);
    w.u32("victim_entries", c.load_buffer.victim_entries);
    w.end("load_buffer");

    w.begin("store_sets");
    w.u32("ssit_entries", c.store_sets.ssit_entries);
    w.u32("lfst_entries", c.store_sets.lfst_entries);
    w.u64("clear_interval", c.store_sets.clear_interval);
    w.end("store_sets");

    const auto cache = [&w](const char *section,
                            const memsys::CacheParams &p) {
        w.begin(section);
        w.str("name", p.name);
        w.u64("size_bytes", p.size_bytes);
        w.u32("assoc", p.assoc);
        w.u32("line_bytes", p.line_bytes);
        w.u32("hit_latency", p.hit_latency);
        w.end(section);
    };
    w.begin("memory");
    cache("l1", c.memory.l1);
    cache("l2", c.memory.l2);
    w.u32("memory_latency", c.memory.memory_latency);
    w.u32("num_mshrs", c.memory.num_mshrs);
    w.boolean("enable_prefetch", c.memory.enable_prefetch);
    w.begin("prefetch");
    w.u32("num_streams", c.memory.prefetch.num_streams);
    w.u32("line_bytes", c.memory.prefetch.line_bytes);
    w.u32("train_threshold", c.memory.prefetch.train_threshold);
    w.u32("degree", c.memory.prefetch.degree);
    w.u32("match_slack", c.memory.prefetch.match_slack);
    w.end("prefetch");
    w.end("memory");

    w.f64("snoop_rate", c.snoop_rate);
    w.u64("snoop_seed", c.snoop_seed);
    w.u64("watchdog_cycles", c.watchdog_cycles);
    // skip_ahead and issue_scan are deliberately excluded: both are
    // exact-equivalence execution strategies (pinned by
    // test_skip_ahead / test_ready_queue) that cannot change a result,
    // so they must not fragment the content address space.
    w.end("config");
    return w.bytes();
}

std::string
serializeSuite(const workload::SuiteProfile &s)
{
    CanonicalWriter w;
    w.begin("suite");
    w.str("name", s.name);

    w.f64("load_frac", s.load_frac);
    w.f64("store_frac", s.store_frac);
    w.f64("branch_frac", s.branch_frac);
    w.f64("fp_frac", s.fp_frac);
    w.f64("mul_frac", s.mul_frac);

    w.u32("hot_lines", s.hot_lines);
    w.u32("warm_lines", s.warm_lines);
    w.u32("cold_lines", s.cold_lines);
    w.f64("warm_frac", s.warm_frac);
    w.f64("cold_frac", s.cold_frac);
    w.f64("background_cold_frac", s.background_cold_frac);
    w.u32("burst_period_uops", s.burst_period_uops);
    w.u32("burst_len_uops", s.burst_len_uops);
    w.f64("stream_frac", s.stream_frac);
    w.u32("stream_wrap_lines", s.stream_wrap_lines);

    w.f64("chain_frac", s.chain_frac);
    w.f64("leaf_frac", s.leaf_frac);
    w.u32("num_strands", s.num_strands);
    w.f64("strand_restart", s.strand_restart);
    w.f64("store_chain_frac", s.store_chain_frac);
    w.f64("store_leaf_frac", s.store_leaf_frac);
    w.f64("pointer_chase_frac", s.pointer_chase_frac);
    w.f64("fwd_pair_frac", s.fwd_pair_frac);
    w.u32("fwd_distance", s.fwd_distance);

    w.f64("hard_branch_frac", s.hard_branch_frac);
    w.f64("easy_branch_bias", s.easy_branch_bias);

    w.u32("static_uops", s.static_uops);
    w.u64("seed", s.seed);
    w.end("suite");
    return w.bytes();
}

Hash128
pointKey(const core::ProcessorConfig &config,
         const workload::SuiteProfile &suite, std::uint64_t uops,
         std::uint64_t run_seed, bool occupancy_series)
{
    CanonicalWriter w;
    w.str("schema", kSchemaVersion);
    w.begin("point");
    w.u64("uops", uops);
    w.u64("run_seed", run_seed);
    w.boolean("occupancy_series", occupancy_series);
    w.end("point");
    std::string bytes = w.bytes();
    bytes += serializeConfig(config);
    bytes += serializeSuite(suite);
    return hashString(bytes);
}

Hash128
pointKey(const core::ProcessorConfig &config,
         const workload::SuiteProfile &suite, std::uint64_t uops,
         std::uint64_t run_seed, bool occupancy_series,
         std::uint64_t ff_uops, std::uint64_t warm_uops,
         std::uint64_t detail_uops, std::uint64_t shard_start,
         std::uint64_t shard_count)
{
    if (ff_uops == 0 && warm_uops == 0 && detail_uops == 0)
        return pointKey(config, suite, uops, run_seed,
                        occupancy_series);
    CanonicalWriter w;
    w.str("schema", kSchemaVersion);
    w.begin("point");
    w.u64("uops", uops);
    w.u64("run_seed", run_seed);
    w.boolean("occupancy_series", occupancy_series);
    w.end("point");
    w.begin("sampling");
    // Engine tag: sampled addresses from earlier engines (which had
    // no tag) can never be served for this one.
    w.str("engine", "independent-intervals-v2");
    w.u64("ff_uops", ff_uops);
    w.u64("warm_uops", warm_uops);
    w.u64("detail_uops", detail_uops);
    w.u64("shard_start", shard_start);
    w.u64("shard_count", shard_count);
    w.end("sampling");
    std::string bytes = w.bytes();
    bytes += serializeConfig(config);
    bytes += serializeSuite(suite);
    return hashString(bytes);
}

} // namespace chash
} // namespace srl
