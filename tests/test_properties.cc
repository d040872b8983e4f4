/**
 * @file
 * Parameterized property tests (TEST_P sweeps): each structure is
 * driven with randomized operation streams across a grid of geometries
 * and checked against a simple oracle model of its specification —
 * CAM forwarding select vs. a program-order map, the counting Bloom
 * filter's no-false-negative guarantee, cache LRU contents vs. a list
 * model, the forwarding cache vs. per-byte program-order values, the
 * load buffer's violation predicate vs. an exhaustive check, and
 * StoreId's wrap-around compare vs. unbounded arithmetic. Finally, a
 * stress sweep runs the whole machine with deliberately tiny
 * structures against the functional reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <vector>

#include "common/random.hh"
#include "core/processor.hh"
#include "core/simulator.hh"
#include "lsq/counting_bloom.hh"
#include "lsq/fwd_cache.hh"
#include "lsq/load_buffer.hh"
#include "lsq/store_id.hh"
#include "lsq/store_queue.hh"
#include "memsys/cache.hh"
#include "workload/generator.hh"

namespace
{

using namespace srl;

// ----------------------------------------------------- StoreQueue oracle

class StoreQueueProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(StoreQueueProperty, ForwardMatchesOracle)
{
    const unsigned cap = GetParam();
    lsq::StoreQueue q({"p", cap, 3});
    lsq::StoreIdAllocator ids(1u << 20);
    Random rng(cap * 7 + 1);

    struct OracleStore
    {
        SeqNum seq;
        Addr addr;
        unsigned size;
        std::uint64_t data;
        bool executed;
    };
    std::vector<OracleStore> oracle;

    SeqNum next_seq = 1;
    for (int step = 0; step < 4000; ++step) {
        const double roll = rng.real();
        if (roll < 0.35 && !q.full()) {
            const SeqNum s = next_seq++;
            q.allocate(s, ids.allocate(), 0);
            oracle.push_back({s, 0, 0, 0, false});
        } else if (roll < 0.6) {
            // Execute a random unexecuted store.
            std::vector<std::size_t> cand;
            for (std::size_t i = 0; i < oracle.size(); ++i)
                if (!oracle[i].executed)
                    cand.push_back(i);
            if (!cand.empty()) {
                auto &o = oracle[cand[rng.below(cand.size())]];
                const unsigned size = 1u << rng.below(4);
                const Addr addr =
                    0x1000 + rng.below(64) * 8 +
                    (size == 8 ? 0 : rng.below(8 / size) * size);
                const std::uint64_t data = rng.next64();
                q.writeAddrData(o.seq, addr,
                                static_cast<std::uint8_t>(size), data);
                o.addr = addr;
                o.size = size;
                o.data = data;
                o.executed = true;
            }
        } else if (roll < 0.75 && !q.empty() &&
                   q.head().data_valid) {
            q.popHead();
            oracle.erase(oracle.begin());
        } else {
            // Probe with a random load and compare against the oracle.
            const unsigned size = 1u << rng.below(4);
            const Addr addr =
                0x1000 + rng.below(64) * 8 +
                (size == 8 ? 0 : rng.below(8 / size) * size);
            const SeqNum load_seq = next_seq; // younger than all stores
            const auto r = q.forward(load_seq, addr,
                                     static_cast<std::uint8_t>(size));

            // Oracle: youngest executed store older than the load that
            // overlaps; forward iff it covers.
            const OracleStore *best = nullptr;
            for (const auto &o : oracle) {
                if (o.executed &&
                    lsq::bytesOverlap(o.addr, o.size, addr, size))
                    best = &o; // oracle is in seq order: keep youngest
            }
            if (!best) {
                ASSERT_EQ(r.outcome, lsq::ForwardOutcome::kNoMatch);
            } else if (lsq::bytesCover(best->addr, best->size, addr,
                                       size)) {
                ASSERT_EQ(r.outcome, lsq::ForwardOutcome::kForward);
                ASSERT_EQ(r.store_seq, best->seq);
                const unsigned shift =
                    static_cast<unsigned>(addr - best->addr) * 8;
                const std::uint64_t expect =
                    size >= 8 ? best->data >> shift
                              : ((best->data >> shift) &
                                 ((1ull << (8 * size)) - 1));
                ASSERT_EQ(r.data, expect);
            } else {
                ASSERT_EQ(r.outcome, lsq::ForwardOutcome::kBlocked);
                ASSERT_EQ(r.store_seq, best->seq);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, StoreQueueProperty,
                         ::testing::Values(4u, 16u, 48u, 128u));

// --------------------------------------------------- CountingBloom sweep

using BloomParam = std::tuple<unsigned, unsigned, lsq::HashScheme>;

class BloomProperty : public ::testing::TestWithParam<BloomParam>
{
};

TEST_P(BloomProperty, NeverFalseNegative)
{
    const auto [entries, bits, scheme] = GetParam();
    lsq::CountingBloom bloom(entries, bits, scheme);
    Random rng(entries + bits);

    std::multiset<Addr> live;
    for (int step = 0; step < 5000; ++step) {
        if (live.empty() || rng.chance(0.55)) {
            const Addr a = rng.below(1u << 14) * 8;
            if (bloom.increment(a))
                live.insert(a);
        } else {
            auto it = live.begin();
            std::advance(it, rng.below(live.size()));
            bloom.decrement(*it);
            live.erase(it);
        }
        // Property: every live member must report mayContain.
        if (step % 50 == 0) {
            for (const Addr a : live)
                ASSERT_TRUE(bloom.mayContain(a));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BloomProperty,
    ::testing::Combine(
        ::testing::Values(64u, 256u, 2048u),
        ::testing::Values(2u, 6u),
        ::testing::Values(lsq::HashScheme::kLowerAddressBits,
                          lsq::HashScheme::kThreePieceXor)));

// -------------------------------------------------------- Cache LRU sweep

using CacheParam = std::tuple<unsigned, unsigned>; // sets x ways

class CacheLruProperty : public ::testing::TestWithParam<CacheParam>
{
};

TEST_P(CacheLruProperty, ContentsMatchListModel)
{
    const auto [sets, ways] = GetParam();
    memsys::Cache c({"p", sets * ways * 64ull, ways, 64, 1});

    // Oracle: per set, an LRU-ordered list of tags.
    std::vector<std::list<Addr>> model(sets);
    Random rng(sets * 31 + ways);

    for (int step = 0; step < 6000; ++step) {
        const Addr line = rng.below(sets * ways * 4) * 64ull;
        const unsigned set =
            static_cast<unsigned>((line / 64) % sets);
        c.access(line, rng.chance(0.3));

        auto &l = model[set];
        const auto it = std::find(l.begin(), l.end(), line);
        if (it != l.end())
            l.erase(it);
        l.push_front(line);
        if (l.size() > ways)
            l.pop_back();

        // Property: cache contents == model contents.
        if (step % 97 == 0) {
            for (const Addr a : l)
                ASSERT_TRUE(c.probe(a)) << std::hex << a;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheLruProperty,
                         ::testing::Combine(::testing::Values(4u, 16u),
                                            ::testing::Values(1u, 2u,
                                                              8u)));

// -------------------------------------------------- ForwardingCache sweep

using FcParam = std::tuple<unsigned, unsigned>;

class FwdCacheProperty : public ::testing::TestWithParam<FcParam>
{
};

TEST_P(FwdCacheProperty, HitsReturnProgramOrderBytes)
{
    const auto [entries, assoc] = GetParam();
    lsq::ForwardingCache fc({entries, assoc});
    lsq::StoreIdAllocator ids(1u << 20);
    Random rng(entries * 3 + assoc);

    // Oracle: per byte address, the (id, value) of its program-
    // youngest writer among all stores issued so far.
    struct ByteVal
    {
        std::uint64_t abs;
        std::uint8_t value;
    };
    std::map<Addr, ByteVal> bytes;

    // Stores update the FC in program order, as the machine does
    // (L1 STQ head departures are in order).
    for (int step = 0; step < 3000; ++step) {
        if (rng.chance(0.6)) {
            const unsigned size = 1u << rng.below(4);
            const Addr addr =
                0x2000 + rng.below(96) * 8 +
                (size == 8 ? 0 : rng.below(8 / size) * size);
            const lsq::StoreId id = ids.allocate();
            const std::uint64_t data = rng.next64();
            for (unsigned i = 0; i < size; ++i) {
                auto &b = bytes[addr + i];
                if (b.abs < id.abs) {
                    b.abs = id.abs;
                    b.value =
                        static_cast<std::uint8_t>(data >> (8 * i));
                }
            }
            fc.storeUpdate(addr, static_cast<std::uint8_t>(size), data,
                           id);
        }
        // Probe. The strong property — a full-word hit returns exactly
        // the program-order-youngest byte values — holds while no live
        // entry has been evicted: an eviction may drop a younger
        // store's bytes, which the *machine* tolerates because the LCF
        // still counts that store and the load buffer catches any load
        // that consumed stale data (the paper's eviction-risk note).
        if (rng.chance(0.3)) {
            const Addr addr = 0x2000 + rng.below(96) * 8;
            const auto hit = fc.load(addr, 8);
            if (hit && fc.liveEvictions.value() == 0) {
                for (unsigned i = 0; i < 8; ++i) {
                    const auto it = bytes.find(addr + i);
                    ASSERT_NE(it, bytes.end());
                    ASSERT_EQ(static_cast<std::uint8_t>(hit->data >>
                                                        (8 * i)),
                              it->second.value)
                        << std::hex << addr + i;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, FwdCacheProperty,
                         ::testing::Combine(::testing::Values(64u, 256u,
                                                              1024u),
                                            ::testing::Values(4u, 8u)));

// ----------------------------------------------------- LoadBuffer sweep

using LbParam = std::tuple<unsigned, unsigned, lsq::OverflowPolicy>;

class LoadBufferProperty : public ::testing::TestWithParam<LbParam>
{
};

TEST_P(LoadBufferProperty, ViolationPredicateMatchesOracle)
{
    const auto [entries, assoc, policy] = GetParam();
    lsq::SecondaryLoadBuffer buf({entries, assoc, policy, 8});
    lsq::StoreIdAllocator ids(1u << 20);
    Random rng(entries + assoc * 13);

    struct OracleLoad
    {
        SeqNum seq;
        Addr addr;
        unsigned size;
        std::uint64_t nearest_abs;
        std::uint64_t fwd_abs; // 0 = none
        bool tracked;          // survived insertion (no overflow)
    };
    std::vector<OracleLoad> loads;
    SeqNum next_seq = 1;

    for (int step = 0; step < 3000; ++step) {
        // Advance the store id stream sometimes.
        if (rng.chance(0.4))
            ids.allocate();

        if (rng.chance(0.5)) {
            const unsigned size = 1u << rng.below(4);
            const Addr addr =
                0x3000 + rng.below(48) * 8 +
                (size == 8 ? 0 : rng.below(8 / size) * size);
            const lsq::StoreId nearest = ids.lastAllocated();
            // Sometimes the load "forwarded" from a store at or before
            // its nearest.
            lsq::StoreId fwd = lsq::kNullStoreId;
            if (!lsq::isNullStoreId(nearest) && rng.chance(0.4)) {
                fwd = nearest;
                fwd.abs -= rng.below(
                    static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(nearest.abs, 5)));
                // Recompute ring fields for the adjusted abs.
                fwd.index = static_cast<std::uint32_t>((fwd.abs - 1) %
                                                       (1u << 20));
                fwd.wrap = false;
            }
            const SeqNum s = next_seq++;
            const auto ins =
                buf.insert(s, static_cast<CheckpointId>(s % 8), addr,
                           static_cast<std::uint8_t>(size), nearest,
                           fwd);
            loads.push_back({s, addr, size, nearest.abs,
                             lsq::isNullStoreId(fwd) ? 0 : fwd.abs,
                             !ins.overflowed});
        } else if (ids.any()) {
            // A store with a random live-ish id completes: compare the
            // buffer's verdict with an exhaustive oracle.
            lsq::StoreId sid = ids.lastAllocated();
            const std::uint64_t back =
                rng.below(static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(sid.abs, 6)));
            sid.abs -= back;
            sid.index =
                static_cast<std::uint32_t>((sid.abs - 1) % (1u << 20));
            const unsigned size = 1u << rng.below(4);
            const Addr addr =
                0x3000 + rng.below(48) * 8 +
                (size == 8 ? 0 : rng.below(8 / size) * size);

            const auto v = buf.storeCheck(sid, addr,
                                          static_cast<std::uint8_t>(
                                              size));

            std::optional<SeqNum> oracle;
            for (const auto &l : loads) {
                if (!l.tracked)
                    continue;
                if (!lsq::bytesOverlap(l.addr, l.size, addr, size))
                    continue;
                if (sid.abs > l.nearest_abs)
                    continue; // store younger than the load
                if (l.fwd_abs >= sid.abs && l.fwd_abs != 0)
                    continue; // got data from this store or newer
                if (!oracle || l.seq < *oracle)
                    oracle = l.seq;
            }
            if (oracle) {
                ASSERT_TRUE(v.has_value());
                ASSERT_EQ(v->load_seq, *oracle);
            } else {
                ASSERT_FALSE(v.has_value());
            }
        }

        // Occasionally commit a checkpoint (bulk reset).
        if (rng.chance(0.02) && !loads.empty()) {
            const CheckpointId ck =
                static_cast<CheckpointId>(rng.below(8));
            buf.clearCheckpoint(ck);
            for (auto &l : loads)
                if (static_cast<CheckpointId>(l.seq % 8) == ck)
                    l.tracked = false;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LoadBufferProperty,
    ::testing::Combine(
        ::testing::Values(64u, 256u, 1024u),
        ::testing::Values(4u, 8u),
        ::testing::Values(lsq::OverflowPolicy::kVictimBuffer,
                          lsq::OverflowPolicy::kViolate)));

// ------------------------------------------------------ StoreId property

TEST(StoreIdProperty, HardwareCompareMatchesArithmeticWithinRing)
{
    for (const unsigned ring : {4u, 64u, 1024u}) {
        lsq::StoreIdAllocator ids(ring);
        std::vector<lsq::StoreId> window;
        Random rng(ring);
        for (int i = 0; i < 5000; ++i) {
            window.push_back(ids.allocate());
            // Keep the live window strictly inside one ring span.
            while (window.size() >= ring)
                window.erase(window.begin());
            // Compare random live pairs.
            const auto &a = window[rng.below(window.size())];
            const auto &b = window[rng.below(window.size())];
            ASSERT_EQ(lsq::allocatedBefore(a, b), a.abs < b.abs);
        }
    }
}

// ----------------------------------------- whole-machine stress configs

struct TinyParam
{
    const char *name;
    unsigned stq;
    unsigned srl;
    unsigned lcf;
    unsigned fc_entries;
    unsigned load_buffer;
};

// Without this gtest prints the raw bytes, name pointer included, so the
// discovered test names would change with every address-space layout.
void PrintTo(const TinyParam &p, std::ostream *os)
{
    *os << p.name;
}

class TinyMachine : public ::testing::TestWithParam<TinyParam>
{
};

TEST_P(TinyMachine, StillSequential)
{
    const auto p = GetParam();
    auto cfg = core::srlConfig();
    cfg.stq.capacity = p.stq;
    cfg.srl.srl.capacity = p.srl;
    cfg.srl.lcf.entries = p.lcf;
    cfg.srl.fwd_cache.entries = p.fc_entries;
    cfg.load_buffer.entries = p.load_buffer;

    const auto suite = workload::suiteProfile("SFP2K");
    const std::uint64_t uops = 12000;

    workload::Generator ref_gen(suite, uops, 99);
    core::ReferenceExecutor ref;
    ref.run(ref_gen);

    workload::Generator gen(suite, uops, 99);
    core::Processor cpu(cfg, gen);
    cpu.setLoadCommitHook([&](SeqNum seq, Addr, unsigned,
                              std::uint64_t value) {
        ASSERT_EQ(value, ref.loadValue(seq)) << "seq " << seq;
    });
    cpu.run(80'000'000);
    ASSERT_TRUE(cpu.done()) << p.name;
    EXPECT_EQ(cpu.stats().committed_uops, uops);
}

INSTANTIATE_TEST_SUITE_P(
    Tiny, TinyMachine,
    ::testing::Values(
        TinyParam{"tiny_stq", 4, 1024, 2048, 256, 1024},
        TinyParam{"tiny_srl", 48, 64, 2048, 256, 1024},
        TinyParam{"tiny_lcf", 48, 1024, 32, 256, 1024},
        TinyParam{"tiny_fc", 48, 1024, 2048, 16, 1024},
        TinyParam{"tiny_ldbuf", 48, 1024, 2048, 256, 64},
        TinyParam{"tiny_all", 8, 128, 64, 32, 128}),
    [](const auto &info) { return info.param.name; });

} // namespace
