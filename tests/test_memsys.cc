/**
 * @file
 * Unit tests for the memory system: functional main memory, the
 * timing cache (LRU, dirty/writeback, per-checkpoint speculative
 * state), the stream prefetcher, and the three-level hierarchy.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/random.hh"
#include "memsys/cache.hh"
#include "memsys/hierarchy.hh"
#include "memsys/main_memory.hh"
#include "memsys/prefetcher.hh"

namespace
{

using namespace srl;
using namespace srl::memsys;

// ------------------------------------------------------------ MainMemory

TEST(MainMemory, ZeroInitialized)
{
    MainMemory m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    EXPECT_EQ(m.pageCount(), 0u);
}

TEST(MainMemory, ReadBackWrites)
{
    MainMemory m;
    m.write(0x1000, 8, 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.read(0x1000, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x1004, 4), 0x11223344u);
    EXPECT_EQ(m.read(0x1003, 1), 0x55u);
}

TEST(MainMemory, CrossPageAccess)
{
    MainMemory m;
    const Addr a = MainMemory::kPageBytes - 4;
    m.write(a, 8, 0xaabbccdd11223344ull);
    EXPECT_EQ(m.read(a, 8), 0xaabbccdd11223344ull);
    EXPECT_EQ(m.pageCount(), 2u);
}

TEST(MainMemory, PartialOverwrite)
{
    MainMemory m;
    m.write(0x100, 8, ~0ull);
    m.write(0x102, 2, 0);
    EXPECT_EQ(m.read(0x100, 8), 0xffffffff0000ffffull);
}

TEST(MainMemory, NegativeCachedPageSeesLaterWrite)
{
    MainMemory m;
    const Addr a = 0x40000; // page 64: slot 0, like page 0
    EXPECT_EQ(m.read(a, 8), 0u); // caches "no page" in the slot
    m.write(a, 8, 0x0123456789abcdefull);
    EXPECT_EQ(m.read(a, 8), 0x0123456789abcdefull);
    EXPECT_EQ(m.read(0, 8), 0u); // evicts the slot
    EXPECT_EQ(m.read(a + 2, 2), 0x89abu);
}

/**
 * Seeded differential test of the page-pointer cache against a plain
 * byte map. Pages are picked so several share each cache slot (index
 * stride 64), and offsets cluster at page ends so accesses straddle
 * pages; reads of untouched pages cache a null slot that a later
 * write must replace.
 */
TEST(MainMemory, MatchesNaiveByteMapUnderRandomAccesses)
{
    static constexpr unsigned kSizes[] = {1, 2, 4, 8};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        Random rng(seed);
        MainMemory m;
        std::map<Addr, std::uint8_t> ref;
        std::set<Addr> pages;
        const auto addr = [&] {
            const Addr page = 64 * rng.below(4) + rng.below(3);
            const Addr off = rng.below(2)
                                 ? rng.below(16)
                                 : MainMemory::kPageBytes - 1 -
                                       rng.below(12);
            return (page << MainMemory::kPageShift) + off;
        };
        for (int op = 0; op < 6000; ++op) {
            const std::uint64_t r = rng.below(100);
            const Addr a = addr();
            const unsigned size = kSizes[rng.below(4)];
            if (r < 40) {
                const std::uint64_t v = rng.next64();
                m.write(a, size, v);
                for (unsigned i = 0; i < size; ++i) {
                    ref[a + i] = static_cast<std::uint8_t>(v >> (8 * i));
                    pages.insert((a + i) >> MainMemory::kPageShift);
                }
            } else if (r < 99) {
                std::uint64_t want = 0;
                for (unsigned i = 0; i < size; ++i) {
                    const auto it = ref.find(a + i);
                    if (it != ref.end())
                        want |= static_cast<std::uint64_t>(it->second)
                                << (8 * i);
                }
                ASSERT_EQ(m.read(a, size), want)
                    << "op " << op << " read " << a << "/" << size;
            } else {
                m.clear();
                ref.clear();
                pages.clear();
            }
            ASSERT_EQ(m.pageCount(), pages.size());
        }
    }
}

// ------------------------------------------------------------ Cache

CacheParams
smallCache()
{
    return {"test", 1024, 2, 64, 3}; // 8 sets x 2 ways
}

TEST(Cache, HitAfterFill)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.probe(0x1000));
    const auto r = c.access(0x1000, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.hits.value(), 1u);
    EXPECT_EQ(c.misses.value(), 1u);
}

TEST(Cache, LruEviction)
{
    Cache c(smallCache());
    // Three lines mapping to the same set (set stride = 8 sets * 64 B).
    const Addr a = 0x0000, b = 0x0200, d = 0x0400;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false); // a most recent
    c.access(d, false); // evicts b (LRU)
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, DirtyVictimWriteback)
{
    Cache c(smallCache());
    const Addr a = 0x0000, b = 0x0200, d = 0x0400;
    c.access(a, true); // dirty
    c.access(b, false);
    c.access(b, false);
    const auto r = c.access(d, false); // evicts a
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_line, a);
    EXPECT_EQ(c.writebacks.value(), 1u);
}

TEST(Cache, TouchDoesNotAllocate)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.touch(0x1000));
    c.fill(0x1000);
    EXPECT_TRUE(c.touch(0x1000));
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(smallCache());
    c.access(0x1000, true);
    c.invalidate(0x1000);
    EXPECT_FALSE(c.probe(0x1000));
}

TEST(Cache, SpeculativeSingleVersionConstraint)
{
    Cache c(smallCache());
    c.fill(0x1000);
    EXPECT_TRUE(c.markSpeculative(0x1000, 1));
    EXPECT_TRUE(c.markSpeculative(0x1000, 1)); // same ckpt OK
    EXPECT_FALSE(c.markSpeculative(0x1000, 2)); // conflict
    EXPECT_TRUE(c.isSpeculative(0x1000));
    EXPECT_TRUE(c.isSpeculativeFor(0x1000, 1));
    EXPECT_FALSE(c.isSpeculativeFor(0x1000, 2));
}

TEST(Cache, CommitClearsSpeculativeKeepsLine)
{
    Cache c(smallCache());
    c.access(0x1000, true);
    c.markSpeculative(0x1000, 3);
    c.commitCheckpoint(3);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_FALSE(c.isSpeculative(0x1000));
    EXPECT_TRUE(c.markSpeculative(0x1000, 4)); // now free for others
}

TEST(Cache, SquashInvalidatesSpeculativeLines)
{
    Cache c(smallCache());
    c.fill(0x1000);
    c.fill(0x2000);
    c.markSpeculative(0x1000, 3);
    EXPECT_EQ(c.squashCheckpoint(3), 1u);
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_TRUE(c.probe(0x2000));
}

TEST(Cache, SquashAllSpeculative)
{
    Cache c(smallCache());
    c.fill(0x1000);
    c.fill(0x2000);
    c.markSpeculative(0x1000, 1);
    c.markSpeculative(0x2000, 2);
    EXPECT_EQ(c.squashAllSpeculative(), 2u);
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x2000));
}

// ------------------------------------------------------------ Prefetcher

TEST(Prefetcher, ArmsOnSequentialMisses)
{
    PrefetcherParams p;
    p.train_threshold = 2;
    p.degree = 4;
    StreamPrefetcher pf(p);
    std::vector<Addr> issued;
    const auto sink = [&](Addr a) { issued.push_back(a); };

    pf.observeMiss(0x10000, sink);
    EXPECT_TRUE(issued.empty()); // tentative
    pf.observeMiss(0x10040, sink);
    pf.observeMiss(0x10080, sink); // armed: prefetches ahead
    EXPECT_FALSE(issued.empty());
    EXPECT_GT(pf.issued.value(), 0u);
    // Prefetches are ahead of the demand line.
    for (const Addr a : issued)
        EXPECT_GT(a, Addr{0x10080});
}

TEST(Prefetcher, ToleratesOutOfOrderSkew)
{
    PrefetcherParams p;
    p.train_threshold = 2;
    p.match_slack = 8;
    StreamPrefetcher pf(p);
    std::vector<Addr> issued;
    const auto sink = [&](Addr a) { issued.push_back(a); };

    // Slightly out-of-order demand stream must still train one stream.
    pf.observeMiss(0x20000, sink);
    pf.observeMiss(0x20080, sink); // skipped one line
    pf.observeMiss(0x20040, sink); // arrives late
    pf.observeMiss(0x200c0, sink);
    EXPECT_EQ(pf.streamsAllocated.value(), 1u);
}

TEST(Prefetcher, RandomMissesDoNotArm)
{
    StreamPrefetcher pf({});
    std::vector<Addr> issued;
    const auto sink = [&](Addr a) { issued.push_back(a); };
    for (Addr a = 0; a < 16; ++a)
        pf.observeMiss(0x1000000 * (a + 1), sink);
    EXPECT_TRUE(issued.empty());
}

// ------------------------------------------------------------ Hierarchy

TEST(Hierarchy, LatenciesByLevel)
{
    MainMemory mem;
    HierarchyParams hp;
    hp.enable_prefetch = false;
    Hierarchy h(hp, mem);

    // Cold: memory latency.
    auto r = h.load(0x5000, 100);
    EXPECT_EQ(r.level, ServiceLevel::kMemory);
    EXPECT_EQ(r.ready, 100u + hp.memory_latency);

    // Now L1 resident.
    r = h.load(0x5000, 2000);
    EXPECT_EQ(r.level, ServiceLevel::kL1);
    EXPECT_EQ(r.ready, 2000u + hp.l1.hit_latency);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MainMemory mem;
    HierarchyParams hp;
    hp.enable_prefetch = false;
    hp.l1 = {"l1", 2 * 64, 1, 64, 3}; // 2-line direct-ish L1
    Hierarchy h(hp, mem);

    h.load(0x0000, 0);
    h.load(0x1000, 2000); // same set, evicts 0x0000 from tiny L1
    auto r = h.load(0x0000, 4000);
    EXPECT_EQ(r.level, ServiceLevel::kL2);
}

TEST(Hierarchy, MshrMergingSameLine)
{
    MainMemory mem;
    HierarchyParams hp;
    hp.enable_prefetch = false;
    Hierarchy h(hp, mem);

    const auto r1 = h.load(0x9000, 10);
    const auto r2 = h.load(0x9008, 12); // same line, in flight
    EXPECT_EQ(r2.level, ServiceLevel::kMemory);
    EXPECT_EQ(r2.ready, r1.ready); // merged into the same fill
    EXPECT_EQ(h.mshrMerges.value(), 1u);
    EXPECT_EQ(h.memMisses.value(), 1u);
}

TEST(Hierarchy, MshrCapacityExhaustion)
{
    MainMemory mem;
    HierarchyParams hp;
    hp.enable_prefetch = false;
    hp.num_mshrs = 2;
    Hierarchy h(hp, mem);

    EXPECT_FALSE(h.load(0x10000, 0).mshr_full);
    EXPECT_FALSE(h.load(0x20000, 0).mshr_full);
    EXPECT_TRUE(h.load(0x30000, 0).mshr_full);
    // After the fills complete, capacity frees up.
    EXPECT_FALSE(h.load(0x30000, 10000).mshr_full);
}

TEST(Hierarchy, StoreDrainAllocatesDirtyLine)
{
    MainMemory mem;
    HierarchyParams hp;
    hp.enable_prefetch = false;
    Hierarchy h(hp, mem);

    h.storeDrain(0x7000, 0);
    EXPECT_TRUE(h.l1().probe(0x7000));
    EXPECT_TRUE(h.l1().isDirty(0x7000));
}

TEST(Hierarchy, WritebackLineCleans)
{
    MainMemory mem;
    HierarchyParams hp;
    hp.enable_prefetch = false;
    Hierarchy h(hp, mem);

    h.storeDrain(0x7000, 0);
    EXPECT_TRUE(h.writebackLine(0x7000));
    EXPECT_FALSE(h.l1().isDirty(0x7000));
    EXPECT_FALSE(h.writebackLine(0x7000)); // already clean
}

TEST(Hierarchy, SnoopInvalidateDropsBothLevels)
{
    MainMemory mem;
    HierarchyParams hp;
    hp.enable_prefetch = false;
    Hierarchy h(hp, mem);

    h.load(0x8000, 0);
    h.snoopInvalidate(0x8000);
    EXPECT_FALSE(h.l1().probe(0x8000));
    EXPECT_FALSE(h.l2().probe(0x8000));
}

} // namespace
