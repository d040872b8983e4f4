/**
 * @file
 * Unit tests for the CAM store queue and the wrap-around StoreId:
 * forwarding select (youngest older match), byte-coverage semantics,
 * blocking, squash, age-ordered insertion, and the identifier ring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "lsq/store_id.hh"
#include "lsq/store_queue.hh"

namespace
{

using namespace srl;
using namespace srl::lsq;

// ------------------------------------------------------------ StoreId

TEST(StoreId, AllocatorSequence)
{
    StoreIdAllocator a(4);
    EXPECT_FALSE(a.any());
    EXPECT_TRUE(isNullStoreId(a.lastAllocated()));
    const StoreId s0 = a.allocate();
    EXPECT_EQ(s0.index, 0u);
    EXPECT_FALSE(s0.wrap);
    const StoreId s1 = a.allocate();
    const StoreId s2 = a.allocate();
    const StoreId s3 = a.allocate();
    const StoreId s4 = a.allocate(); // wraps
    EXPECT_EQ(s3.index, 3u);
    EXPECT_EQ(s4.index, 0u);
    EXPECT_TRUE(s4.wrap);
    EXPECT_TRUE(allocatedBefore(s0, s1));
    EXPECT_TRUE(allocatedBefore(s1, s2));
    EXPECT_TRUE(allocatedBefore(s3, s4)); // across the wrap
    EXPECT_FALSE(allocatedBefore(s4, s3));
    EXPECT_FALSE(allocatedBefore(s1, s1));
}

TEST(StoreId, NullIsOlderThanEverything)
{
    StoreIdAllocator a(8);
    const StoreId s = a.allocate();
    EXPECT_TRUE(allocatedBefore(kNullStoreId, s));
    EXPECT_FALSE(allocatedBefore(s, kNullStoreId));
    EXPECT_FALSE(allocatedBefore(kNullStoreId, kNullStoreId));
}

TEST(StoreId, LastAllocatedTracks)
{
    StoreIdAllocator a(8);
    const StoreId s0 = a.allocate();
    EXPECT_EQ(a.lastAllocated().abs, s0.abs);
    const StoreId s1 = a.allocate();
    EXPECT_EQ(a.lastAllocated().abs, s1.abs);
}

TEST(StoreId, RewindReissuesSameIds)
{
    StoreIdAllocator a(8);
    a.allocate();
    const StoreId s1 = a.allocate();
    a.allocate();
    a.rewind(s1);
    const StoreId again = a.allocate();
    EXPECT_EQ(again.abs, s1.abs);
    EXPECT_EQ(again.index, s1.index);
    EXPECT_EQ(again.wrap, s1.wrap);
}

TEST(StoreIdDeathTest, DivergentComparePanics)
{
    // Two ids more than one ring apart must trip the model's check.
    StoreIdAllocator a(4);
    const StoreId s0 = a.allocate();
    for (int i = 0; i < 4; ++i)
        a.allocate();
    const StoreId s5 = a.allocate(); // 5 ids later on a 4-ring
    EXPECT_DEATH((void)allocatedBefore(s0, s5), "diverged");
}

// ------------------------------------------------------------ StoreQueue

StoreQueue
makeStq(unsigned cap = 8)
{
    return StoreQueue{{"t", cap, 3}};
}

StoreId
id(std::uint32_t index, std::uint64_t abs)
{
    return StoreId{index, false, abs};
}

TEST(StoreQueue, ForwardFromYoungestOlderStore)
{
    auto q = makeStq();
    q.allocate(1, id(0, 1), 0);
    q.allocate(2, id(1, 2), 0);
    q.writeAddrData(1, 0x100, 8, 0xaaaa);
    q.writeAddrData(2, 0x100, 8, 0xbbbb);

    // Load younger than both: youngest match (seq 2) wins.
    auto r = q.forward(5, 0x100, 8);
    EXPECT_EQ(r.outcome, ForwardOutcome::kForward);
    EXPECT_EQ(r.data, 0xbbbbu);
    EXPECT_EQ(r.store_seq, 2u);

    // Load between the two stores: only seq 1 is older.
    r = q.forward(2, 0x100, 8);
    EXPECT_EQ(r.outcome, ForwardOutcome::kForward);
    EXPECT_EQ(r.data, 0xaaaau);
}

TEST(StoreQueue, SubsetForwardExtractsBytes)
{
    auto q = makeStq();
    q.allocate(1, id(0, 1), 0);
    q.writeAddrData(1, 0x100, 8, 0x8877665544332211ull);
    auto r = q.forward(2, 0x104, 4);
    EXPECT_EQ(r.outcome, ForwardOutcome::kForward);
    EXPECT_EQ(r.data, 0x88776655u);
    r = q.forward(2, 0x103, 1);
    EXPECT_EQ(r.data, 0x44u);
}

TEST(StoreQueue, PartialCoverageBlocks)
{
    auto q = makeStq();
    q.allocate(1, id(0, 1), 0);
    q.writeAddrData(1, 0x100, 4, 0xdead);
    // An 8-byte load over a 4-byte store: blocked, not forwarded.
    const auto r = q.forward(2, 0x100, 8);
    EXPECT_EQ(r.outcome, ForwardOutcome::kBlocked);
    EXPECT_EQ(r.store_seq, 1u);
}

TEST(StoreQueue, UnknownAddressIsSearchedPast)
{
    auto q = makeStq();
    q.allocate(1, id(0, 1), 0);              // address unknown
    q.allocate(2, id(1, 2), 0);
    q.writeAddrData(2, 0x200, 8, 0x42);
    // Load to 0x200 forwards from store 2; store 1 (unknown addr) is
    // speculated past, as conventional designs do.
    const auto r = q.forward(3, 0x200, 8);
    EXPECT_EQ(r.outcome, ForwardOutcome::kForward);
    // Load to an unrelated address: no match at all.
    EXPECT_EQ(q.forward(3, 0x300, 8).outcome, ForwardOutcome::kNoMatch);
}

TEST(StoreQueue, PoisonedEntryInvisibleToForwarding)
{
    auto q = makeStq();
    q.allocate(1, id(0, 1), 0);
    q.markPoisoned(1);
    EXPECT_EQ(q.forward(2, 0x100, 8).outcome, ForwardOutcome::kNoMatch);
}

TEST(StoreQueue, YoungerStoresDoNotForwardBackwards)
{
    auto q = makeStq();
    q.allocate(5, id(0, 1), 0);
    q.writeAddrData(5, 0x100, 8, 0x99);
    EXPECT_EQ(q.forward(3, 0x100, 8).outcome, ForwardOutcome::kNoMatch);
}

TEST(StoreQueue, AgeOrderedInsertion)
{
    auto q = makeStq();
    q.allocate(10, id(1, 2), 0);
    q.allocate(5, id(0, 1), 0); // older slice store re-allocates
    EXPECT_EQ(q.head().seq, 5u);
    q.popHead();
    EXPECT_EQ(q.head().seq, 10u);
}

TEST(StoreQueue, SquashAfterReturnsRemoved)
{
    auto q = makeStq();
    q.allocate(1, id(0, 1), 0);
    q.allocate(2, id(1, 2), 0);
    q.allocate(3, id(2, 3), 0);
    const auto removed = q.squashAfter(1);
    ASSERT_EQ(removed.size(), 2u);
    EXPECT_EQ(removed[0].seq, 3u);
    EXPECT_EQ(removed[1].seq, 2u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(StoreQueue, CamActivityCounters)
{
    auto q = makeStq();
    q.allocate(1, id(0, 1), 0);
    q.allocate(2, id(1, 2), 0);
    q.writeAddrData(1, 0x100, 8, 1);
    q.writeAddrData(2, 0x180, 8, 2);
    q.forward(10, 0x100, 8);
    EXPECT_EQ(q.searches.value(), 1u);
    EXPECT_EQ(q.entriesSearched.value(), 2u);
}

/**
 * Reference store queue: a plain seq-sorted vector of entries searched
 * youngest-first, with no head offset and no scan lanes.
 */
struct NaiveStq
{
    std::vector<StoreQueueEntry> q;

    StoreQueueEntry *
    find(SeqNum seq)
    {
        for (auto &e : q)
            if (e.seq == seq)
                return &e;
        return nullptr;
    }

    /** The forward() result and the number of entries visited. */
    std::pair<ForwardResult, std::uint64_t>
    forward(SeqNum load_seq, Addr addr, std::uint8_t size) const
    {
        ForwardResult r;
        std::uint64_t searched = 0;
        for (auto it = q.rbegin(); it != q.rend(); ++it) {
            const StoreQueueEntry &e = *it;
            if (e.seq >= load_seq)
                continue;
            ++searched;
            if (!e.addr_valid || !bytesOverlap(e.addr, e.size, addr, size))
                continue;
            r.store_seq = e.seq;
            r.store_id = e.id;
            if (e.data_valid && !e.poisoned &&
                bytesCover(e.addr, e.size, addr, size)) {
                r.outcome = ForwardOutcome::kForward;
                const std::uint64_t v = e.data >> (8 * (addr - e.addr));
                r.data = size >= 8 ? v : v & ((1ull << (8 * size)) - 1);
            } else {
                r.outcome = ForwardOutcome::kBlocked;
            }
            break;
        }
        return {r, searched};
    }
};

/**
 * Seeded differential test of the SoA scan lanes and the amortized
 * head offset against NaiveStq, across age-ordered allocation, fully
 * formed pushes, address/data writes, poisoning, drains past the
 * compaction threshold and squashes. Addresses come from a small
 * range so loads see forwards, blocks and misses alike.
 */
TEST(StoreQueue, MatchesNaiveLinearScanUnderRandomOps)
{
    static constexpr std::uint8_t kSizes[] = {1, 2, 4, 8};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        Random rng(seed);
        StoreQueue q({"t", 64, 3});
        NaiveStq ref;
        SeqNum next = 10;
        std::uint64_t searched = 0;
        const auto addr = [&] { return Addr{0x100} + rng.below(24); };
        const auto live = [&] {
            return ref.q[rng.below(static_cast<std::uint32_t>(
                ref.q.size()))].seq;
        };
        for (int op = 0; op < 6000; ++op) {
            const std::uint64_t r = rng.below(100);
            if (r < 25 && !q.full()) {
                // Mostly at the tail; sometimes into a free seq gap
                // behind it, as a re-inserted slice store does.
                SeqNum seq = next;
                if (!ref.q.empty() && rng.below(4) == 0) {
                    seq = ref.q.front().seq + rng.below(static_cast<
                              std::uint32_t>(next - ref.q.front().seq));
                    if (ref.find(seq))
                        continue;
                } else {
                    next += 1 + rng.below(3);
                }
                const StoreId sid{static_cast<std::uint32_t>(seq), false,
                                  seq};
                q.allocate(seq, sid, 0);
                StoreQueueEntry e;
                e.seq = seq;
                e.id = sid;
                e.ckpt = 0;
                ref.q.insert(std::lower_bound(ref.q.begin(), ref.q.end(),
                                              e,
                                              [](const auto &x,
                                                 const auto &y) {
                                                  return x.seq < y.seq;
                                              }),
                             e);
            } else if (r < 30 && !q.full()) {
                StoreQueueEntry e;
                e.seq = next;
                e.id = {static_cast<std::uint32_t>(next), false, next};
                e.addr = addr();
                e.size = kSizes[rng.below(4)];
                e.data = rng.next64();
                e.addr_valid = rng.below(4) != 0;
                e.data_valid = rng.below(4) != 0;
                next += 1 + rng.below(3);
                q.pushEntry(e);
                ref.q.push_back(e);
            } else if (r < 45 && !ref.q.empty()) {
                const SeqNum seq = live();
                const Addr a = addr();
                const std::uint8_t size = kSizes[rng.below(4)];
                const std::uint64_t data = rng.next64();
                q.writeAddrData(seq, a, size, data);
                StoreQueueEntry &e = *ref.find(seq);
                e.addr = a;
                e.size = size;
                e.data = data;
                e.addr_valid = e.data_valid = true;
                e.poisoned = false;
            } else if (r < 50 && !ref.q.empty()) {
                const SeqNum seq = live();
                q.markPoisoned(seq);
                ref.find(seq)->poisoned = true;
            } else if (r < 62 && !ref.q.empty()) {
                ASSERT_EQ(q.popHead().seq, ref.q.front().seq);
                ref.q.erase(ref.q.begin());
            } else if (r < 65 && !ref.q.empty()) {
                const SeqNum seq = live() - rng.below(2);
                const auto removed = q.squashAfter(seq);
                std::size_t n = 0;
                while (!ref.q.empty() && ref.q.back().seq > seq) {
                    ASSERT_LT(n, removed.size());
                    ASSERT_EQ(removed[n++].seq, ref.q.back().seq);
                    ref.q.pop_back();
                }
                ASSERT_EQ(n, removed.size());
            } else {
                const SeqNum load = 5 + rng.below(static_cast<
                                            std::uint32_t>(next));
                const Addr a = addr();
                const std::uint8_t size = kSizes[rng.below(4)];
                const auto got = q.forward(load, a, size);
                const auto [want, visited] = ref.forward(load, a, size);
                ASSERT_EQ(got.outcome, want.outcome)
                    << "op " << op << " load " << load << " @" << a;
                EXPECT_EQ(got.data, want.data);
                EXPECT_EQ(got.store_seq, want.store_seq);
                EXPECT_EQ(got.store_id.abs, want.store_id.abs);
                searched += visited;
                ASSERT_EQ(q.entriesSearched.value(), searched);
            }
            ASSERT_EQ(q.size(), ref.q.size());
            if (!ref.q.empty()) {
                ASSERT_EQ(q.head().seq, ref.q.front().seq);
            }
        }
        EXPECT_GT(q.forwards.value(), 0u);
        EXPECT_GT(q.blocks.value(), 0u);
    }
}

TEST(StoreQueue, OverlapHelpers)
{
    EXPECT_TRUE(bytesOverlap(0x100, 8, 0x104, 4));
    EXPECT_FALSE(bytesOverlap(0x100, 4, 0x104, 4));
    EXPECT_TRUE(bytesCover(0x100, 8, 0x104, 4));
    EXPECT_FALSE(bytesCover(0x104, 4, 0x100, 8));
    EXPECT_TRUE(bytesCover(0x100, 4, 0x100, 4));
}

} // namespace
