/**
 * @file
 * Unit tests for the speculative memory overlay: overlay-over-memory
 * reads, program-ordered commit to main memory, rollback rebuild, and
 * the byte-granular overwrite semantics.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>

#include "common/random.hh"
#include "core/spec_mem.hh"

namespace
{

using namespace srl;
using namespace srl::core;

TEST(SpecMem, ReadsFallThroughToMainMemory)
{
    memsys::MainMemory mem;
    mem.write(0x100, 8, 0x1111);
    SpeculativeMemory sm(mem);
    EXPECT_EQ(sm.read(0x100, 8), 0x1111u);
}

TEST(SpecMem, OverlayShadowsMainMemory)
{
    memsys::MainMemory mem;
    mem.write(0x100, 8, 0x1111);
    SpeculativeMemory sm(mem);
    sm.write(10, 0, 0x100, 8, 0x2222);
    EXPECT_EQ(sm.read(0x100, 8), 0x2222u);
    EXPECT_EQ(mem.read(0x100, 8), 0x1111u); // main memory untouched
}

TEST(SpecMem, PartialOverlayMerges)
{
    memsys::MainMemory mem;
    mem.write(0x100, 8, 0x8877665544332211ull);
    SpeculativeMemory sm(mem);
    sm.write(10, 0, 0x104, 4, 0xaabbccdd);
    EXPECT_EQ(sm.read(0x100, 8), 0xaabbccdd44332211ull);
}

TEST(SpecMem, CommitAppliesCheckpointPrefix)
{
    memsys::MainMemory mem;
    SpeculativeMemory sm(mem);
    sm.write(10, 0, 0x100, 8, 0xaa);
    sm.write(11, 0, 0x108, 8, 0xbb);
    sm.write(12, 1, 0x110, 8, 0xcc);
    sm.commitCheckpoint(0);
    EXPECT_EQ(mem.read(0x100, 8), 0xaau);
    EXPECT_EQ(mem.read(0x108, 8), 0xbbu);
    EXPECT_EQ(mem.read(0x110, 8), 0u); // ckpt 1 still speculative
    EXPECT_EQ(sm.read(0x110, 8), 0xccu);
    EXPECT_EQ(sm.pendingStores(), 1u);
}

TEST(SpecMem, ProgramOrderOverwriteWithinOverlay)
{
    memsys::MainMemory mem;
    SpeculativeMemory sm(mem);
    sm.write(10, 0, 0x100, 8, 0x1111);
    sm.write(11, 0, 0x100, 8, 0x2222);
    EXPECT_EQ(sm.read(0x100, 8), 0x2222u);
    sm.commitCheckpoint(0);
    EXPECT_EQ(mem.read(0x100, 8), 0x2222u);
    EXPECT_EQ(sm.pendingStores(), 0u);
}

TEST(SpecMem, RollbackRestoresOlderValue)
{
    memsys::MainMemory mem;
    SpeculativeMemory sm(mem);
    sm.write(10, 0, 0x100, 8, 0x1111);
    sm.write(20, 1, 0x100, 8, 0x2222);
    sm.rollback(15); // squash seq >= 15
    EXPECT_EQ(sm.read(0x100, 8), 0x1111u);
    EXPECT_EQ(sm.pendingStores(), 1u);
}

TEST(SpecMem, RollbackToZeroClearsEverything)
{
    memsys::MainMemory mem;
    mem.write(0x100, 8, 0x9999);
    SpeculativeMemory sm(mem);
    sm.write(0, 0, 0x100, 8, 0x1);
    sm.write(1, 0, 0x108, 8, 0x2);
    sm.rollback(0);
    EXPECT_EQ(sm.pendingStores(), 0u);
    EXPECT_EQ(sm.read(0x100, 8), 0x9999u);
}

TEST(SpecMem, PartialByteRollback)
{
    memsys::MainMemory mem;
    SpeculativeMemory sm(mem);
    sm.write(10, 0, 0x100, 8, 0x1111111111111111ull);
    sm.write(20, 0, 0x100, 2, 0xffff);
    EXPECT_EQ(sm.read(0x100, 8), 0x111111111111ffffull);
    sm.rollback(20);
    EXPECT_EQ(sm.read(0x100, 8), 0x1111111111111111ull);
}

TEST(SpecMem, CommitKeepsYoungerOverlayByteAboveAZeroLane)
{
    // Committing ckpt 0 leaves byte 0x1000 with no writer and byte
    // 0x1001 with one. A zero-lane test that flags a lane holding 1
    // above a zero lane drops 0x1001 from the overlaid-byte count, and
    // the read then falls through to committed memory (0x11).
    memsys::MainMemory mem;
    SpeculativeMemory sm(mem);
    sm.write(1, 0, 0x1000, 2, 0x1111);
    sm.write(2, 1, 0x1001, 1, 0x22);
    sm.commitCheckpoint(0);
    EXPECT_EQ(sm.read(0x1001, 1), 0x22u);
    EXPECT_EQ(sm.read(0x1000, 2), 0x2211u);
}

/**
 * Naive reference: committed bytes in a map, pending stores in a
 * program-ordered log replayed byte by byte on every read.
 */
struct NaiveSpecMem
{
    struct Entry
    {
        SeqNum seq;
        CheckpointId ckpt;
        Addr addr;
        unsigned size;
        std::uint64_t data;
    };
    std::map<Addr, std::uint8_t> committed;
    std::deque<Entry> log;

    std::uint64_t
    read(Addr addr, unsigned size) const
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < size; ++i) {
            std::uint8_t b = 0;
            if (const auto it = committed.find(addr + i);
                it != committed.end())
                b = it->second;
            for (const Entry &e : log)
                if (addr + i >= e.addr && addr + i < e.addr + e.size)
                    b = static_cast<std::uint8_t>(
                        e.data >> (8 * (addr + i - e.addr)));
            v |= static_cast<std::uint64_t>(b) << (8 * i);
        }
        return v;
    }

    void
    commit(CheckpointId ckpt)
    {
        while (!log.empty() && log.front().ckpt == ckpt) {
            const Entry &e = log.front();
            for (unsigned i = 0; i < e.size; ++i)
                committed[e.addr + i] =
                    static_cast<std::uint8_t>(e.data >> (8 * i));
            log.pop_front();
        }
    }

    void
    rollback(SeqNum first)
    {
        while (!log.empty() && log.back().seq >= first)
            log.pop_back();
    }
};

TEST(SpecMem, MatchesNaiveByteMapUnderRandomInterleavings)
{
    // Addresses cluster around a page boundary so both the word-wise
    // same-page path and the per-byte straddling path run, and spans
    // overlap heavily so writer counts of 0, 1 and more sit in
    // adjacent lanes.
    static constexpr unsigned kSizes[] = {1, 2, 4, 8};
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        Random rng(seed);
        memsys::MainMemory mem;
        SpeculativeMemory sm(mem);
        NaiveSpecMem ref;
        SeqNum seq = 1;
        CheckpointId oldest = 0, youngest = 0;
        const auto addr = [&] { return 0x1ff0 + rng.below(40); };
        for (int op = 0; op < 4000; ++op) {
            const std::uint64_t r = rng.below(100);
            if (r < 55) {
                if (rng.below(5) == 0)
                    ++youngest; // a new checkpoint opens
                const Addr a = addr();
                const unsigned size = kSizes[rng.below(4)];
                const std::uint64_t data = rng.next64();
                sm.write(seq, youngest, a, size, data);
                ref.log.push_back({seq, youngest, a, size, data});
                seq += 1 + rng.below(3);
            } else if (r < 70) {
                sm.commitCheckpoint(oldest);
                ref.commit(oldest);
                if (oldest != youngest)
                    ++oldest;
            } else if (r < 75 && !ref.log.empty()) {
                const std::size_t keep = rng.below(ref.log.size());
                const SeqNum first = ref.log[keep].seq;
                sm.rollback(first);
                ref.rollback(first);
                youngest = ref.log.empty() ? oldest : ref.log.back().ckpt;
            } else {
                const Addr a = addr();
                const unsigned size = kSizes[rng.below(4)];
                ASSERT_EQ(sm.read(a, size), ref.read(a, size))
                    << "op " << op << " read " << a << "/" << size;
            }
            ASSERT_EQ(sm.pendingStores(), ref.log.size());
        }
        for (Addr a = 0x1ff0; a < 0x2020; ++a)
            ASSERT_EQ(sm.read(a, 1), ref.read(a, 1)) << a;
    }
}

TEST(SpecMemDeathTest, OutOfOrderDrainPanics)
{
    memsys::MainMemory mem;
    SpeculativeMemory sm(mem);
    sm.write(10, 0, 0x100, 8, 0x1);
    EXPECT_DEATH(sm.write(9, 0, 0x108, 8, 0x2), "program order");
}

} // namespace
