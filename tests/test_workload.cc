/**
 * @file
 * Unit tests for the synthetic workload layer: uop model helpers,
 * generator determinism, stream/profile structure (mixes, regions,
 * forwarding pairs, bursts), the sequence stream, and the in-order
 * reference executor.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/simulator.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace
{

using namespace srl;
using namespace srl::workload;

std::vector<isa::Uop>
generate(const SuiteProfile &p, std::uint64_t n)
{
    Generator g(p, n);
    std::vector<isa::Uop> out;
    isa::Uop u;
    while (g.next(u))
        out.push_back(u);
    return out;
}

TEST(Uop, ClassPredicatesAndNames)
{
    using isa::UopClass;
    EXPECT_TRUE(isa::isMemory(UopClass::kLoad));
    EXPECT_TRUE(isa::isMemory(UopClass::kStore));
    EXPECT_FALSE(isa::isMemory(UopClass::kBranch));
    EXPECT_TRUE(isa::isFloat(UopClass::kFpMul));
    EXPECT_FALSE(isa::isFloat(UopClass::kIntMul));
    EXPECT_STREQ(isa::uopClassName(UopClass::kLoad), "load");
    EXPECT_EQ(isa::executeLatency(UopClass::kIntAlu), 1u);
    EXPECT_GT(isa::executeLatency(UopClass::kFpMul),
              isa::executeLatency(UopClass::kFpAlu));
}

TEST(Profiles, AllSevenSuitesPresent)
{
    const auto suites = suiteProfiles();
    ASSERT_EQ(suites.size(), 7u);
    const char *expected[] = {"SFP2K", "SINT2K", "WEB", "MM",
                              "PROD",  "SERVER", "WS"};
    for (std::size_t i = 0; i < 7; ++i)
        EXPECT_EQ(suites[i].name, expected[i]);
    EXPECT_EQ(suiteProfile("SERVER").name, "SERVER");
}

TEST(Profiles, UnknownSuiteIsFatal)
{
    EXPECT_EXIT(suiteProfile("NOPE"), ::testing::ExitedWithCode(1),
                "unknown workload suite");
}

TEST(Generator, DeterministicForSameSeed)
{
    const auto p = suiteProfile("SINT2K");
    const auto a = generate(p, 5000);
    const auto b = generate(p, 5000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].cls, b[i].cls);
        ASSERT_EQ(a[i].effAddr, b[i].effAddr);
        ASSERT_EQ(a[i].storeData, b[i].storeData);
        ASSERT_EQ(a[i].taken, b[i].taken);
    }
}

TEST(Generator, SeedOverrideChangesStream)
{
    const auto p = suiteProfile("SINT2K");
    Generator g1(p, 2000), g2(p, 2000, 999);
    isa::Uop a, b;
    unsigned diff = 0;
    while (g1.next(a) && g2.next(b))
        diff += a.effAddr != b.effAddr || a.cls != b.cls;
    EXPECT_GT(diff, 100u);
}

TEST(Generator, SequentialSeqNumbers)
{
    const auto uops = generate(suiteProfile("WEB"), 3000);
    for (std::size_t i = 0; i < uops.size(); ++i)
        ASSERT_EQ(uops[i].seq, i);
}

TEST(Generator, MixRoughlyMatchesProfile)
{
    const auto p = suiteProfile("SFP2K");
    const auto uops = generate(p, 50000);
    double loads = 0, stores = 0, branches = 0;
    for (const auto &u : uops) {
        loads += u.isLoad();
        stores += u.isStore();
        branches += u.isBranch();
    }
    EXPECT_NEAR(loads / uops.size(), p.load_frac, 0.03);
    EXPECT_NEAR(stores / uops.size(), p.store_frac, 0.03);
    EXPECT_NEAR(branches / uops.size(), p.branch_frac, 0.03);
}

TEST(Generator, MemoryAccessesNaturallyAligned)
{
    const auto uops = generate(suiteProfile("MM"), 20000);
    for (const auto &u : uops) {
        if (isa::isMemory(u.cls)) {
            ASSERT_TRUE(u.memSize == 1 || u.memSize == 2 ||
                        u.memSize == 4 || u.memSize == 8);
            ASSERT_EQ(u.effAddr % u.memSize, 0u);
            // Never crosses an 8-byte word.
            ASSERT_EQ(u.effAddr / 8, (u.effAddr + u.memSize - 1) / 8);
        }
    }
}

TEST(Generator, AddressesStayInDeclaredRegions)
{
    const auto uops = generate(suiteProfile("SERVER"), 30000);
    for (const auto &u : uops) {
        if (!isa::isMemory(u.cls))
            continue;
        const Addr hi = u.effAddr >> 28;
        ASSERT_TRUE(hi == 0x1 || hi == 0x2 || (hi >= 0x4 && hi <= 0x8))
            << std::hex << u.effAddr;
    }
}

TEST(Generator, ForwardingPairsExist)
{
    // Some loads must re-read a recent store's exact address and size.
    const auto uops = generate(suiteProfile("WEB"), 30000);
    std::map<Addr, std::uint8_t> last_store;
    unsigned pairs = 0;
    for (const auto &u : uops) {
        if (u.isStore())
            last_store[u.effAddr] = u.memSize;
        else if (u.isLoad()) {
            const auto it = last_store.find(u.effAddr);
            pairs += it != last_store.end() &&
                     it->second == u.memSize;
        }
    }
    EXPECT_GT(pairs, 500u);
}

TEST(Generator, ColdMissesAreBursty)
{
    const auto uops = generate(suiteProfile("SFP2K"), 120000);
    std::vector<std::uint64_t> cold_seqs;
    for (const auto &u : uops) {
        if (u.isLoad() && (u.effAddr >> 28) >= 4 && (u.effAddr >> 28) < 8)
            cold_seqs.push_back(u.seq);
    }
    ASSERT_GT(cold_seqs.size(), 20u);
    // Bursty = many small gaps and a few huge gaps: compare the median
    // gap to the mean gap.
    std::vector<std::uint64_t> gaps;
    for (std::size_t i = 1; i < cold_seqs.size(); ++i)
        gaps.push_back(cold_seqs[i] - cold_seqs[i - 1]);
    std::sort(gaps.begin(), gaps.end());
    const double mean =
        static_cast<double>(cold_seqs.back() - cold_seqs.front()) /
        gaps.size();
    const double median = gaps[gaps.size() / 2];
    EXPECT_LT(median, mean / 2);
}

TEST(SequenceStreamTest, ReplaysVectorOnce)
{
    std::vector<isa::Uop> v(3);
    v[0].seq = 0;
    v[1].seq = 1;
    v[2].seq = 2;
    SequenceStream s(v);
    isa::Uop u;
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(s.next(u));
        EXPECT_EQ(u.seq, static_cast<SeqNum>(i));
    }
    EXPECT_FALSE(s.next(u));
}

TEST(Reference, ExecutesInOrder)
{
    std::vector<isa::Uop> v;
    isa::Uop st;
    st.seq = 0;
    st.cls = isa::UopClass::kStore;
    st.effAddr = 0x100;
    st.memSize = 8;
    st.storeData = 0x42;
    v.push_back(st);
    isa::Uop ld;
    ld.seq = 1;
    ld.cls = isa::UopClass::kLoad;
    ld.effAddr = 0x100;
    ld.memSize = 8;
    v.push_back(ld);

    SequenceStream s(std::move(v));
    core::ReferenceExecutor ref;
    ref.run(s);
    EXPECT_EQ(ref.uops(), 2u);
    EXPECT_TRUE(ref.hasLoad(1));
    EXPECT_FALSE(ref.hasLoad(0));
    EXPECT_EQ(ref.loadValue(1), 0x42u);
    EXPECT_EQ(ref.mem().read(0x100, 8), 0x42u);
}

} // namespace
