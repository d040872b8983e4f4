/**
 * @file
 * Tests for the sweep service stack: canonical content hashing
 * (common/chash), the protocol JSON codec, PointSpec materialization,
 * the disk result cache (cold/warm/corrupt/coalesced/evicting), the
 * cached sweep runner's byte-identity with the direct runner, the
 * admission-controlled SweepService, the socket server/client loop,
 * and robustness of the srlsim-stats-v1 parser against truncated and
 * corrupted input.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include "common/chash.hh"
#include "common/json.hh"
#include "core/config.hh"
#include "runner/sweep.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/result_cache.hh"
#include "service/server.hh"
#include "service/service.hh"
#include "workload/profile.hh"

namespace
{

using namespace srl;

// Small enough that a simulation takes milliseconds; the byte-identity
// assertions don't care how long the runs are.
constexpr std::uint64_t kTinyUops = 2000;

/** Self-cleaning temp directory. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/srlsim-test-XXXXXX";
        EXPECT_NE(mkdtemp(tmpl), nullptr);
        path = tmpl;
    }

    ~TempDir()
    {
        if (DIR *d = opendir(path.c_str())) {
            while (const dirent *e = readdir(d)) {
                const std::string n = e->d_name;
                if (n != "." && n != "..")
                    std::remove((path + "/" + n).c_str());
            }
            closedir(d);
        }
        rmdir(path.c_str());
    }

    std::size_t
    fileCount() const
    {
        std::size_t count = 0;
        if (DIR *d = opendir(path.c_str())) {
            while (const dirent *e = readdir(d)) {
                const std::string n = e->d_name;
                if (n != "." && n != "..")
                    ++count;
            }
            closedir(d);
        }
        return count;
    }
};

stats::RunRecord
syntheticRecord(const std::string &name, double value)
{
    stats::RunRecord r;
    r.name = name;
    r.meta["config"] = "synthetic";
    r.set("value", value);
    r.set("cycles", 123);
    return r;
}

workload::SuiteProfile
testSuite()
{
    return workload::suiteProfiles().front();
}

// --------------------------------------------------------------- chash

TEST(CanonicalHash, HexIs32LowercaseChars)
{
    const chash::Hash128 h =
        chash::hashString("the quick brown fox");
    const std::string hex = h.toHex();
    ASSERT_EQ(hex.size(), 32u);
    for (const char c : hex)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << hex;
}

TEST(CanonicalHash, DistinguishesContentAndLength)
{
    const std::vector<std::string> inputs = {
        std::string(),         std::string(1, '\0'),
        std::string(2, '\0'),  std::string("a"),
        std::string("b"),      std::string("ab"),
        std::string("ba"),     std::string("abcdefgh"),
        std::string("abcdefghi")};
    std::set<std::string> seen;
    for (const auto &s : inputs)
        seen.insert(chash::hashString(s).toHex());
    EXPECT_EQ(seen.size(), inputs.size());
}

TEST(CanonicalHash, SerializationIsByteStable)
{
    const core::ProcessorConfig cfg = core::srlConfig();
    EXPECT_EQ(chash::serializeConfig(cfg), chash::serializeConfig(cfg));
    const workload::SuiteProfile suite = testSuite();
    EXPECT_EQ(chash::serializeSuite(suite),
              chash::serializeSuite(suite));
    EXPECT_EQ(chash::pointKey(cfg, suite, 1000, 7).toHex(),
              chash::pointKey(cfg, suite, 1000, 7).toHex());
}

using ConfigMutator = void (*)(core::ProcessorConfig &);

/**
 * One mutator per canonically serialized config field. The exhaustive
 * perturbation test below proves every one of them flips the content
 * key — i.e. the canonical serialization covers the whole config.
 */
const std::vector<std::pair<const char *, ConfigMutator>> &
configMutators()
{
    static const std::vector<std::pair<const char *, ConfigMutator>>
        mutators = {
            {"name", [](core::ProcessorConfig &c) { c.name += "x"; }},
            {"alloc_width",
             [](core::ProcessorConfig &c) { ++c.alloc_width; }},
            {"issue_width",
             [](core::ProcessorConfig &c) { ++c.issue_width; }},
            {"branch_mispredict_penalty",
             [](core::ProcessorConfig &c) {
                 ++c.branch_mispredict_penalty;
             }},
            {"sched_int",
             [](core::ProcessorConfig &c) { ++c.sched_int; }},
            {"sched_fp",
             [](core::ProcessorConfig &c) { ++c.sched_fp; }},
            {"sched_mem",
             [](core::ProcessorConfig &c) { ++c.sched_mem; }},
            {"regs_int",
             [](core::ProcessorConfig &c) { ++c.regs_int; }},
            {"regs_fp", [](core::ProcessorConfig &c) { ++c.regs_fp; }},
            {"fu_int_alu",
             [](core::ProcessorConfig &c) { ++c.fu_int_alu; }},
            {"fu_int_mul",
             [](core::ProcessorConfig &c) { ++c.fu_int_mul; }},
            {"fu_fp", [](core::ProcessorConfig &c) { ++c.fu_fp; }},
            {"load_ports",
             [](core::ProcessorConfig &c) { ++c.load_ports; }},
            {"store_ports",
             [](core::ProcessorConfig &c) { ++c.store_ports; }},
            {"checkpoints.num_checkpoints",
             [](core::ProcessorConfig &c) {
                 ++c.checkpoints.num_checkpoints;
             }},
            {"checkpoints.max_interval",
             [](core::ProcessorConfig &c) {
                 ++c.checkpoints.max_interval;
             }},
            {"checkpoints.branch_interval",
             [](core::ProcessorConfig &c) {
                 ++c.checkpoints.branch_interval;
             }},
            {"sdb.capacity",
             [](core::ProcessorConfig &c) { ++c.sdb.capacity; }},
            {"model",
             [](core::ProcessorConfig &c) {
                 c.model = c.model == core::StqModel::kSrl
                               ? core::StqModel::kMonolithic
                               : core::StqModel::kSrl;
             }},
            {"stq.name",
             [](core::ProcessorConfig &c) { c.stq.name += "x"; }},
            {"stq.capacity",
             [](core::ProcessorConfig &c) { ++c.stq.capacity; }},
            {"stq.forward_latency",
             [](core::ProcessorConfig &c) { ++c.stq.forward_latency; }},
            {"l2_stq.name",
             [](core::ProcessorConfig &c) { c.l2_stq.name += "x"; }},
            {"l2_stq.capacity",
             [](core::ProcessorConfig &c) { ++c.l2_stq.capacity; }},
            {"l2_stq.forward_latency",
             [](core::ProcessorConfig &c) {
                 ++c.l2_stq.forward_latency;
             }},
            {"mtb_entries",
             [](core::ProcessorConfig &c) { ++c.mtb_entries; }},
            {"srl.srl.capacity",
             [](core::ProcessorConfig &c) { ++c.srl.srl.capacity; }},
            {"srl.use_lcf",
             [](core::ProcessorConfig &c) {
                 c.srl.use_lcf = !c.srl.use_lcf;
             }},
            {"srl.lcf.entries",
             [](core::ProcessorConfig &c) { ++c.srl.lcf.entries; }},
            {"srl.lcf.counter_bits",
             [](core::ProcessorConfig &c) {
                 ++c.srl.lcf.counter_bits;
             }},
            {"srl.lcf.hash",
             [](core::ProcessorConfig &c) {
                 c.srl.lcf.hash =
                     c.srl.lcf.hash == lsq::HashScheme::kThreePieceXor
                         ? lsq::HashScheme::kLowerAddressBits
                         : lsq::HashScheme::kThreePieceXor;
             }},
            {"srl.indexed_forwarding",
             [](core::ProcessorConfig &c) {
                 c.srl.indexed_forwarding = !c.srl.indexed_forwarding;
             }},
            {"srl.use_fwd_cache",
             [](core::ProcessorConfig &c) {
                 c.srl.use_fwd_cache = !c.srl.use_fwd_cache;
             }},
            {"srl.drain_only_in_redo",
             [](core::ProcessorConfig &c) {
                 c.srl.drain_only_in_redo = !c.srl.drain_only_in_redo;
             }},
            {"srl.fwd_cache.entries",
             [](core::ProcessorConfig &c) {
                 ++c.srl.fwd_cache.entries;
             }},
            {"srl.fwd_cache.assoc",
             [](core::ProcessorConfig &c) { ++c.srl.fwd_cache.assoc; }},
            {"load_queue.capacity",
             [](core::ProcessorConfig &c) { ++c.load_queue.capacity; }},
            {"load_buffer.entries",
             [](core::ProcessorConfig &c) { ++c.load_buffer.entries; }},
            {"load_buffer.assoc",
             [](core::ProcessorConfig &c) { ++c.load_buffer.assoc; }},
            {"load_buffer.overflow",
             [](core::ProcessorConfig &c) {
                 c.load_buffer.overflow =
                     c.load_buffer.overflow ==
                             lsq::OverflowPolicy::kVictimBuffer
                         ? lsq::OverflowPolicy::kViolate
                         : lsq::OverflowPolicy::kVictimBuffer;
             }},
            {"load_buffer.victim_entries",
             [](core::ProcessorConfig &c) {
                 ++c.load_buffer.victim_entries;
             }},
            {"store_sets.ssit_entries",
             [](core::ProcessorConfig &c) {
                 ++c.store_sets.ssit_entries;
             }},
            {"store_sets.lfst_entries",
             [](core::ProcessorConfig &c) {
                 ++c.store_sets.lfst_entries;
             }},
            {"store_sets.clear_interval",
             [](core::ProcessorConfig &c) {
                 ++c.store_sets.clear_interval;
             }},
            {"memory.l1.name",
             [](core::ProcessorConfig &c) { c.memory.l1.name += "x"; }},
            {"memory.l1.size_bytes",
             [](core::ProcessorConfig &c) {
                 c.memory.l1.size_bytes *= 2;
             }},
            {"memory.l1.assoc",
             [](core::ProcessorConfig &c) { ++c.memory.l1.assoc; }},
            {"memory.l1.line_bytes",
             [](core::ProcessorConfig &c) {
                 c.memory.l1.line_bytes *= 2;
             }},
            {"memory.l1.hit_latency",
             [](core::ProcessorConfig &c) {
                 ++c.memory.l1.hit_latency;
             }},
            {"memory.l2.name",
             [](core::ProcessorConfig &c) { c.memory.l2.name += "x"; }},
            {"memory.l2.size_bytes",
             [](core::ProcessorConfig &c) {
                 c.memory.l2.size_bytes *= 2;
             }},
            {"memory.l2.assoc",
             [](core::ProcessorConfig &c) { ++c.memory.l2.assoc; }},
            {"memory.l2.line_bytes",
             [](core::ProcessorConfig &c) {
                 c.memory.l2.line_bytes *= 2;
             }},
            {"memory.l2.hit_latency",
             [](core::ProcessorConfig &c) {
                 ++c.memory.l2.hit_latency;
             }},
            {"memory.memory_latency",
             [](core::ProcessorConfig &c) {
                 ++c.memory.memory_latency;
             }},
            {"memory.num_mshrs",
             [](core::ProcessorConfig &c) { ++c.memory.num_mshrs; }},
            {"memory.enable_prefetch",
             [](core::ProcessorConfig &c) {
                 c.memory.enable_prefetch = !c.memory.enable_prefetch;
             }},
            {"memory.prefetch.num_streams",
             [](core::ProcessorConfig &c) {
                 ++c.memory.prefetch.num_streams;
             }},
            {"memory.prefetch.line_bytes",
             [](core::ProcessorConfig &c) {
                 c.memory.prefetch.line_bytes *= 2;
             }},
            {"memory.prefetch.train_threshold",
             [](core::ProcessorConfig &c) {
                 ++c.memory.prefetch.train_threshold;
             }},
            {"memory.prefetch.degree",
             [](core::ProcessorConfig &c) {
                 ++c.memory.prefetch.degree;
             }},
            {"memory.prefetch.match_slack",
             [](core::ProcessorConfig &c) {
                 ++c.memory.prefetch.match_slack;
             }},
            {"snoop_rate",
             [](core::ProcessorConfig &c) { c.snoop_rate += 0.125; }},
            {"snoop_seed",
             [](core::ProcessorConfig &c) { ++c.snoop_seed; }},
            {"watchdog_cycles",
             [](core::ProcessorConfig &c) { ++c.watchdog_cycles; }},
        };
    return mutators;
}

TEST(CanonicalHash, EveryConfigFieldPerturbationFlipsKey)
{
    const workload::SuiteProfile suite = testSuite();
    const std::string base_key =
        chash::pointKey(core::srlConfig(), suite, 1000, 7).toHex();

    std::set<std::string> keys{base_key};
    for (const auto &[field, mutate] : configMutators()) {
        core::ProcessorConfig cfg = core::srlConfig();
        mutate(cfg);
        const std::string key =
            chash::pointKey(cfg, suite, 1000, 7).toHex();
        EXPECT_NE(key, base_key) << "perturbing config field '" << field
                                 << "' did not change the key";
        EXPECT_TRUE(keys.insert(key).second)
            << "config field '" << field
            << "' collided with another perturbation";
    }
}

using SuiteMutator = void (*)(workload::SuiteProfile &);

const std::vector<std::pair<const char *, SuiteMutator>> &
suiteMutators()
{
    static const std::vector<std::pair<const char *, SuiteMutator>>
        mutators = {
            {"name", [](workload::SuiteProfile &s) { s.name += "x"; }},
            {"load_frac",
             [](workload::SuiteProfile &s) { s.load_frac += 0.01; }},
            {"store_frac",
             [](workload::SuiteProfile &s) { s.store_frac += 0.01; }},
            {"branch_frac",
             [](workload::SuiteProfile &s) { s.branch_frac += 0.01; }},
            {"fp_frac",
             [](workload::SuiteProfile &s) { s.fp_frac += 0.01; }},
            {"mul_frac",
             [](workload::SuiteProfile &s) { s.mul_frac += 0.01; }},
            {"hot_lines",
             [](workload::SuiteProfile &s) { ++s.hot_lines; }},
            {"warm_lines",
             [](workload::SuiteProfile &s) { ++s.warm_lines; }},
            {"cold_lines",
             [](workload::SuiteProfile &s) { ++s.cold_lines; }},
            {"warm_frac",
             [](workload::SuiteProfile &s) { s.warm_frac += 0.01; }},
            {"cold_frac",
             [](workload::SuiteProfile &s) { s.cold_frac += 0.01; }},
            {"background_cold_frac",
             [](workload::SuiteProfile &s) {
                 s.background_cold_frac += 0.01;
             }},
            {"burst_period_uops",
             [](workload::SuiteProfile &s) { ++s.burst_period_uops; }},
            {"burst_len_uops",
             [](workload::SuiteProfile &s) { ++s.burst_len_uops; }},
            {"stream_frac",
             [](workload::SuiteProfile &s) { s.stream_frac += 0.01; }},
            {"stream_wrap_lines",
             [](workload::SuiteProfile &s) { ++s.stream_wrap_lines; }},
            {"chain_frac",
             [](workload::SuiteProfile &s) { s.chain_frac += 0.01; }},
            {"leaf_frac",
             [](workload::SuiteProfile &s) { s.leaf_frac += 0.01; }},
            {"num_strands",
             [](workload::SuiteProfile &s) { ++s.num_strands; }},
            {"strand_restart",
             [](workload::SuiteProfile &s) {
                 s.strand_restart += 0.01;
             }},
            {"store_chain_frac",
             [](workload::SuiteProfile &s) {
                 s.store_chain_frac += 0.01;
             }},
            {"store_leaf_frac",
             [](workload::SuiteProfile &s) {
                 s.store_leaf_frac += 0.01;
             }},
            {"pointer_chase_frac",
             [](workload::SuiteProfile &s) {
                 s.pointer_chase_frac += 0.01;
             }},
            {"fwd_pair_frac",
             [](workload::SuiteProfile &s) {
                 s.fwd_pair_frac += 0.01;
             }},
            {"fwd_distance",
             [](workload::SuiteProfile &s) { ++s.fwd_distance; }},
            {"hard_branch_frac",
             [](workload::SuiteProfile &s) {
                 s.hard_branch_frac += 0.01;
             }},
            {"easy_branch_bias",
             [](workload::SuiteProfile &s) {
                 s.easy_branch_bias += 0.01;
             }},
            {"static_uops",
             [](workload::SuiteProfile &s) { ++s.static_uops; }},
            {"seed", [](workload::SuiteProfile &s) { ++s.seed; }},
        };
    return mutators;
}

TEST(CanonicalHash, EverySuiteFieldPerturbationFlipsKey)
{
    const core::ProcessorConfig cfg = core::srlConfig();
    const std::string base_key =
        chash::pointKey(cfg, testSuite(), 1000, 7).toHex();

    std::set<std::string> keys{base_key};
    for (const auto &[field, mutate] : suiteMutators()) {
        workload::SuiteProfile suite = testSuite();
        mutate(suite);
        const std::string key =
            chash::pointKey(cfg, suite, 1000, 7).toHex();
        EXPECT_NE(key, base_key) << "perturbing suite field '" << field
                                 << "' did not change the key";
        EXPECT_TRUE(keys.insert(key).second)
            << "suite field '" << field
            << "' collided with another perturbation";
    }
}

TEST(CanonicalHash, PointParametersFlipKey)
{
    const core::ProcessorConfig cfg = core::srlConfig();
    const workload::SuiteProfile suite = testSuite();
    const auto base = chash::pointKey(cfg, suite, 1000, 7, true);
    EXPECT_NE(chash::pointKey(cfg, suite, 1001, 7, true), base);
    EXPECT_NE(chash::pointKey(cfg, suite, 1000, 8, true), base);
    EXPECT_NE(chash::pointKey(cfg, suite, 1000, 0, true), base);
    EXPECT_NE(chash::pointKey(cfg, suite, 1000, 7, false), base);
}

TEST(CanonicalHash, SamplingPlanFlipsKeyButZeroPlanPreservesIt)
{
    const core::ProcessorConfig cfg = core::srlConfig();
    const workload::SuiteProfile suite = testSuite();
    const auto plain = chash::pointKey(cfg, suite, 1000, 7, true);
    // An all-zero plan is exactly the plain key: pre-sampling cache
    // entries keep their addresses.
    EXPECT_EQ(chash::pointKey(cfg, suite, 1000, 7, true, 0, 0, 0, 0, 0),
              plain);
    // Every plan/shard field is part of the address.
    const auto sampled =
        chash::pointKey(cfg, suite, 1000, 7, true, 400, 100, 100, 0, 0);
    EXPECT_NE(sampled, plain);
    EXPECT_NE(chash::pointKey(cfg, suite, 1000, 7, true, 401, 100, 100,
                              0, 0),
              sampled);
    EXPECT_NE(chash::pointKey(cfg, suite, 1000, 7, true, 400, 101, 100,
                              0, 0),
              sampled);
    EXPECT_NE(chash::pointKey(cfg, suite, 1000, 7, true, 400, 100, 101,
                              0, 0),
              sampled);
    EXPECT_NE(chash::pointKey(cfg, suite, 1000, 7, true, 400, 100, 100,
                              1, 0),
              sampled);
    EXPECT_NE(chash::pointKey(cfg, suite, 1000, 7, true, 400, 100, 100,
                              0, 1),
              sampled);
}

TEST(CanonicalHash, ExecutionStrategyFlagsDoNotFlipKey)
{
    // skip_ahead and issue_scan are exact-equivalence execution
    // strategies (pinned by test_skip_ahead / test_ready_queue); they
    // must share cache entries with their counterparts.
    const workload::SuiteProfile suite = testSuite();
    core::ProcessorConfig cfg = core::srlConfig();
    const auto base = chash::pointKey(cfg, suite, 1000, 7);
    cfg.skip_ahead = !cfg.skip_ahead;
    EXPECT_EQ(chash::pointKey(cfg, suite, 1000, 7), base);
    cfg.issue_scan = !cfg.issue_scan;
    EXPECT_EQ(chash::pointKey(cfg, suite, 1000, 7), base);
}

// ---------------------------------------------------------------- json

TEST(ServiceJson, DumpParseDumpIsByteStable)
{
    json::Value v = json::Value::object();
    v.set("s", json::Value::str("with \"quotes\", \\slash\\ and \n"));
    v.set("n", json::Value::number(1.5));
    v.set("big", json::Value::number(1e20));
    v.set("neg", json::Value::number(-0.25));
    v.set("t", json::Value::boolean(true));
    v.set("z", json::Value::null());
    json::Value arr = json::Value::array();
    arr.push(json::Value::number(1));
    arr.push(json::Value::str("two"));
    json::Value inner = json::Value::object();
    inner.set("k", json::Value::str("v"));
    arr.push(std::move(inner));
    v.set("arr", std::move(arr));

    const std::string once = v.dump();
    const std::string twice = json::Value::parse(once).dump();
    EXPECT_EQ(once, twice);
}

TEST(ServiceJson, PreservesMemberOrder)
{
    const std::string text = "{\"z\":1,\"a\":2,\"m\":3}";
    EXPECT_EQ(json::Value::parse(text).dump(), text);
}

TEST(ServiceJson, EveryTruncationThrows)
{
    json::Value v = json::Value::object();
    v.set("key", json::Value::str("value with \\ and \" escapes"));
    v.set("num", json::Value::number(-12.5));
    json::Value arr = json::Value::array();
    arr.push(json::Value::boolean(false));
    arr.push(json::Value::null());
    v.set("arr", std::move(arr));
    const std::string line = v.dump();

    for (std::size_t len = 0; len < line.size(); ++len) {
        EXPECT_THROW(json::Value::parse(line.substr(0, len)),
                     json::ParseError)
            << "prefix of length " << len << " parsed";
    }
}

TEST(ServiceJson, RejectsMalformedInput)
{
    EXPECT_THROW(json::Value::parse("{\"a\":1} trailing"),
                 json::ParseError);
    EXPECT_THROW(json::Value::parse("{\"a\" 1}"), json::ParseError);
    EXPECT_THROW(json::Value::parse("{'a':1}"), json::ParseError);
    EXPECT_THROW(json::Value::parse("[1,]"), json::ParseError);
    EXPECT_THROW(json::Value::parse("{\"a\":01}"), json::ParseError);
    EXPECT_THROW(json::Value::parse("\"bad \\q escape\""),
                 json::ParseError);
    EXPECT_THROW(json::Value::parse("\"bad \\u00ZZ escape\""),
                 json::ParseError);
    EXPECT_THROW(json::Value::parse(std::string("\"raw\x01nul\"")),
                 json::ParseError);
    EXPECT_THROW(json::Value::parse("nul"), json::ParseError);
    EXPECT_THROW(json::Value::parse(""), json::ParseError);

    // Over-deep nesting must be rejected, not overflow the stack.
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += "[";
    EXPECT_THROW(json::Value::parse(deep), json::ParseError);
}

TEST(ServiceJson, BmpEscapesDecodeToUtf8)
{
    EXPECT_EQ(json::Value::parse("\"caf\\u00e9 \\u4e2d\"").asString(),
              "\x63\x61\x66\xc3\xa9\x20\xe4\xb8\xad");
    EXPECT_EQ(json::Value::parse("\"\\u0041\\u0001\"").asString(),
              "A\x01");
}

TEST(ServiceJson, SurrogatePairDecodesToOneUtf8Sequence)
{
    EXPECT_EQ(json::Value::parse("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(ServiceJson, LoneOrReversedSurrogatesThrow)
{
    EXPECT_THROW(json::Value::parse("\"\\ud83d\""), json::ParseError);
    EXPECT_THROW(json::Value::parse("\"\\ud83dx\""), json::ParseError);
    EXPECT_THROW(json::Value::parse("\"\\ud83d\\u0041\""),
                 json::ParseError);
    EXPECT_THROW(json::Value::parse("\"\\ude00\""), json::ParseError);
    EXPECT_THROW(json::Value::parse("\"\\ude00\\ud83d\""),
                 json::ParseError);
    EXPECT_THROW(json::Value::parse("\"\\ud83d\\ude0\""),
                 json::ParseError);
}

TEST(ServiceJson, TypedAccessorsThrowOnKindMismatch)
{
    const json::Value v = json::Value::parse("{\"a\":1}");
    EXPECT_THROW(v.at("a").asString(), json::ParseError);
    EXPECT_THROW(v.at("missing"), json::ParseError);
    EXPECT_THROW(v.asNumber(), json::ParseError);
    EXPECT_EQ(v.at("a").asU64(), 1u);
    EXPECT_EQ(v.getU64("absent", 9), 9u);
}

// ------------------------------------------------------------ protocol

TEST(ServiceProtocol, PointSpecJsonRoundTrip)
{
    service::PointSpec spec;
    spec.name = "lcf-256-lab";
    spec.base = "srl";
    spec.suite = "SINT2K";
    spec.uops = 123456;
    spec.run_seed = 9129838320742759465ULL; // needs > 53 bits
    spec.occupancy_series = false;
    spec.srl_depth = 512;
    spec.lcf_entries = 256;
    spec.lcf_hash = "lab";
    spec.ff_uops = 880000;
    spec.warm_uops = 20000;
    spec.detail_uops = 100000;
    spec.shard_start = 3;
    spec.shard_count = 2;

    const std::string wire = spec.toJson().dump();
    const service::PointSpec back =
        service::PointSpec::fromJson(json::Value::parse(wire));
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.base, spec.base);
    EXPECT_EQ(back.suite, spec.suite);
    EXPECT_EQ(back.uops, spec.uops);
    EXPECT_EQ(back.run_seed, spec.run_seed);
    EXPECT_EQ(back.occupancy_series, spec.occupancy_series);
    EXPECT_EQ(back.srl_depth, spec.srl_depth);
    EXPECT_EQ(back.lcf_entries, spec.lcf_entries);
    EXPECT_EQ(back.lcf_hash, spec.lcf_hash);
    EXPECT_EQ(back.stq_entries, spec.stq_entries);
    EXPECT_EQ(back.ff_uops, spec.ff_uops);
    EXPECT_EQ(back.warm_uops, spec.warm_uops);
    EXPECT_EQ(back.detail_uops, spec.detail_uops);
    EXPECT_EQ(back.shard_start, spec.shard_start);
    EXPECT_EQ(back.shard_count, spec.shard_count);
    EXPECT_TRUE(back.sampled());

    // A plan-less spec's wire form carries no sampling keys at all
    // (old servers must keep parsing new clients' plain points).
    service::PointSpec plain;
    plain.name = "plain";
    plain.uops = 1000;
    const std::string plain_wire = plain.toJson().dump();
    EXPECT_EQ(plain_wire.find("ff_uops"), std::string::npos);
    EXPECT_EQ(plain_wire.find("shard"), std::string::npos);
    EXPECT_FALSE(plain.sampled());
}

/** PointSpec::fromJson on a point with @p extra fields. */
service::PointSpec
pointFrom(const std::string &extra)
{
    return service::PointSpec::fromJson(
        json::Value::parse("{\"name\":\"p\"," + extra + "}"));
}

TEST(ServiceProtocol, CountBeyondUint64Throws)
{
    EXPECT_THROW(pointFrom("\"uops\":1e999"), stats::ParseError);
    EXPECT_THROW(pointFrom("\"uops\":18446744073709551616"),
                 stats::ParseError);
    EXPECT_EQ(pointFrom("\"uops\":9007199254740992").uops,
              9007199254740992u);
}

TEST(ServiceProtocol, FractionalCountThrows)
{
    EXPECT_THROW(pointFrom("\"uops\":2.5"), stats::ParseError);
    EXPECT_THROW(pointFrom("\"uops\":1000,\"ff_uops\":0.5"),
                 stats::ParseError);
    EXPECT_THROW(pointFrom("\"uops\":-1"), stats::ParseError);
    EXPECT_EQ(pointFrom("\"uops\":2.5e3").uops, 2500u);
}

TEST(ServiceProtocol, NarrowedFieldsRejectValuesAboveUint32)
{
    for (const char *key : {"srl_depth", "lcf_entries", "stq_entries"}) {
        const std::string field = std::string("\"") + key + "\":";
        EXPECT_THROW(pointFrom("\"uops\":1," + field + "4294967297"),
                     stats::ParseError)
            << key;
        EXPECT_NO_THROW(pointFrom("\"uops\":1," + field + "4294967295"))
            << key;
    }
    EXPECT_EQ(pointFrom("\"uops\":1,\"srl_depth\":4294967295").srl_depth,
              4294967295u);
}

TEST(ServiceProtocol, StringRunSeedMustBeADecimalU64)
{
    EXPECT_THROW(pointFrom("\"uops\":1,\"run_seed\":\"12abc\""),
                 stats::ParseError);
    for (const char *bad : {"", "-1", "+1", " 1", "0x10",
                            "18446744073709551616"}) {
        EXPECT_THROW(pointFrom(std::string("\"uops\":1,\"run_seed\":\"") +
                               bad + "\""),
                     stats::ParseError)
            << "'" << bad << "'";
    }
    EXPECT_EQ(
        pointFrom("\"uops\":1,\"run_seed\":\"18446744073709551615\"")
            .run_seed,
        18446744073709551615u);
}

TEST(ServiceProtocol, OptionalFieldOfTheWrongKindThrows)
{
    EXPECT_THROW(pointFrom("\"uops\":1,\"srl_depth\":\"512\""),
                 stats::ParseError);
    EXPECT_THROW(pointFrom("\"uops\":1,\"occupancy_series\":\"no\""),
                 stats::ParseError);
    EXPECT_THROW(pointFrom("\"uops\":1,\"base\":7"), stats::ParseError);
    EXPECT_THROW(pointFrom("\"uops\":1,\"ff_uops\":null"),
                 stats::ParseError);
}

TEST(ServiceProtocol, MaterializationMatchesNamedBuilders)
{
    service::PointSpec spec;
    spec.base = "baseline";
    EXPECT_EQ(chash::serializeConfig(spec.materializeConfig()),
              chash::serializeConfig(core::baselineConfig()));
    spec.base = "hierarchical";
    EXPECT_EQ(chash::serializeConfig(spec.materializeConfig()),
              chash::serializeConfig(core::hierarchicalConfig()));
    spec.base = "ideal";
    EXPECT_EQ(chash::serializeConfig(spec.materializeConfig()),
              chash::serializeConfig(core::idealConfig()));
    spec.base = "monolithic";
    spec.stq_entries = 256;
    EXPECT_EQ(chash::serializeConfig(spec.materializeConfig()),
              chash::serializeConfig(core::monolithicConfig(256)));

    service::PointSpec lcf;
    lcf.base = "srl";
    lcf.srl_depth = 512;
    lcf.lcf_entries = 256;
    lcf.lcf_hash = "lab";
    core::ProcessorConfig want = core::srlConfig();
    want.srl.srl.capacity = 512;
    want.srl.lcf.entries = 256;
    want.srl.lcf.hash = lsq::HashScheme::kLowerAddressBits;
    EXPECT_EQ(chash::serializeConfig(lcf.materializeConfig()),
              chash::serializeConfig(want));

    EXPECT_EQ(spec.materializeSuite().name, "SFP2K");
}

TEST(ServiceProtocol, MaterializationRejectsUnknownNames)
{
    service::PointSpec spec;
    spec.base = "quantum";
    EXPECT_THROW(spec.materializeConfig(), stats::ParseError);
    spec.base = "srl";
    spec.lcf_hash = "crc32";
    EXPECT_THROW(spec.materializeConfig(), stats::ParseError);
    spec.lcf_hash = "";
    spec.suite = "SPEC2077";
    EXPECT_THROW(spec.materializeSuite(), stats::ParseError);
}

TEST(ServiceProtocol, RequestLinesRoundTrip)
{
    const service::Request hello =
        service::parseRequest(service::helloLine("unit-test"));
    EXPECT_EQ(hello.op, "hello");
    EXPECT_EQ(hello.client, "unit-test");

    service::PointSpec spec;
    spec.name = "p0";
    spec.run_seed = 42;
    const service::Request submit =
        service::parseRequest(service::submitLine(17, spec));
    EXPECT_EQ(submit.op, "submit");
    EXPECT_EQ(submit.id, 17u);
    EXPECT_EQ(submit.point.name, "p0");
    EXPECT_EQ(submit.point.run_seed, 42u);

    EXPECT_EQ(service::parseRequest(service::statsLine()).op, "stats");
}

TEST(ServiceProtocol, RejectsForeignAndMalformedRequests)
{
    EXPECT_THROW(service::parseRequest("not json"), stats::ParseError);
    EXPECT_THROW(service::parseRequest("{\"op\":\"hello\"}"),
                 stats::ParseError);
    EXPECT_THROW(
        service::parseRequest(
            "{\"schema\":\"srlsim-service-v2\",\"op\":\"hello\"}"),
        stats::ParseError);
    EXPECT_THROW(
        service::parseRequest(
            "{\"schema\":\"srlsim-service-v1\",\"op\":\"reboot\"}"),
        stats::ParseError);
}

TEST(ServiceProtocol, ResultRecordSurvivesTheWire)
{
    stats::RunRecord rec = syntheticRecord("point-a", 2.5);
    const std::string line =
        service::resultLine(3, "deadbeef", true, false, rec);
    const json::Value msg = json::Value::parse(line);
    EXPECT_EQ(msg.getString("op"), "result");
    EXPECT_EQ(msg.getU64("id"), 3u);
    EXPECT_TRUE(msg.getBool("cached"));
    EXPECT_FALSE(msg.getBool("coalesced"));
    const stats::RunRecord back = service::decodeResultRecord(msg);
    EXPECT_EQ(service::encodeRecord(back), service::encodeRecord(rec));
}

// ---------------------------------------------------------- ResultCache

TEST(ResultCache, ColdMissThenWarmHit)
{
    TempDir dir;
    service::ResultCache cache({dir.path, 0});
    const chash::Hash128 key = chash::hashString("key-a");

    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return syntheticRecord("a", 1.0);
    };

    const auto cold = cache.getOrCompute(key, compute);
    EXPECT_EQ(cold.outcome, service::ResultCache::Outcome::kMiss);
    EXPECT_EQ(computes, 1);

    const auto warm = cache.getOrCompute(key, compute);
    EXPECT_EQ(warm.outcome, service::ResultCache::Outcome::kHit);
    EXPECT_EQ(computes, 1) << "warm hit recomputed";
    EXPECT_EQ(service::encodeRecord(warm.record),
              service::encodeRecord(cold.record));

    stats::RunRecord probed;
    EXPECT_TRUE(cache.lookup(key, probed));
    EXPECT_EQ(service::encodeRecord(probed),
              service::encodeRecord(cold.record));

    const auto c = cache.counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.hits, 1u); // lookup() is a probe, not a counted hit
    EXPECT_EQ(c.stores, 1u);
    EXPECT_EQ(c.corrupt_entries, 0u);
}

TEST(ResultCache, TruncatedEntryIsRecomputedNotTrusted)
{
    TempDir dir;
    service::ResultCache cache({dir.path, 0});
    const chash::Hash128 key = chash::hashString("key-b");

    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return syntheticRecord("b", 2.0);
    };
    cache.getOrCompute(key, compute);

    // Truncate the stored entry at every prefix length that changes
    // behavior class: empty, mid-header, mid-record.
    std::ifstream in(cache.entryPath(key));
    std::string full((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    ASSERT_FALSE(full.empty());

    for (const std::size_t len :
         {std::size_t{0}, full.size() / 4, full.size() / 2,
          full.size() - 2}) {
        std::ofstream out(cache.entryPath(key),
                          std::ios::binary | std::ios::trunc);
        out.write(full.data(),
                  static_cast<std::streamsize>(len));
        out.close();

        const int before = computes;
        const auto got = cache.getOrCompute(key, compute);
        EXPECT_EQ(got.outcome, service::ResultCache::Outcome::kMiss)
            << "truncation to " << len << " bytes served a hit";
        EXPECT_EQ(computes, before + 1);
        EXPECT_EQ(got.record.metric("value"), 2.0);
    }
    EXPECT_GE(cache.counters().corrupt_entries, 3u);

    // The recompute re-published a valid entry each time.
    const auto warm = cache.getOrCompute(key, compute);
    EXPECT_EQ(warm.outcome, service::ResultCache::Outcome::kHit);
}

TEST(ResultCache, EntryUnderWrongKeyIsRejected)
{
    TempDir dir;
    service::ResultCache cache({dir.path, 0});
    const chash::Hash128 key_a = chash::hashString("key-a");
    const chash::Hash128 key_b = chash::hashString("key-c");

    cache.getOrCompute(key_a,
                       [] { return syntheticRecord("a", 1.0); });

    // Copy a's entry file to b's name: the embedded key no longer
    // matches the file name, so it must not be served.
    std::ifstream in(cache.entryPath(key_a), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(cache.entryPath(key_b), std::ios::binary);
    out << bytes;
    out.close();

    const auto got = cache.getOrCompute(
        key_b, [] { return syntheticRecord("c", 3.0); });
    EXPECT_EQ(got.outcome, service::ResultCache::Outcome::kMiss);
    EXPECT_EQ(got.record.metric("value"), 3.0);
    EXPECT_GE(cache.counters().corrupt_entries, 1u);
}

TEST(ResultCache, FailedComputationIsDeliveredButNeverStored)
{
    TempDir dir;
    service::ResultCache cache({dir.path, 0});
    const chash::Hash128 key = chash::hashString("key-fail");

    const auto failing = [] {
        stats::RunRecord r;
        r.name = "broken";
        r.error = "simulated failure";
        return r;
    };
    const auto got = cache.getOrCompute(key, failing);
    EXPECT_EQ(got.outcome, service::ResultCache::Outcome::kMiss);
    EXPECT_TRUE(got.record.failed());
    EXPECT_EQ(cache.counters().stores, 0u);
    EXPECT_EQ(dir.fileCount(), 0u);

    // A throwing compute becomes an error record, not an exception.
    const auto thrown = cache.getOrCompute(key, []() -> stats::RunRecord {
        throw std::runtime_error("boom");
    });
    EXPECT_TRUE(thrown.record.failed());
    EXPECT_NE(thrown.record.error.find("boom"), std::string::npos);

    // And the key stays retryable: a later good compute is stored.
    const auto good = cache.getOrCompute(
        key, [] { return syntheticRecord("fixed", 4.0); });
    EXPECT_EQ(good.outcome, service::ResultCache::Outcome::kMiss);
    EXPECT_FALSE(good.record.failed());
    EXPECT_EQ(cache.getOrCompute(key, failing).outcome,
              service::ResultCache::Outcome::kHit);
}

TEST(ResultCache, ConcurrentSameKeyRunsExactlyOneComputation)
{
    TempDir dir;
    service::ResultCache cache({dir.path, 0});
    const chash::Hash128 key = chash::hashString("key-coalesce");

    std::atomic<int> computes{0};
    std::mutex m;
    std::condition_variable cv;
    bool entered = false;
    bool release = false;

    const auto slow_compute = [&] {
        ++computes;
        std::unique_lock<std::mutex> lock(m);
        entered = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
        return syntheticRecord("co", 5.0);
    };

    service::ResultCache::GetResult r1, r2;
    std::thread t1([&] { r1 = cache.getOrCompute(key, slow_compute); });
    {
        // Only release the first compute once the second requester is
        // provably inside getOrCompute: it blocks on the shared
        // future, so "thread started + compute entered" is the best
        // observable; give it a moment to reach the wait.
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return entered; });
    }
    std::thread t2([&] { r2 = cache.getOrCompute(key, slow_compute); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    {
        std::unique_lock<std::mutex> lock(m);
        release = true;
        cv.notify_all();
    }
    t1.join();
    t2.join();

    EXPECT_EQ(computes.load(), 1)
        << "second requester ran its own simulation";
    EXPECT_EQ(r1.outcome, service::ResultCache::Outcome::kMiss);
    EXPECT_EQ(r2.outcome, service::ResultCache::Outcome::kCoalesced);
    EXPECT_EQ(service::encodeRecord(r1.record),
              service::encodeRecord(r2.record));

    const auto c = cache.counters();
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.coalesced, 1u);
}

TEST(ResultCache, EvictsOldestOverCap)
{
    TempDir dir;
    service::ResultCache cache({dir.path, 2});
    for (int i = 0; i < 3; ++i) {
        cache.getOrCompute(
            chash::hashString("evict-" + std::to_string(i)),
            [i] { return syntheticRecord("e", i); });
    }
    EXPECT_EQ(cache.counters().evictions, 1u);
    EXPECT_EQ(dir.fileCount(), 2u);
}

TEST(ResultCache, DirlessCacheOnlyCoalesces)
{
    service::ResultCache cache({"", 0});
    const chash::Hash128 key = chash::hashString("no-disk");
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return syntheticRecord("nd", 1.0);
    };
    EXPECT_EQ(cache.getOrCompute(key, compute).outcome,
              service::ResultCache::Outcome::kMiss);
    EXPECT_EQ(cache.getOrCompute(key, compute).outcome,
              service::ResultCache::Outcome::kMiss);
    EXPECT_EQ(computes, 2);
}

// -------------------------------------------------------- runSweepCached

TEST(SweepCache, ByteIdenticalToDirectRunSweepColdAndWarm)
{
    const workload::SuiteProfile suite = testSuite();
    std::vector<runner::SweepPoint> points = {
        {"baseline", core::baselineConfig(), suite, kTinyUops},
        {"srl", core::srlConfig(), suite, kTinyUops},
        {"ideal-stq", core::idealConfig(), suite, kTinyUops},
    };
    runner::SweepOptions opts;
    opts.jobs = 2;
    opts.seed = 42;

    const std::string direct =
        runner::runSweep(points, opts).toJson();

    TempDir dir;
    service::ResultCache cache({dir.path, 0});
    const std::string cold =
        service::runSweepCached(points, opts, cache).toJson();
    EXPECT_EQ(cold, direct);
    EXPECT_EQ(cache.counters().misses, points.size());

    const std::string warm =
        service::runSweepCached(points, opts, cache).toJson();
    EXPECT_EQ(warm, direct);
    EXPECT_EQ(cache.counters().misses, points.size())
        << "warm rerun simulated";
    EXPECT_EQ(cache.counters().hits, points.size());
}

TEST(SweepCache, CanonicalSpecsReproduceSweepToolPoints)
{
    // The spec list must materialize to the same content addresses the
    // local runner computes, or server-side execution would never hit
    // the entries a local --cache-dir run stored.
    const auto specs =
        service::canonicalSweepSpecs("SFP2K", kTinyUops, 42);
    ASSERT_EQ(specs.size(), 11u);
    const auto points = service::materializePoints(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(specs[i].run_seed, runner::deriveRunSeed(42, i));
        EXPECT_EQ(points[i].name, specs[i].name);
        EXPECT_EQ(
            chash::pointKey(points[i].config, points[i].suite,
                            points[i].uops, specs[i].run_seed),
            chash::pointKey(specs[i].materializeConfig(),
                            specs[i].materializeSuite(), specs[i].uops,
                            specs[i].run_seed));
    }
    // Canonical names, in sweep order.
    EXPECT_EQ(points.front().name, "baseline");
    EXPECT_EQ(points[1].name, "srl-depth-128");
    EXPECT_EQ(points[5].name, "lcf-256-lab");
    EXPECT_EQ(points.back().name, "ideal-stq");
}

// ------------------------------------------------------------- service

service::PointSpec
tinySpec(const std::string &name, std::uint64_t seed)
{
    service::PointSpec spec;
    spec.name = name;
    spec.base = "baseline";
    spec.uops = kTinyUops;
    spec.run_seed = seed;
    return spec;
}

TEST(SweepService, CompletesWorkFromMultipleClients)
{
    TempDir dir;
    service::ResultCache cache({dir.path, 0});
    service::ServiceOptions opts;
    opts.jobs = 2;
    service::SweepService svc(cache, opts);

    std::mutex m;
    std::condition_variable cv;
    std::vector<std::string> done_names;
    const auto on_done = [&](const stats::RunRecord &rec,
                             const chash::Hash128 &,
                             service::ResultCache::Outcome) {
        std::lock_guard<std::mutex> lock(m);
        EXPECT_FALSE(rec.failed()) << rec.error;
        done_names.push_back(rec.name);
        cv.notify_all();
    };

    for (int i = 0; i < 2; ++i) {
        EXPECT_EQ(svc.submit(1, tinySpec("c1-" + std::to_string(i), i + 1),
                             on_done),
                  service::SweepService::Admit::kAccepted);
        EXPECT_EQ(svc.submit(2, tinySpec("c2-" + std::to_string(i), i + 1),
                             on_done),
                  service::SweepService::Admit::kAccepted);
    }
    {
        std::unique_lock<std::mutex> lock(m);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60), [&] {
            return done_names.size() == 4;
        }));
    }
    svc.drain();

    // c1-0 and c2-0 are the same design point (same seed, same base):
    // one simulated, one served from cache/coalescing.
    EXPECT_EQ(cache.counters().misses, 2u);
    EXPECT_EQ(cache.counters().hits + cache.counters().coalesced, 2u);

    const stats::StatsReport rep = svc.statsReport();
    ASSERT_EQ(rep.runs.size(), 2u);
    EXPECT_EQ(rep.runs[0].metric("submitted"), 4);
    EXPECT_EQ(rep.runs[0].metric("completed"), 4);
    EXPECT_EQ(rep.runs[0].metric("failed"), 0);
}

TEST(SweepService, RejectsOverflowWithBusyAndRefusesWhileDraining)
{
    TempDir dir;
    service::ResultCache cache({dir.path, 0});
    service::ServiceOptions opts;
    opts.jobs = 1;
    opts.queue_depth = 1;
    service::SweepService svc(cache, opts);

    std::atomic<int> completions{0};
    const auto on_done = [&](const stats::RunRecord &,
                             const chash::Hash128 &,
                             service::ResultCache::Outcome) {
        ++completions;
    };

    // Distinct seeds so nothing coalesces: one active + one queued
    // fill the service; the third submission must bounce.
    service::PointSpec slow = tinySpec("slow", 1);
    slow.uops = 30000;
    ASSERT_EQ(svc.submit(1, slow, on_done),
              service::SweepService::Admit::kAccepted);
    service::PointSpec second = tinySpec("second", 2);
    second.uops = 30000;
    ASSERT_EQ(svc.submit(1, second, on_done),
              service::SweepService::Admit::kAccepted);
    EXPECT_EQ(svc.submit(1, tinySpec("third", 3), on_done),
              service::SweepService::Admit::kBusy);

    svc.drain();
    EXPECT_EQ(completions.load(), 2);
    EXPECT_EQ(svc.submit(1, tinySpec("late", 4), on_done),
              service::SweepService::Admit::kDraining);

    const stats::StatsReport rep = svc.statsReport();
    EXPECT_EQ(rep.runs[0].metric("rejected_busy"), 1);
    EXPECT_EQ(rep.runs[0].metric("rejected_draining"), 1);
}

TEST(SweepService, InvalidSpecYieldsErrorRecordNotCrash)
{
    service::ResultCache cache({"", 0});
    service::ServiceOptions opts;
    opts.jobs = 1;
    service::SweepService svc(cache, opts);

    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    stats::RunRecord result;
    ASSERT_EQ(svc.submit(
                  1,
                  [] {
                      service::PointSpec bad;
                      bad.name = "bad";
                      bad.base = "nonexistent";
                      return bad;
                  }(),
                  [&](const stats::RunRecord &rec,
                      const chash::Hash128 &,
                      service::ResultCache::Outcome) {
                      std::lock_guard<std::mutex> lock(m);
                      result = rec;
                      done = true;
                      cv.notify_all();
                  }),
              service::SweepService::Admit::kAccepted);
    {
        std::unique_lock<std::mutex> lock(m);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                                [&] { return done; }));
    }
    EXPECT_TRUE(result.failed());
    EXPECT_NE(result.error.find("unknown base"), std::string::npos);
    EXPECT_EQ(result.name, "bad");
}

// --------------------------------------------------------- server/client

TEST(ServiceEndToEnd, SocketSweepIsByteIdenticalAndCachesOnResubmit)
{
    TempDir dir;
    TempDir sock_dir;
    const std::string sock = sock_dir.path + "/daemon.sock";

    service::ResultCache cache({dir.path, 0});
    service::ServiceOptions svc_opts;
    svc_opts.jobs = 2;
    service::SweepService svc(cache, svc_opts);
    service::Server server(svc, {sock});
    ASSERT_TRUE(server.start());
    std::thread server_thread([&] { server.run(); });

    // A 4-point slice of the canonical sweep, tiny uops.
    auto specs = service::canonicalSweepSpecs("SFP2K", kTinyUops, 42);
    specs.resize(4);
    const auto points = service::materializePoints(specs);
    runner::SweepOptions opts;
    opts.jobs = 1;
    opts.seed = 42;
    const std::string direct = runner::runSweep(points, opts).toJson();

    service::Client client;
    ASSERT_TRUE(client.connect(sock));
    const std::string served1 = client.runSweep(specs, 42).toJson();
    EXPECT_EQ(served1, direct);
    EXPECT_EQ(client.lastComputedResults(), specs.size());

    const std::string served2 = client.runSweep(specs, 42).toJson();
    EXPECT_EQ(served2, direct);
    EXPECT_EQ(client.lastCachedResults(), specs.size());
    EXPECT_EQ(client.lastComputedResults(), 0u);

    const stats::StatsReport remote_stats = client.fetchStats();
    ASSERT_EQ(remote_stats.runs.size(), 2u);
    EXPECT_GE(remote_stats.runs[1].metric("hits"), 4);
    EXPECT_EQ(remote_stats.runs[1].metric("misses"), 4);

    client.close();
    server.requestStop();
    server_thread.join();
}

TEST(ServiceEndToEnd, TwoClientsShareOneCache)
{
    TempDir dir;
    TempDir sock_dir;
    const std::string sock = sock_dir.path + "/daemon.sock";

    service::ResultCache cache({dir.path, 0});
    service::ServiceOptions svc_opts;
    svc_opts.jobs = 2;
    service::SweepService svc(cache, svc_opts);
    service::Server server(svc, {sock});
    ASSERT_TRUE(server.start());
    std::thread server_thread([&] { server.run(); });

    auto specs = service::canonicalSweepSpecs("SFP2K", kTinyUops, 7);
    specs.resize(3);

    service::Client first;
    ASSERT_TRUE(first.connect(sock));
    const std::string rep1 = first.runSweep(specs, 7).toJson();
    first.close();

    service::Client second;
    ASSERT_TRUE(second.connect(sock));
    const std::string rep2 = second.runSweep(specs, 7).toJson();
    second.close();

    EXPECT_EQ(rep1, rep2);
    EXPECT_EQ(second.lastCachedResults(), specs.size());
    EXPECT_EQ(cache.counters().misses, specs.size());

    server.requestStop();
    server_thread.join();
}

// ----------------------------------------------- stats parser hardening

TEST(StatsParserHardening, EveryTruncationOfAValidReportThrows)
{
    const workload::SuiteProfile suite = testSuite();
    runner::SweepOptions opts;
    opts.jobs = 1;
    opts.seed = 3;
    stats::StatsReport rep = runner::runSweep(
        {{"one", core::baselineConfig(), suite, kTinyUops}}, opts);
    rep.meta["suite"] = suite.name;

    std::string doc = rep.toJson();
    // Strip trailing whitespace: a prefix that only drops trailing
    // newlines is still a complete document and parses fine.
    while (!doc.empty() &&
           (doc.back() == '\n' || doc.back() == ' '))
        doc.pop_back();

    for (std::size_t len = 0; len < doc.size(); ++len) {
        EXPECT_THROW(stats::StatsReport::fromJson(doc.substr(0, len)),
                     stats::ParseError)
            << "prefix of length " << len << "/" << doc.size()
            << " parsed as a complete report";
    }
}

TEST(StatsParserHardening, SingleByteCorruptionNeverCrashes)
{
    stats::StatsReport rep;
    rep.meta["seed"] = "42";
    stats::RunRecord run = syntheticRecord("r", 1.5);
    rep.runs.push_back(run);
    const std::string doc = rep.toJson();

    // Flip every byte through a handful of hostile replacements. The
    // parser may accept semantically harmless flips (digit for digit);
    // the guarantee under test is: ParseError or success, never a
    // crash or a foreign exception.
    for (std::size_t pos = 0; pos < doc.size(); ++pos) {
        for (const char evil : {'\x01', '"', '}', '\\'}) {
            std::string mutated = doc;
            mutated[pos] = evil;
            try {
                (void)stats::StatsReport::fromJson(mutated);
            } catch (const stats::ParseError &) {
                // expected for most mutations
            }
        }
    }
    SUCCEED();
}

/** fromJson must reject @p doc with ParseError, no other exception. */
void
expectStatsParseError(const std::string &doc)
{
    EXPECT_THROW(stats::StatsReport::fromJson(doc), stats::ParseError)
        << doc;
}

const std::string kStatsHead = "{\"schema\":\"srlsim-stats-v1\",";
const std::string kOneRunMetrics = kStatsHead +
                                   "\"runs\":[{\"name\":\"r\","
                                   "\"metrics\":{\"ipc\":";

TEST(StatsParserHardening, RejectsValuesOfTheWrongKind)
{
    // Control: the same document with a number metric parses.
    EXPECT_EQ(stats::StatsReport::fromJson(kOneRunMetrics + "1.5}}]}")
                  .runs.at(0)
                  .metric("ipc"),
              1.5);

    expectStatsParseError(kOneRunMetrics + "\"1.5\"}}]}"); // string metric
    expectStatsParseError(kOneRunMetrics + "true}}]}");    // bool metric
    expectStatsParseError(kStatsHead + "\"meta\":{\"seed\":42}}");
    expectStatsParseError(kStatsHead + "\"runs\":{}}");     // not an array
    expectStatsParseError(kStatsHead + "\"runs\":[7]}");    // not an object
    expectStatsParseError(kStatsHead + "\"runs\":[{\"name\":7}]}");
    expectStatsParseError("{\"schema\":1,\"runs\":[]}");
}

TEST(StatsParserHardening, RejectsUnknownKeysAndOverDeepNesting)
{
    expectStatsParseError(kStatsHead + "\"extra\":1}");
    expectStatsParseError(kStatsHead + "\"runs\":[{\"nom\":\"r\"}]}");
    expectStatsParseError(kStatsHead + "\"runs\":[" + std::string(100, '[') +
                          std::string(100, ']') + "]}");
    std::string deep_metric = kOneRunMetrics;
    for (int i = 0; i < 100; ++i)
        deep_metric += "{\"x\":";
    expectStatsParseError(deep_metric + "1" + std::string(100, '}') +
                          "}}]}");
}

TEST(StatsParserHardening, RejectsNumbersOutsideStrictJsonGrammar)
{
    // toJson writes NaN as null and infinities as +-1e999, so strict
    // grammar loses nothing it writes; what strtod alone would also
    // take is not JSON.
    EXPECT_EQ(stats::StatsReport::fromJson(kOneRunMetrics + "-1e999}}]}")
                  .runs.at(0)
                  .metric("ipc"),
              -HUGE_VAL);
    for (const char *bad : {"0x1p3", "inf", "nan", "+1.5", "01.5", ".5",
                            "1.", "1e"})
        expectStatsParseError(kOneRunMetrics + bad + "}}]}");
}

TEST(StatsParserHardening, RejectsBadEscapesAndRawControlChars)
{
    stats::StatsReport rep;
    rep.meta["k"] = "vv";
    const std::string doc = rep.toJson();
    const std::size_t at = doc.find("vv");
    ASSERT_NE(at, std::string::npos);

    std::string raw_ctl = doc;
    raw_ctl.replace(at, 2, std::string("v\x01"));
    EXPECT_THROW(stats::StatsReport::fromJson(raw_ctl),
                 stats::ParseError);

    std::string bad_escape = doc;
    bad_escape.replace(at, 2, "\\q");
    EXPECT_THROW(stats::StatsReport::fromJson(bad_escape),
                 stats::ParseError);

    std::string bad_unicode = doc;
    bad_unicode.replace(at, 2, "\\uZZ11");
    EXPECT_THROW(stats::StatsReport::fromJson(bad_unicode),
                 stats::ParseError);

    std::string truncated_unicode = doc;
    truncated_unicode.replace(at, 2, "\\u0");
    EXPECT_THROW(stats::StatsReport::fromJson(truncated_unicode),
                 stats::ParseError);
}

} // namespace
