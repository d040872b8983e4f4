#include "service/protocol.hh"

#include <charconv>
#include <limits>

namespace srl
{
namespace service
{

const char kProtocolSchema[] = "srlsim-service-v1";

core::ProcessorConfig
PointSpec::materializeConfig() const
{
    core::ProcessorConfig cfg;
    if (base == "baseline") {
        cfg = core::baselineConfig();
    } else if (base == "srl") {
        cfg = core::srlConfig();
    } else if (base == "hierarchical") {
        cfg = core::hierarchicalConfig();
    } else if (base == "ideal") {
        cfg = core::idealConfig();
    } else if (base == "monolithic") {
        cfg = core::monolithicConfig(stq_entries ? stq_entries : 48);
    } else {
        throw stats::ParseError("service point: unknown base config '" +
                                base + "'");
    }
    if (srl_depth)
        cfg.srl.srl.capacity = srl_depth;
    if (lcf_entries)
        cfg.srl.lcf.entries = lcf_entries;
    if (!lcf_hash.empty()) {
        if (lcf_hash == "lab")
            cfg.srl.lcf.hash = lsq::HashScheme::kLowerAddressBits;
        else if (lcf_hash == "3pax")
            cfg.srl.lcf.hash = lsq::HashScheme::kThreePieceXor;
        else
            throw stats::ParseError(
                "service point: unknown lcf hash '" + lcf_hash + "'");
    }
    if (stq_entries && base != "monolithic")
        cfg.stq.capacity = stq_entries;
    return cfg;
}

workload::SuiteProfile
PointSpec::materializeSuite() const
{
    // suiteProfile() is fatal on an unknown name; validate here so a
    // bad request is a protocol error, not a daemon abort.
    for (const auto &p : workload::suiteProfiles()) {
        if (p.name == suite)
            return p;
    }
    throw stats::ParseError("service point: unknown suite '" + suite +
                            "'");
}

json::Value
PointSpec::toJson() const
{
    json::Value v = json::Value::object();
    v.set("name", json::Value::str(name));
    v.set("base", json::Value::str(base));
    v.set("suite", json::Value::str(suite));
    v.set("uops", json::Value::number(static_cast<double>(uops)));
    // The run seed is a full 64-bit mix; a JSON number (double) only
    // holds 53 bits, so it travels as a decimal string (the same
    // convention the stats codec uses for run_seed).
    v.set("run_seed", json::Value::str(std::to_string(run_seed)));
    v.set("occupancy_series", json::Value::boolean(occupancy_series));
    if (srl_depth)
        v.set("srl_depth", json::Value::number(srl_depth));
    if (lcf_entries)
        v.set("lcf_entries", json::Value::number(lcf_entries));
    if (!lcf_hash.empty())
        v.set("lcf_hash", json::Value::str(lcf_hash));
    if (stq_entries)
        v.set("stq_entries", json::Value::number(stq_entries));
    // Sampling plan fields travel only when set, so pre-sampling
    // clients and servers interoperate unchanged.
    if (ff_uops)
        v.set("ff_uops",
              json::Value::number(static_cast<double>(ff_uops)));
    if (warm_uops)
        v.set("warm_uops",
              json::Value::number(static_cast<double>(warm_uops)));
    if (detail_uops)
        v.set("detail_uops",
              json::Value::number(static_cast<double>(detail_uops)));
    if (shard_start)
        v.set("shard_start",
              json::Value::number(static_cast<double>(shard_start)));
    if (shard_count)
        v.set("shard_count",
              json::Value::number(static_cast<double>(shard_count)));
    return v;
}

namespace
{

/** Optional count field narrowed to unsigned; 0 when absent. */
unsigned
getUnsigned(const json::Value &v, const char *key)
{
    const std::uint64_t n = v.getU64(key, 0);
    if (n > std::numeric_limits<unsigned>::max())
        throw stats::ParseError(std::string("service point: ") + key +
                                " " + std::to_string(n) +
                                " is out of range");
    return static_cast<unsigned>(n);
}

} // namespace

PointSpec
PointSpec::fromJson(const json::Value &v)
{
    if (!v.isObject())
        throw stats::ParseError("service point: not an object");
    PointSpec p;
    p.name = v.at("name").asString();
    p.base = v.getString("base", "srl");
    p.suite = v.getString("suite", "SFP2K");
    p.uops = v.at("uops").asU64();
    if (const json::Value *seed = v.find("run_seed")) {
        if (seed->isString()) {
            const std::string &s = seed->asString();
            const char *end = s.data() + s.size();
            const auto [ptr, ec] =
                std::from_chars(s.data(), end, p.run_seed);
            if (ec != std::errc() || ptr != end)
                throw stats::ParseError(
                    "service point: run_seed '" + s +
                    "' is not a decimal 64-bit integer");
        } else {
            p.run_seed = seed->asU64();
        }
    }
    p.occupancy_series = v.getBool("occupancy_series", true);
    p.srl_depth = getUnsigned(v, "srl_depth");
    p.lcf_entries = getUnsigned(v, "lcf_entries");
    p.lcf_hash = v.getString("lcf_hash", "");
    p.stq_entries = getUnsigned(v, "stq_entries");
    p.ff_uops = v.getU64("ff_uops", 0);
    p.warm_uops = v.getU64("warm_uops", 0);
    p.detail_uops = v.getU64("detail_uops", 0);
    p.shard_start = v.getU64("shard_start", 0);
    p.shard_count = v.getU64("shard_count", 0);
    return p;
}

namespace
{

json::Value
messageShell(const char *op)
{
    json::Value v = json::Value::object();
    v.set("schema", json::Value::str(kProtocolSchema));
    v.set("op", json::Value::str(op));
    return v;
}

} // namespace

Request
parseRequest(const std::string &line)
{
    const json::Value v = json::Value::parse(line);
    if (!v.isObject())
        throw stats::ParseError("service request: not an object");
    if (v.getString("schema") != kProtocolSchema)
        throw stats::ParseError(
            "service request: missing or unsupported schema marker");
    Request req;
    req.op = v.at("op").asString();
    if (req.op == "hello") {
        req.client = v.getString("client", "anonymous");
    } else if (req.op == "submit") {
        req.id = v.at("id").asU64();
        req.point = PointSpec::fromJson(v.at("point"));
    } else if (req.op == "stats") {
        // no payload
    } else {
        throw stats::ParseError("service request: unknown op '" +
                                req.op + "'");
    }
    return req;
}

std::string
helloLine(const std::string &client)
{
    json::Value v = messageShell("hello");
    v.set("client", json::Value::str(client));
    return v.dump();
}

std::string
submitLine(std::uint64_t id, const PointSpec &point)
{
    json::Value v = messageShell("submit");
    v.set("id", json::Value::number(static_cast<double>(id)));
    v.set("point", point.toJson());
    return v.dump();
}

std::string
statsLine()
{
    return messageShell("stats").dump();
}

std::string
welcomeLine(const std::string &server)
{
    json::Value v = messageShell("welcome");
    v.set("server", json::Value::str(server));
    return v.dump();
}

std::string
acceptedLine(std::uint64_t id, const std::string &key_hex)
{
    json::Value v = messageShell("accepted");
    v.set("id", json::Value::number(static_cast<double>(id)));
    v.set("key", json::Value::str(key_hex));
    return v.dump();
}

std::string
busyLine(std::uint64_t id, unsigned retry_after_ms)
{
    json::Value v = messageShell("busy");
    v.set("id", json::Value::number(static_cast<double>(id)));
    v.set("retry_after_ms", json::Value::number(retry_after_ms));
    return v.dump();
}

std::string
errorLine(std::uint64_t id, const std::string &message)
{
    json::Value v = messageShell("error");
    v.set("id", json::Value::number(static_cast<double>(id)));
    v.set("message", json::Value::str(message));
    return v.dump();
}

std::string
encodeRecord(const stats::RunRecord &record)
{
    stats::StatsReport rep;
    rep.runs.push_back(record);
    return rep.toJson();
}

std::string
resultLine(std::uint64_t id, const std::string &key_hex, bool cached,
           bool coalesced, const stats::RunRecord &record)
{
    json::Value v = messageShell("result");
    v.set("id", json::Value::number(static_cast<double>(id)));
    v.set("key", json::Value::str(key_hex));
    v.set("cached", json::Value::boolean(cached));
    v.set("coalesced", json::Value::boolean(coalesced));
    v.set("record", json::Value::str(encodeRecord(record)));
    return v.dump();
}

std::string
statsReportLine(const stats::StatsReport &report)
{
    json::Value v = messageShell("stats");
    v.set("report", json::Value::str(report.toJson()));
    return v.dump();
}

stats::RunRecord
decodeResultRecord(const json::Value &result_msg)
{
    const std::string &text = result_msg.at("record").asString();
    stats::StatsReport rep = stats::StatsReport::fromJson(text);
    if (rep.runs.size() != 1)
        throw stats::ParseError(
            "service result: embedded report must hold exactly one "
            "run, got " +
            std::to_string(rep.runs.size()));
    return std::move(rep.runs.front());
}

} // namespace service
} // namespace srl
