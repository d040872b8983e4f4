/**
 * @file
 * srlsim-service-v1: the sweep daemon's line-delimited JSON protocol.
 *
 * Every message is one JSON object on one line. Client requests:
 *
 *   {"schema":"srlsim-service-v1","op":"hello","client":"sweep_tool"}
 *   {"schema":"srlsim-service-v1","op":"submit","id":3,"point":{...}}
 *   {"schema":"srlsim-service-v1","op":"stats"}
 *
 * Server responses (matched to submits by "id"; results may arrive in
 * any order relative to submission):
 *
 *   {"schema":...,"op":"welcome","server":"srlsim-serve/1"}
 *   {"schema":...,"op":"accepted","id":3,"key":"<32-hex>"}
 *   {"schema":...,"op":"busy","id":3,"retry_after_ms":200}
 *   {"schema":...,"op":"result","id":3,"key":"...","cached":true,
 *    "coalesced":false,"record":"<srlsim-stats-v1 single-run JSON>"}
 *   {"schema":...,"op":"stats","report":"<srlsim-stats-v1 JSON>"}
 *   {"schema":...,"op":"error","id":3,"message":"..."}
 *
 * A completed run travels as its srlsim-stats-v1 single-run report
 * embedded as a JSON string, so the byte-exact stats round-tripper is
 * the (already pinned) codec for result payloads: a record fetched
 * from the daemon re-serializes byte-identically to one produced by a
 * direct runner::runSweep.
 *
 * A design point travels as a *spec* — a named base configuration plus
 * a small set of override knobs — rather than a full field dump; the
 * server materializes the spec into a full ProcessorConfig/SuiteProfile
 * and content-addresses the materialized structs (common/chash.hh), so
 * any two specs that materialize identically share one cache entry
 * regardless of how the request was phrased.
 */

#ifndef SRLSIM_SERVICE_PROTOCOL_HH
#define SRLSIM_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "common/json.hh"
#include "common/stats.hh"
#include "core/config.hh"
#include "workload/profile.hh"

namespace srl
{
namespace service
{

/** Protocol schema marker; present on every message both ways. */
extern const char kProtocolSchema[];

/**
 * One design point, as it travels on the wire: a base config name
 * ("baseline", "srl", "hierarchical", "ideal", "monolithic"), a
 * built-in suite name, uops, the fully derived run seed, and optional
 * overrides (0 / empty = keep the base's value).
 */
struct PointSpec
{
    std::string name;  ///< report row name
    std::string base = "srl";
    std::string suite = "SFP2K";
    std::uint64_t uops = 150000;
    std::uint64_t run_seed = 0; ///< raw seed_override (0 = canonical)
    bool occupancy_series = true;

    unsigned srl_depth = 0;    ///< SRL capacity override
    unsigned lcf_entries = 0;  ///< LCF size override
    std::string lcf_hash;      ///< "", "lab" or "3pax"
    unsigned stq_entries = 0;  ///< monolithic STQ size override

    /**
     * Sampled-run plan (all zero = fully detailed, the default). When
     * sampled(), the service runs the point through
     * runner::runSampledPipelined with this per-interval
     * ff/warm/detail budget; shard_start /
     * shard_count select a slice of the detailed intervals
     * (shard_count 0 = all remaining), served from the daemon's
     * checkpoint directory.
     */
    std::uint64_t ff_uops = 0;
    std::uint64_t warm_uops = 0;
    std::uint64_t detail_uops = 0;
    std::uint64_t shard_start = 0;
    std::uint64_t shard_count = 0;

    bool
    sampled() const
    {
        return ff_uops != 0 || warm_uops != 0 || detail_uops != 0;
    }

    /**
     * Expand the spec into the full processor config it names.
     * @throws stats::ParseError on an unknown base/hash name.
     */
    core::ProcessorConfig materializeConfig() const;

    /**
     * Resolve the suite name against the built-in Table 2 profiles.
     * @throws stats::ParseError on an unknown suite.
     */
    workload::SuiteProfile materializeSuite() const;

    json::Value toJson() const;
    static PointSpec fromJson(const json::Value &v);
};

/** A parsed client request. */
struct Request
{
    std::string op;         ///< "hello" | "submit" | "stats"
    std::uint64_t id = 0;   ///< submit correlation id
    std::string client;     ///< hello: client name
    PointSpec point;        ///< submit: the design point
};

/**
 * Parse one request line. @throws stats::ParseError on malformed
 * JSON, a wrong/missing schema marker, or an unknown op.
 */
Request parseRequest(const std::string &line);

/** Serialize requests (client side). */
std::string helloLine(const std::string &client);
std::string submitLine(std::uint64_t id, const PointSpec &point);
std::string statsLine();

/** Serialize responses (server side). */
std::string welcomeLine(const std::string &server);
std::string acceptedLine(std::uint64_t id, const std::string &key_hex);
std::string busyLine(std::uint64_t id, unsigned retry_after_ms);
std::string errorLine(std::uint64_t id, const std::string &message);
std::string resultLine(std::uint64_t id, const std::string &key_hex,
                       bool cached, bool coalesced,
                       const stats::RunRecord &record);
std::string statsReportLine(const stats::StatsReport &report);

/**
 * Decode a "result" payload back into the run record it carries.
 * @throws stats::ParseError if the embedded report is malformed or
 * does not hold exactly one run.
 */
stats::RunRecord decodeResultRecord(const json::Value &result_msg);

/** Wrap one record as a single-run srlsim-stats-v1 report string. */
std::string encodeRecord(const stats::RunRecord &record);

} // namespace service
} // namespace srl

#endif // SRLSIM_SERVICE_PROTOCOL_HH
