#include "obs/export.hh"

#include <unordered_map>
#include <vector>

#include "common/json.hh"

namespace srl
{
namespace obs
{

namespace
{

/** Per-kind payload field names (null = field unused). */
struct ArgNames
{
    const char *a;
    const char *b;
    const char *c;
};

ArgNames
argNames(EventKind k)
{
    switch (k) {
      case EventKind::kDispatch:
        return {"seq", "pc", "cls"};
      case EventKind::kCommit:
        return {"first_seq", "uops", "ckpt"};
      case EventKind::kCkptAlloc:
      case EventKind::kCkptReclaim:
        return {"first_seq", nullptr, "ckpt"};
      case EventKind::kCkptRollback:
        return {"boundary_seq", nullptr, "ckpt"};
      case EventKind::kMissEnter:
      case EventKind::kMissExit:
        return {"seq", "addr", nullptr};
      case EventKind::kSliceEnter:
      case EventKind::kSliceReinsert:
        return {"seq", nullptr, "passes"};
      case EventKind::kSrlPush:
        return {"seq", "addr", "dependent"};
      case EventKind::kSrlFill:
      case EventKind::kSrlDrain:
        return {"seq", "addr", "slot"};
      case EventKind::kSrlStall:
        return {"seq", "addr", nullptr};
      case EventKind::kIndexedForward:
        return {"seq", "addr", "slot"};
      case EventKind::kLcfHit:
        return {"addr", nullptr, "count"};
      case EventKind::kFcInsert:
        return {"addr", nullptr, "store_index"};
      case EventKind::kFcEvict:
        return {"addr", nullptr, nullptr};
      case EventKind::kFcDiscard:
        return {"live_entries", nullptr, nullptr};
      case EventKind::kLoadBufInsert:
        return {"seq", "addr", "overflowed"};
      case EventKind::kLoadBufSnoop:
        return {"addr", nullptr, "hit"};
      case EventKind::kLoadBufViolation:
        return {"seq", "addr", "ckpt"};
      case EventKind::kMemMissIssue:
        return {"line", "ready", nullptr};
      case EventKind::kMemMissReturn:
        return {"line", nullptr, nullptr};
      case EventKind::kNumKinds:
        break;
    }
    return {"a", "b", "c"};
}

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

/** {"name":"...","ph":"M",...} thread/process naming metadata. */
void
appendMetadataEvents(std::vector<std::string> &events,
                     const std::vector<bool> &tid_used)
{
    events.push_back("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                     "\"tid\":0,\"args\":{\"name\":\"srlsim\"}}");
    for (std::size_t s = 0; s < tid_used.size(); ++s) {
        if (!tid_used[s])
            continue;
        const auto *name = structureName(static_cast<Structure>(s));
        events.push_back(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
            u64(s + 1) + ",\"args\":{\"name\":\"" + name + "\"}}");
    }
}

std::string
instantEvent(const Event &e)
{
    const ArgNames names = argNames(e.kind);
    std::string ev = "{\"name\":\"";
    ev += eventKindName(e.kind);
    ev += "\",\"cat\":\"";
    ev += structureName(e.structure);
    ev += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    ev += u64(e.cycle);
    ev += ",\"pid\":1,\"tid\":";
    ev += u64(static_cast<std::uint64_t>(e.structure) + 1);
    ev += ",\"args\":{";
    bool first = true;
    const auto arg = [&](const char *name, std::uint64_t v) {
        if (!name)
            return;
        if (!first)
            ev += ",";
        first = false;
        ev += "\"";
        ev += name;
        ev += "\":";
        ev += u64(v);
    };
    arg(names.a, e.a);
    arg(names.b, e.b);
    arg(names.c, e.c);
    ev += "}}";
    return ev;
}

/** Async begin/end pair for a [start, end) window keyed by @p id. */
void
appendSpan(std::vector<std::string> &events, const char *name,
           const char *cat, std::uint64_t id, Cycle begin, Cycle end,
           std::uint64_t tid)
{
    const std::string common = std::string("\"name\":\"") + name +
                               "\",\"cat\":\"" + cat + "\",\"id\":\"" +
                               u64(id) + "\",\"pid\":1,\"tid\":" +
                               u64(tid);
    events.push_back("{" + common + ",\"ph\":\"b\",\"ts\":" +
                     u64(begin) + "}");
    if (end >= begin)
        events.push_back("{" + common + ",\"ph\":\"e\",\"ts\":" +
                         u64(end) + "}");
}

} // namespace

std::string
toChromeTrace(const Recording &rec)
{
    std::vector<std::string> events;
    events.reserve(rec.ring.size() + rec.sampler.samples().size() *
                                         rec.sampler.gaugeNames().size() +
                   16);

    std::vector<bool> tid_used(
        static_cast<std::size_t>(Structure::kNumStructures), false);
    rec.ring.forEach([&](const Event &e) {
        const auto s = static_cast<std::size_t>(e.structure);
        if (s < tid_used.size())
            tid_used[s] = true;
    });

    appendMetadataEvents(events, tid_used);

    const auto mem_tid =
        static_cast<std::uint64_t>(Structure::kMemory) + 1;
    const auto core_tid =
        static_cast<std::uint64_t>(Structure::kCore) + 1;

    // First surviving kMissExit per load seq, for span matching.
    std::unordered_map<std::uint64_t, Cycle> miss_exit_at;
    rec.ring.forEach([&](const Event &e) {
        if (e.kind == EventKind::kMissExit &&
            !miss_exit_at.count(e.a))
            miss_exit_at.emplace(e.a, e.cycle);
    });

    rec.ring.forEach([&](const Event &e) {
        events.push_back(instantEvent(e));
        // Span views for the two window-shaped event kinds: a memory
        // miss knows its fill time at issue (payload b), a load's
        // poison window closes at its matching kMissExit.
        if (e.kind == EventKind::kMemMissIssue)
            appendSpan(events, "mem_miss", "memory", e.a, e.cycle, e.b,
                       mem_tid);
        if (e.kind == EventKind::kMissEnter) {
            const auto it = miss_exit_at.find(e.a);
            if (it != miss_exit_at.end() && it->second >= e.cycle) {
                appendSpan(events, "load_miss", "core", e.a, e.cycle,
                           it->second, core_tid);
            } else {
                // Exit dropped from the ring or the run ended
                // mid-miss: emit only the begin (viewers tolerate it).
                events.push_back(
                    "{\"name\":\"load_miss\",\"cat\":\"core\",\"id\":"
                    "\"" + u64(e.a) + "\",\"pid\":1,\"tid\":" +
                    u64(core_tid) + ",\"ph\":\"b\",\"ts\":" +
                    u64(e.cycle) + "}");
            }
        }
    });

    const auto &names = rec.sampler.gaugeNames();
    for (const auto &sample : rec.sampler.samples()) {
        for (std::size_t g = 0; g < names.size(); ++g) {
            events.push_back("{\"name\":\"" +
                             json::jsonEscape(names[g]) +
                             "\",\"ph\":\"C\",\"ts\":" +
                             u64(sample.cycle) +
                             ",\"pid\":1,\"tid\":0,\"args\":{\"value\":" +
                             u64(sample.values[g]) + "}}");
        }
    }

    std::string out = "{\n  \"displayTimeUnit\": \"ns\",\n"
                      "  \"otherData\": {\n"
                      "    \"schema\": \"srlsim-trace-v1\",\n";
    for (const auto &[k, v] : rec.meta) {
        out += "    \"" + json::jsonEscape(k) + "\": \"" +
               json::jsonEscape(v) + "\",\n";
    }
    out += "    \"events_accepted\": \"" + u64(rec.ring.accepted()) +
           "\",\n";
    out += "    \"events_dropped\": \"" + u64(rec.ring.dropped()) +
           "\",\n";
    out += "    \"ring_capacity\": \"" + u64(rec.ring.capacity()) +
           "\",\n";
    out += "    \"sample_every\": \"" + u64(rec.sampler.interval()) +
           "\"\n  },\n  \"traceEvents\": [\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        out += "    ";
        out += events[i];
        out += i + 1 < events.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

stats::StatsReport
timelineReport(const Recording &rec)
{
    stats::StatsReport rep;
    rep.meta["schema"] = "srlsim-timeline-v1";
    for (const auto &[k, v] : rec.meta)
        rep.meta[k] = v;
    rep.meta["sample_every"] = u64(rec.sampler.interval());
    rep.meta["events_accepted"] = u64(rec.ring.accepted());
    rep.meta["events_dropped"] = u64(rec.ring.dropped());

    const auto &names = rec.sampler.gaugeNames();
    rep.runs.reserve(rec.sampler.samples().size());
    for (const auto &sample : rec.sampler.samples()) {
        stats::RunRecord r;
        r.name = "cycle_" + u64(sample.cycle);
        r.set("cycle", static_cast<double>(sample.cycle));
        for (std::size_t g = 0; g < names.size(); ++g)
            r.set(names[g], static_cast<double>(sample.values[g]));
        rep.runs.push_back(std::move(r));
    }
    return rep;
}

std::string
timelineCsv(const Recording &rec)
{
    return timelineReport(rec).toCsv();
}

double
percentSamplesAbove(const Recording &rec, const std::string &gauge,
                    std::uint64_t threshold)
{
    const auto &names = rec.sampler.gaugeNames();
    std::size_t idx = names.size();
    for (std::size_t g = 0; g < names.size(); ++g) {
        if (names[g] == gauge)
            idx = g;
    }
    if (idx == names.size())
        return 0.0;

    std::uint64_t occupied = 0, above = 0;
    for (const auto &sample : rec.sampler.samples()) {
        const std::uint64_t v = sample.values[idx];
        if (v > 0)
            ++occupied;
        if (v > threshold)
            ++above;
    }
    return occupied ? 100.0 * static_cast<double>(above) /
                          static_cast<double>(occupied)
                    : 0.0;
}

} // namespace obs
} // namespace srl
