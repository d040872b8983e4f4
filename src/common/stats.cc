#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "json.hh"
#include "logging.hh"

namespace srl
{
namespace stats
{

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0)
{
    panic_if(!std::is_sorted(bounds_.begin(), bounds_.end()),
             "Histogram bounds must be sorted");
}

void
Histogram::sample(std::uint64_t v, std::uint64_t weight)
{
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const auto idx = static_cast<std::size_t>(it - bounds_.begin());
    counts_[idx] += weight;
    total_ += weight;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
}

double
Histogram::fractionAbove(std::uint64_t threshold) const
{
    if (total_ == 0)
        return 0.0;
    std::uint64_t above = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        // Bucket i covers values <= bounds_[i] (last bucket: above all).
        const bool bucket_above =
            i >= bounds_.size() || bounds_[i] > threshold;
        if (bucket_above)
            above += counts_[i];
    }
    return static_cast<double>(above) / static_cast<double>(total_);
}

void
Occupancy::observe(std::uint64_t entries, std::uint64_t cycles)
{
    if (cycles == 0)
        return;
    cycles_at_[entries] += cycles;
    total_cycles_ += cycles;
    if (entries > 0)
        occupied_cycles_ += cycles;
    peak_ = std::max(peak_, entries);
}

void
Occupancy::reset()
{
    cycles_at_.clear();
    occupied_cycles_ = 0;
    total_cycles_ = 0;
    peak_ = 0;
}

void
Occupancy::merge(const Occupancy &other)
{
    for (const auto &[entries, cycles] : other.cycles_at_)
        observe(entries, cycles);
}

double
Occupancy::percentAbove(std::uint64_t threshold) const
{
    if (occupied_cycles_ == 0)
        return 0.0;
    std::uint64_t above = 0;
    for (const auto &[entries, cycles] : cycles_at_) {
        if (entries > threshold)
            above += cycles;
    }
    return 100.0 * static_cast<double>(above) /
           static_cast<double>(occupied_cycles_);
}

double
Occupancy::percentOccupied() const
{
    if (total_cycles_ == 0)
        return 0.0;
    return 100.0 * static_cast<double>(occupied_cycles_) /
           static_cast<double>(total_cycles_);
}

void
StatGroup::registerScalar(const std::string &name, const Scalar *s,
                          const std::string &desc)
{
    entries_.push_back({name, Kind::kScalar, s, desc});
}

void
StatGroup::registerAverage(const std::string &name, const Average *a,
                           const std::string &desc)
{
    entries_.push_back({name, Kind::kAverage, a, desc});
}

void
StatGroup::registerValue(const std::string &name, const double *v,
                         const std::string &desc)
{
    entries_.push_back({name, Kind::kValue, v, desc});
}

std::vector<StatRow>
StatGroup::snapshot() const
{
    std::vector<StatRow> rows;
    rows.reserve(entries_.size());
    for (const auto &e : entries_) {
        double v = 0;
        switch (e.kind) {
          case Kind::kScalar:
            v = static_cast<double>(
                static_cast<const Scalar *>(e.ptr)->value());
            break;
          case Kind::kAverage:
            v = static_cast<const Average *>(e.ptr)->mean();
            break;
          case Kind::kValue:
            v = *static_cast<const double *>(e.ptr);
            break;
        }
        rows.push_back({e.name, v, e.desc});
    }
    return rows;
}

std::string
StatGroup::format() const
{
    std::string out = name_ + "\n";
    std::size_t width = 0;
    const auto rows = snapshot();
    for (const auto &r : rows)
        width = std::max(width, r.name.size());
    char buf[256];
    for (const auto &r : rows) {
        std::snprintf(buf, sizeof(buf), "  %-*s %16.4f  # %s\n",
                      static_cast<int>(width), r.name.c_str(), r.value,
                      r.desc.c_str());
        out += buf;
    }
    return out;
}

std::string
formatDouble(double v)
{
    if (std::isnan(v))
        return "null";
    if (std::isinf(v))
        return v > 0 ? "1e999" : "-1e999";
    char buf[40];
    for (const int prec : {15, 16, 17}) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

void
RunRecord::set(const std::string &key, double v)
{
    for (auto &[k, val] : metrics) {
        if (k == key) {
            val = v;
            return;
        }
    }
    metrics.emplace_back(key, v);
}

bool
RunRecord::hasMetric(const std::string &key) const
{
    for (const auto &[k, v] : metrics) {
        if (k == key)
            return true;
    }
    return false;
}

double
RunRecord::metric(const std::string &key) const
{
    for (const auto &[k, v] : metrics) {
        if (k == key)
            return v;
    }
    throw std::out_of_range("RunRecord '" + name + "' has no metric '" +
                            key + "'");
}

// ------------------------------------------------------------- JSON out

namespace
{

void
appendStringMap(std::string &out,
                const std::map<std::string, std::string> &m,
                const char *indent, const char *close_indent)
{
    out += "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        out += first ? "\n" : ",\n";
        first = false;
        out += indent;
        out += "\"" + json::jsonEscape(k) + "\": \"" +
               json::jsonEscape(v) + "\"";
    }
    if (!first) {
        out += "\n";
        out += close_indent;
    }
    out += "}";
}

} // namespace

std::string
StatsReport::toJson() const
{
    std::string out = "{\n  \"schema\": \"srlsim-stats-v1\",\n";
    out += "  \"meta\": ";
    appendStringMap(out, meta, "    ", "  ");
    out += ",\n  \"runs\": [";
    bool first_run = true;
    for (const auto &r : runs) {
        out += first_run ? "\n" : ",\n";
        first_run = false;
        out += "    {\n      \"name\": \"" + json::jsonEscape(r.name) +
               "\",\n";
        if (!r.error.empty())
            out += "      \"error\": \"" + json::jsonEscape(r.error) +
                   "\",\n";
        out += "      \"meta\": ";
        appendStringMap(out, r.meta, "        ", "      ");
        out += ",\n      \"metrics\": {";
        bool first_m = true;
        for (const auto &[k, v] : r.metrics) {
            out += first_m ? "\n" : ",\n";
            first_m = false;
            out += "        \"" + json::jsonEscape(k) +
                   "\": " + formatDouble(v);
        }
        if (!first_m)
            out += "\n      ";
        out += "}\n    }";
    }
    if (!first_run)
        out += "\n  ";
    out += "]\n}\n";
    return out;
}

// -------------------------------------------------------------- CSV out

namespace
{

std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
StatsReport::toCsv() const
{
    // Column union: sorted meta keys, then metric names in
    // first-appearance order across runs.
    std::set<std::string> meta_keys;
    std::vector<std::string> metric_keys;
    std::set<std::string> metric_seen;
    for (const auto &r : runs) {
        for (const auto &[k, v] : r.meta)
            meta_keys.insert(k);
        for (const auto &[k, v] : r.metrics) {
            if (metric_seen.insert(k).second)
                metric_keys.push_back(k);
        }
    }

    std::string out = "name,error";
    for (const auto &k : meta_keys)
        out += "," + csvEscape(k);
    for (const auto &k : metric_keys)
        out += "," + csvEscape(k);
    out += "\n";

    for (const auto &r : runs) {
        out += csvEscape(r.name) + "," + csvEscape(r.error);
        for (const auto &k : meta_keys) {
            const auto it = r.meta.find(k);
            out += ",";
            if (it != r.meta.end())
                out += csvEscape(it->second);
        }
        for (const auto &k : metric_keys) {
            out += ",";
            if (r.hasMetric(k))
                out += formatDouble(r.metric(k));
        }
        out += "\n";
    }
    return out;
}

// ------------------------------------------------------------- JSON in

namespace
{

[[noreturn]] void
fail(const std::string &what)
{
    throw ParseError("stats JSON: " + what);
}

std::map<std::string, std::string>
stringMapFrom(const json::Value &v)
{
    std::map<std::string, std::string> out;
    for (const auto &[k, s] : v.members())
        out[k] = s.asString();
    return out;
}

/** Metrics keep member order; null is how toJson writes NaN. */
std::vector<std::pair<std::string, double>>
metricsFrom(const json::Value &v)
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(v.members().size());
    for (const auto &[k, m] : v.members())
        out.emplace_back(k, m.isNull() ? std::nan("") : m.asNumber());
    return out;
}

RunRecord
runFrom(const json::Value &v)
{
    RunRecord r;
    for (const auto &[k, f] : v.members()) {
        if (k == "name")
            r.name = f.asString();
        else if (k == "error")
            r.error = f.asString();
        else if (k == "meta")
            r.meta = stringMapFrom(f);
        else if (k == "metrics")
            r.metrics = metricsFrom(f);
        else
            fail("unknown run key '" + k + "'");
    }
    return r;
}

} // namespace

StatsReport
StatsReport::fromJson(const std::string &text)
{
    const json::Value doc = json::Value::parse(text);
    StatsReport rep;
    bool saw_schema = false;
    for (const auto &[k, v] : doc.members()) {
        if (k == "schema") {
            if (v.asString() != "srlsim-stats-v1")
                fail("unsupported schema '" + v.asString() + "'");
            saw_schema = true;
        } else if (k == "meta") {
            rep.meta = stringMapFrom(v);
        } else if (k == "runs") {
            for (const auto &r : v.items())
                rep.runs.push_back(runFrom(r));
        } else {
            fail("unknown report key '" + k + "'");
        }
    }
    if (!saw_schema)
        fail("missing schema marker");
    return rep;
}

} // namespace stats
} // namespace srl
