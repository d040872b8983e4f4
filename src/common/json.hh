/**
 * @file
 * The one JSON codec. Value is a parsed document: parse one text into
 * a tree, read it field by field through typed accessors, and dump a
 * tree back to a compact single line. Object member order is preserved
 * on both sides so dumps are deterministic. jsonEscape is the one
 * string escape every writer shares (the srlsim-stats-v1 report, the
 * srlsim-service-v1 protocol lines, the obs trace and timeline files).
 *
 * Malformed input of any kind — truncation, bad escapes, lone
 * surrogates, numbers outside the strict JSON grammar, trailing
 * garbage, over-deep nesting, a value of the wrong kind — raises
 * stats::ParseError, never UB.
 */

#ifndef SRLSIM_COMMON_JSON_HH
#define SRLSIM_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"

namespace srl
{
namespace json
{

/** Parse failure; the stats error, so one catch covers both layers. */
using ParseError = stats::ParseError;

/**
 * Escape @p s for the inside of a JSON string: quote, backslash and
 * control characters; every other byte (UTF-8 included) passes raw.
 */
std::string jsonEscape(const std::string &s);

class Value
{
  public:
    enum class Kind : std::uint8_t
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Value() = default;

    static Value null() { return Value(); }
    static Value
    boolean(bool b)
    {
        Value v;
        v.kind_ = Kind::kBool;
        v.bool_ = b;
        return v;
    }
    static Value
    number(double n)
    {
        Value v;
        v.kind_ = Kind::kNumber;
        v.num_ = n;
        return v;
    }
    static Value
    str(std::string s)
    {
        Value v;
        v.kind_ = Kind::kString;
        v.str_ = std::move(s);
        return v;
    }
    static Value
    array()
    {
        Value v;
        v.kind_ = Kind::kArray;
        return v;
    }
    static Value
    object()
    {
        Value v;
        v.kind_ = Kind::kObject;
        return v;
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::kNull; }
    bool isObject() const { return kind_ == Kind::kObject; }
    bool isArray() const { return kind_ == Kind::kArray; }
    bool isString() const { return kind_ == Kind::kString; }
    bool isNumber() const { return kind_ == Kind::kNumber; }
    bool isBool() const { return kind_ == Kind::kBool; }

    /** Typed accessors; throw ParseError on a kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    /** An integer in [0, 2^64); fractions and overflow throw too. */
    std::uint64_t asU64() const;
    const std::string &asString() const;
    const std::vector<Value> &items() const;
    const std::vector<std::pair<std::string, Value>> &members() const;

    /** Object member by key; null when absent or not an object. */
    const Value *find(const std::string &key) const;

    /**
     * Getters for optional fields: @p fallback when the key is absent,
     * ParseError when it is present with the wrong kind.
     */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback = 0) const;
    bool getBool(const std::string &key, bool fallback = false) const;

    /** Required-field getters; throw ParseError when absent. */
    const Value &at(const std::string &key) const;

    /** Builders (object/array only; throw on kind mismatch). */
    Value &set(std::string key, Value v);
    Value &push(Value v);

    /**
     * Compact single-line serialization (no spaces, members in
     * insertion order, numbers via stats::formatDouble so a
     * dump/parse/dump cycle is byte-stable).
     */
    std::string dump() const;

    /**
     * Parse exactly one JSON document; trailing non-whitespace is an
     * error. @throws ParseError on any malformed input.
     */
    static Value parse(const std::string &text);

  private:
    void dumpTo(std::string &out) const;

    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    double num_ = 0;
    std::string str_;
    std::vector<Value> arr_;
    std::vector<std::pair<std::string, Value>> obj_;
};

} // namespace json
} // namespace srl

#endif // SRLSIM_COMMON_JSON_HH
