#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace srl
{
namespace json
{

namespace
{

/** Nesting bound: every document srlsim reads is shallow. */
constexpr unsigned kMaxDepth = 64;

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parseDocument()
    {
        Value v = parseValue(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw ParseError("JSON: " + what + " at offset " +
                         std::to_string(pos_));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ >= text_.size())
            return false;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    consumeWord(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            // Append the run of plain bytes before the next quote,
            // backslash or control character in one go.
            std::size_t end = pos_;
            while (end < text_.size() && text_[end] != '"' &&
                   text_[end] != '\\' &&
                   static_cast<unsigned char>(text_[end]) >= 0x20)
                ++end;
            out.append(text_, pos_, end - pos_);
            pos_ = end;
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\')
                fail("raw control character in string");
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out += e;
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                unsigned cp = parseHex4();
                if (cp >= 0xdc00 && cp <= 0xdfff)
                    fail("lone low surrogate");
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // Outside the BMP: a high surrogate must be
                    // followed by an escaped low one.
                    if (text_.compare(pos_, 2, "\\u") != 0)
                        fail("lone high surrogate");
                    pos_ += 2;
                    const unsigned lo = parseHex4();
                    if (lo < 0xdc00 || lo > 0xdfff)
                        fail("high surrogate without a low one");
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    /** The four hex digits of a \u escape (pos_ is past the u). */
    unsigned
    parseHex4()
    {
        if (pos_ + 4 > text_.size())
            fail("truncated \\u escape");
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + i];
            unsigned nibble;
            if (h >= '0' && h <= '9')
                nibble = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                nibble = static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                nibble = static_cast<unsigned>(h - 'A' + 10);
            else
                fail("bad \\u escape digit");
            cp = (cp << 4) | nibble;
        }
        pos_ += 4;
        return cp;
    }

    /** Append code point @p cp (not a surrogate) as UTF-8. */
    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | cp >> 6);
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | cp >> 12);
            out += static_cast<char>(0x80 | (cp >> 6 & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | cp >> 18);
            out += static_cast<char>(0x80 | (cp >> 12 & 0x3f));
            out += static_cast<char>(0x80 | (cp >> 6 & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    double
    parseNumber()
    {
        skipWs();
        // Validate against the strict JSON number grammar before
        // handing to strtod: strtod alone also accepts leading zeros,
        // "+5", ".5", hex floats, inf and nan — all invalid JSON.
        const std::size_t start_pos = pos_;
        std::size_t p = pos_;
        const auto digit = [&](std::size_t i) {
            return i < text_.size() && text_[i] >= '0' &&
                   text_[i] <= '9';
        };
        if (p < text_.size() && text_[p] == '-')
            ++p;
        if (!digit(p))
            fail("expected number");
        if (text_[p] == '0') {
            ++p;
        } else {
            while (digit(p))
                ++p;
        }
        if (p < text_.size() && text_[p] == '.') {
            ++p;
            if (!digit(p))
                fail("bad number: digit required after '.'");
            while (digit(p))
                ++p;
        }
        if (p < text_.size() && (text_[p] == 'e' || text_[p] == 'E')) {
            ++p;
            if (p < text_.size() &&
                (text_[p] == '+' || text_[p] == '-'))
                ++p;
            if (!digit(p))
                fail("bad number: digit required in exponent");
            while (digit(p))
                ++p;
        }
        if (digit(p))
            fail("bad number: leading zero");
        const char *start = text_.c_str() + start_pos;
        char *end = nullptr;
        const double v = std::strtod(start, &end);
        if (end != start + (p - start_pos))
            fail("bad number");
        pos_ = p;
        return v;
    }

    Value
    parseValue(unsigned depth)
    {
        if (depth > kMaxDepth)
            fail("nesting too deep");
        const char c = peek();
        if (c == '{') {
            ++pos_;
            Value v = Value::object();
            if (consume('}'))
                return v;
            do {
                std::string key = parseString();
                expect(':');
                v.set(std::move(key), parseValue(depth + 1));
            } while (consume(','));
            expect('}');
            return v;
        }
        if (c == '[') {
            ++pos_;
            Value v = Value::array();
            if (consume(']'))
                return v;
            do {
                v.push(parseValue(depth + 1));
            } while (consume(','));
            expect(']');
            return v;
        }
        if (c == '"')
            return Value::str(parseString());
        if (c == '-' || (c >= '0' && c <= '9'))
            return Value::number(parseNumber());
        if (consumeWord("true"))
            return Value::boolean(true);
        if (consumeWord("false"))
            return Value::boolean(false);
        if (consumeWord("null"))
            return Value::null();
        return Value::number(parseNumber());
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

[[noreturn]] void
kindFail(const char *want)
{
    throw ParseError(std::string("JSON: value is not ") + want);
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

bool
Value::asBool() const
{
    if (kind_ != Kind::kBool)
        kindFail("a bool");
    return bool_;
}

double
Value::asNumber() const
{
    if (kind_ != Kind::kNumber)
        kindFail("a number");
    return num_;
}

std::uint64_t
Value::asU64() const
{
    const double v = asNumber();
    // 0x1p64 is 2^64, the first double out of range; !(v >= 0) also
    // catches NaN.
    if (!(v >= 0 && v < 0x1p64) || v != std::floor(v))
        kindFail("an integer in [0, 2^64)");
    return static_cast<std::uint64_t>(v);
}

const std::string &
Value::asString() const
{
    if (kind_ != Kind::kString)
        kindFail("a string");
    return str_;
}

const std::vector<Value> &
Value::items() const
{
    if (kind_ != Kind::kArray)
        kindFail("an array");
    return arr_;
}

const std::vector<std::pair<std::string, Value>> &
Value::members() const
{
    if (kind_ != Kind::kObject)
        kindFail("an object");
    return obj_;
}

const Value *
Value::find(const std::string &key) const
{
    if (kind_ != Kind::kObject)
        return nullptr;
    for (const auto &[k, v] : obj_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::string
Value::getString(const std::string &key,
                 const std::string &fallback) const
{
    const Value *v = find(key);
    return v ? v->asString() : fallback;
}

std::uint64_t
Value::getU64(const std::string &key, std::uint64_t fallback) const
{
    const Value *v = find(key);
    return v ? v->asU64() : fallback;
}

bool
Value::getBool(const std::string &key, bool fallback) const
{
    const Value *v = find(key);
    return v ? v->asBool() : fallback;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *v = find(key);
    if (!v)
        throw ParseError("JSON: missing required field '" +
                         key + "'");
    return *v;
}

Value &
Value::set(std::string key, Value v)
{
    if (kind_ != Kind::kObject)
        kindFail("an object");
    for (auto &[k, existing] : obj_) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    obj_.emplace_back(std::move(key), std::move(v));
    return *this;
}

Value &
Value::push(Value v)
{
    if (kind_ != Kind::kArray)
        kindFail("an array");
    arr_.push_back(std::move(v));
    return *this;
}

void
Value::dumpTo(std::string &out) const
{
    switch (kind_) {
      case Kind::kNull:
        out += "null";
        break;
      case Kind::kBool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::kNumber:
        out += stats::formatDouble(num_);
        break;
      case Kind::kString:
        out += '"';
        out += jsonEscape(str_);
        out += '"';
        break;
      case Kind::kArray: {
        out += '[';
        bool first = true;
        for (const auto &v : arr_) {
            if (!first)
                out += ',';
            first = false;
            v.dumpTo(out);
        }
        out += ']';
        break;
      }
      case Kind::kObject: {
        out += '{';
        bool first = true;
        for (const auto &[k, v] : obj_) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            out += jsonEscape(k);
            out += "\":";
            v.dumpTo(out);
        }
        out += '}';
        break;
      }
    }
}

std::string
Value::dump() const
{
    std::string out;
    dumpTo(out);
    return out;
}

Value
Value::parse(const std::string &text)
{
    Parser p(text);
    return p.parseDocument();
}

} // namespace json
} // namespace srl
