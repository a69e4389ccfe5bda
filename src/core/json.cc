#include "core/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "sim/log.h"

namespace splitwise::core {

namespace {

/** Cursor over the input text with shared error reporting. */
struct Parser {
    const std::string& text;
    std::size_t pos = 0;

    [[noreturn]] void
    fail(const std::string& what) const
    {
        sim::fatal("JsonValue::parse: " + what + " at offset " +
                   std::to_string(pos));
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
    }

    char
    peek()
    {
        skipSpace();
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && peek() == c) {
            ++pos;
            return true;
        }
        return false;
    }

    void
    literal(const char* word)
    {
        for (const char* p = word; *p; ++p) {
            if (pos >= text.size() || text[pos] != *p)
                fail(std::string("bad literal (wanted \"") + word + "\")");
            ++pos;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            const char e = text[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    fail("truncated \\u escape");
                const unsigned code = static_cast<unsigned>(
                    std::strtoul(text.substr(pos, 4).c_str(), nullptr, 16));
                pos += 4;
                // Our own emitters never produce non-ASCII escapes;
                // anything above 7F is replaced rather than decoded.
                out += code < 0x80 ? static_cast<char>(code) : '?';
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    JsonValue
    parseValue()
    {
        const char c = peek();
        if (c == '{') {
            ++pos;
            JsonValue obj = JsonValue::makeObject();
            if (consume('}'))
                return obj;
            while (true) {
                std::string key = parseString();
                expect(':');
                obj.set(key, parseValue());
                if (consume(','))
                    continue;
                expect('}');
                return obj;
            }
        }
        if (c == '[') {
            ++pos;
            JsonValue arr = JsonValue::makeArray();
            if (consume(']'))
                return arr;
            while (true) {
                arr.push(parseValue());
                if (consume(','))
                    continue;
                expect(']');
                return arr;
            }
        }
        if (c == '"')
            return JsonValue(parseString());
        if (c == 't') {
            literal("true");
            return JsonValue(true);
        }
        if (c == 'f') {
            literal("false");
            return JsonValue(false);
        }
        if (c == 'n') {
            literal("null");
            return JsonValue();
        }
        // Number.
        const std::size_t start = pos;
        if (c == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
                text[pos] == '+' || text[pos] == '-')) {
            ++pos;
        }
        if (pos == start)
            fail("unexpected character");
        char* end = nullptr;
        const std::string token = text.substr(start, pos - start);
        const double value = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0')
            fail("malformed number \"" + token + "\"");
        return JsonValue(value);
    }
};

}  // namespace

JsonValue
JsonValue::parse(const std::string& text)
{
    Parser parser{text};
    JsonValue value = parser.parseValue();
    parser.skipSpace();
    if (parser.pos != text.size())
        parser.fail("trailing garbage");
    return value;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
}

bool
JsonValue::asBool() const
{
    if (type_ != Type::kBool)
        sim::fatal("JsonValue: not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (type_ != Type::kNumber)
        sim::fatal("JsonValue: not a number");
    return number_;
}

std::int64_t
JsonValue::asInt() const
{
    const double v = asNumber();
    // [-2^63, 2^63) is exactly the range a double converts to int64
    // without undefined behaviour; the negated test also rejects NaN.
    if (!(v >= -0x1p63 && v < 0x1p63))
        sim::fatal("JsonValue: number out of int64 range");
    return static_cast<std::int64_t>(v);
}

const std::string&
JsonValue::asString() const
{
    if (type_ != Type::kString)
        sim::fatal("JsonValue: not a string");
    return string_;
}

std::size_t
JsonValue::size() const
{
    if (type_ == Type::kArray)
        return array_.size();
    if (type_ == Type::kObject)
        return object_.size();
    sim::fatal("JsonValue: size() of a scalar");
}

const JsonValue&
JsonValue::at(std::size_t index) const
{
    if (type_ != Type::kArray)
        sim::fatal("JsonValue: not an array");
    if (index >= array_.size())
        sim::fatal("JsonValue: array index out of range");
    return array_[index];
}

const std::vector<JsonValue>&
JsonValue::items() const
{
    if (type_ != Type::kArray)
        sim::fatal("JsonValue: not an array");
    return array_;
}

bool
JsonValue::has(const std::string& key) const
{
    if (type_ != Type::kObject)
        sim::fatal("JsonValue: not an object");
    for (const auto& [k, v] : object_) {
        if (k == key)
            return true;
    }
    return false;
}

const JsonValue&
JsonValue::at(const std::string& key) const
{
    if (type_ != Type::kObject)
        sim::fatal("JsonValue: not an object");
    // Last set wins, matching set()'s append semantics.
    for (auto it = object_.rbegin(); it != object_.rend(); ++it) {
        if (it->first == key)
            return it->second;
    }
    sim::fatal("JsonValue: missing key \"" + key + "\"");
}

const JsonValue&
JsonValue::get(const std::string& key, const JsonValue& fallback) const
{
    return has(key) ? at(key) : fallback;
}

const std::vector<std::pair<std::string, JsonValue>>&
JsonValue::members() const
{
    if (type_ != Type::kObject)
        sim::fatal("JsonValue: not an object");
    return object_;
}

void
JsonValue::push(JsonValue v)
{
    if (type_ != Type::kArray)
        sim::fatal("JsonValue: push on a non-array");
    array_.push_back(std::move(v));
}

void
JsonValue::set(const std::string& key, JsonValue v)
{
    if (type_ != Type::kObject)
        sim::fatal("JsonValue: set on a non-object");
    object_.emplace_back(key, std::move(v));
}

std::string
JsonValue::dump() const
{
    switch (type_) {
      case Type::kNull:
        return "null";
      case Type::kBool:
        return bool_ ? "true" : "false";
      case Type::kNumber: {
        // Integral values print without an exponent or fraction so
        // ids and counters stay readable; %.17g round-trips the rest.
        char buf[64];
        const auto as_int = static_cast<std::int64_t>(number_);
        if (static_cast<double>(as_int) == number_) {
            std::snprintf(buf, sizeof(buf), "%lld",
                          static_cast<long long>(as_int));
        } else {
            std::snprintf(buf, sizeof(buf), "%.17g", number_);
        }
        return buf;
      }
      case Type::kString:
        return '"' + jsonEscape(string_) + '"';
      case Type::kArray: {
        std::string out = "[";
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i > 0)
                out += ',';
            out += array_[i].dump();
        }
        return out + ']';
      }
      case Type::kObject: {
        std::string out = "{";
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i > 0)
                out += ',';
            out += '"' + jsonEscape(object_[i].first) +
                   "\":" + object_[i].second.dump();
        }
        return out + '}';
      }
    }
    return "null";
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

}  // namespace splitwise::core
