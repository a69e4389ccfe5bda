#ifndef SPLITWISE_CORE_JSON_H_
#define SPLITWISE_CORE_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace splitwise::core {

/**
 * A minimal JSON document model with a recursive-descent parser.
 *
 * Exists so the simulator's JSON artifacts (run reports, DST
 * scenario files) can be read back without an external dependency.
 * Covers the JSON the repo emits: objects, arrays, doubles, strings
 * with basic escapes, booleans, null. Object key order is preserved
 * so dump() round-trips parse() byte-for-byte on our own output.
 */
class JsonValue {
  public:
    enum class Type {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    JsonValue() = default;
    explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
    explicit JsonValue(double n) : type_(Type::kNumber), number_(n) {}
    explicit JsonValue(std::int64_t n)
        : type_(Type::kNumber), number_(static_cast<double>(n)) {}
    explicit JsonValue(std::string s)
        : type_(Type::kString), string_(std::move(s)) {}

    /** Parse a complete JSON document; fatal() on malformed input. */
    static JsonValue parse(const std::string& text);

    /** Build an empty array/object value. */
    static JsonValue makeArray();
    static JsonValue makeObject();

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::kNull; }
    bool isBool() const { return type_ == Type::kBool; }
    bool isNumber() const { return type_ == Type::kNumber; }
    bool isString() const { return type_ == Type::kString; }
    bool isArray() const { return type_ == Type::kArray; }
    bool isObject() const { return type_ == Type::kObject; }

    /** Typed accessors; fatal() on type mismatch. */
    bool asBool() const;
    double asNumber() const;
    /** Truncates toward zero; fatal() on a non-finite number or one
     *  outside the int64 range. */
    std::int64_t asInt() const;
    const std::string& asString() const;

    /** Array access; fatal() when not an array / out of range. */
    std::size_t size() const;
    const JsonValue& at(std::size_t index) const;
    const std::vector<JsonValue>& items() const;

    /** Object access; fatal() when not an object. */
    bool has(const std::string& key) const;
    /** Member lookup; fatal() when the key is absent. */
    const JsonValue& at(const std::string& key) const;
    /** Member lookup with a fallback for absent keys. */
    const JsonValue& get(const std::string& key,
                         const JsonValue& fallback) const;
    const std::vector<std::pair<std::string, JsonValue>>& members() const;

    /** Append to an array value. */
    void push(JsonValue v);

    /** Set an object member (appends; last set wins on lookup). */
    void set(const std::string& key, JsonValue v);

    /** Serialize; numbers use %.17g so doubles round-trip exactly. */
    std::string dump() const;

  private:
    Type type_ = Type::kNull;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

/** Escape a string for embedding in a JSON document (no quotes). */
std::string jsonEscape(const std::string& s);

}  // namespace splitwise::core

#endif  // SPLITWISE_CORE_JSON_H_
