// revft/support/json.h
//
// Minimal ordered JSON document model shared by every emitter in the
// repo: the bench result files (bench/bench_common's JsonResultWriter
// builds its nested sections on it), the telemetry RunReport and
// Chrome-trace exporters (src/telemetry/), and the validation side of
// the same pipeline (examples/telemetry_check, the golden-file tests).
//
// Design constraints, in order:
//   * ORDERED objects — keys serialize in insertion order, so emitted
//     files diff cleanly across runs and PRs (a std::map would sort).
//   * Lossless numbers — 64-bit integers are kept exact (a double
//     mantissa silently rounds anything above 2^53: seeds, trial
//     counts); doubles print with %.17g round-trip precision, and
//     non-finite values serialize as null (JSON has no inf/nan — the
//     retry-cost columns are infinite when every trial aborts).
//   * A STRICT parser for round-trip validation: parse(dump(v))
//     succeeds for every value this model can hold, and the parser
//     rejects trailing garbage, unterminated strings, bad escapes and
//     malformed numbers with a position-stamped error. It exists to
//     prove emitted files are valid JSON (CI gates on it), not to be
//     a general-purpose reader — numbers parse into int64/uint64 when
//     exact and double otherwise, and \uXXXX escapes (surrogate pairs
//     included; an unpaired surrogate is an error) decode to UTF-8, so
//     dump(parse(dump(v))) == dump(v).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace revft::json {

class Value;

/// Ordered key/value list (insertion order preserved; duplicate keys
/// are legal to build but the strict parser flags them).
using Member = std::pair<std::string, Value>;

enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

/// One JSON value. Construction is by static factories / implicit
/// conversions; objects and arrays grow with set()/push_back().
class Value {
 public:
  Value() : kind_(Kind::kNull) {}
  Value(std::nullptr_t) : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  Value(std::uint64_t v) : kind_(Kind::kUint), uint_(v) {}
  Value(int v) : kind_(Kind::kInt), int_(v) {}
  Value(unsigned v) : kind_(Kind::kUint), uint_(v) {}
  Value(double v) : kind_(Kind::kDouble), double_(v) {}
  Value(const char* s) : kind_(Kind::kString), string_(s) {}
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }
  static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }

  Kind kind() const noexcept { return kind_; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_number() const noexcept {
    return kind_ == Kind::kInt || kind_ == Kind::kUint || kind_ == Kind::kDouble;
  }

  /// Object member access. set() appends (or overwrites an existing
  /// key in place, keeping its position); find() returns nullptr when
  /// absent. Calling on a non-object is a programming error (checked).
  Value& set(const std::string& key, Value value);
  const Value* find(const std::string& key) const noexcept;
  Value* find(const std::string& key) noexcept {
    return const_cast<Value*>(static_cast<const Value&>(*this).find(key));
  }
  const std::vector<Member>& members() const noexcept { return members_; }

  /// Array element access.
  Value& push_back(Value value);
  const std::vector<Value>& elements() const noexcept { return elements_; }
  std::size_t size() const noexcept {
    return kind_ == Kind::kArray ? elements_.size() : members_.size();
  }

  // Scalar reads (valid only for the matching kind; checked).
  bool as_bool() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  /// Numeric read across kInt/kUint/kDouble.
  double as_double() const;
  const std::string& as_string() const;

  /// Serialize. indent=0 emits one line; indent>0 pretty-prints with
  /// that many spaces per level. Non-finite doubles emit null.
  std::string dump(int indent = 0) const;

 private:
  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Value> elements_;
  std::vector<Member> members_;
};

/// Escape a string for embedding in a JSON document (quotes not
/// included). Handles quotes, backslash and control characters.
std::string escape(const std::string& s);

/// Strict parse result: either a value or a diagnostic naming the
/// byte offset of the failure.
struct ParseResult {
  bool ok = false;
  Value value;
  std::string error;   ///< empty when ok
  std::size_t offset = 0;  ///< byte offset of the failure (when !ok)
};

/// Parse one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected). Duplicate object keys are rejected —
/// an emitter bug this repo wants caught, not tolerated.
ParseResult parse(const std::string& text);

}  // namespace revft::json
