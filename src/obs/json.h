// Minimal JSON value for the observability layer (obs/report.h).
//
// Why hand-rolled: the container bakes no JSON dependency, and the repo's
// machine-readable artifacts (RunReport, BENCH_kernels.json) need one
// canonical serializer whose output is deterministic — object keys keep
// insertion order, doubles print with the shortest representation that
// round-trips, so `diff` on two reports shows real changes only. The parser
// exists for the schema round-trip tests and the docs tooling, not as a
// general-purpose JSON library: it accepts exactly the subset dump() emits
// (no \u escapes beyond ASCII control chars, no comments).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace actcomp::obs::json {

class Value;
using Array = std::vector<Value>;
/// Objects preserve insertion order (the schema reads top-down) and hold
/// each key once: set() on an existing key, like a repeated key in parse(),
/// overwrites the value in the first key's position.
using Member = std::pair<std::string, Value>;

enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

class Value {
 public:
  Value() : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}                  // NOLINT
  Value(int v) : kind_(Kind::kInt), int_(v) {}                     // NOLINT
  Value(int64_t v) : kind_(Kind::kInt), int_(v) {}                 // NOLINT
  Value(double v) : kind_(Kind::kDouble), double_(v) {}            // NOLINT
  Value(const char* s) : kind_(Kind::kString), string_(s) {}       // NOLINT
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT

  static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  bool as_bool() const { return bool_; }
  int64_t as_int() const { return int_; }
  /// Numeric value of an int or double node.
  double as_double() const { return kind_ == Kind::kInt ? static_cast<double>(int_) : double_; }
  const std::string& as_string() const { return string_; }

  // ---- array ----
  void push_back(Value v);
  size_t size() const;
  const Value& at(size_t i) const;

  // ---- object ----
  /// Insert or overwrite a member, preserving first-insertion order.
  void set(std::string_view key, Value v);
  /// Member lookup; nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;
  const std::vector<Member>& members() const { return members_; }

  /// Serialize. indent < 0: compact one-line form; indent >= 0: pretty-print
  /// with that many spaces per level. Deterministic: same Value, same bytes.
  std::string dump(int indent = -1) const;

  /// Parse the subset dump() emits (standard JSON without unicode escapes).
  /// On failure returns null and, when err != nullptr, a message with the
  /// byte offset.
  static Value parse(std::string_view text, std::string* err = nullptr);

 private:
  friend struct Parser;  // builds objects member by member, in linear time

  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array items_;                  // kArray
  std::vector<Member> members_;  // kObject
};

}  // namespace actcomp::obs::json
