#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

namespace actcomp::obs::json {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
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
  out += '"';
}

// Shortest decimal form that parses back to exactly the same double, so
// reports stay byte-stable across serialize/parse cycles without printing
// seventeen digits for every timing.
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan; report them as null
    out += "null";
    return;
  }
  char buf[32];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

// Arrays and objects recurse through parse_value once per level; past
// this depth parse() fails instead of overflowing the stack on hostile
// input. What the repo writes nests fewer than ten levels.
constexpr int kMaxDepth = 256;

}  // namespace

struct Parser {
  std::string_view text;
  size_t pos = 0;
  int depth = 0;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty()) {
      error = msg + " at byte " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return fail("bad literal");
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return fail("truncated escape");
        char e = text[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            // Exactly four hex digits: from_chars takes no sign, space or
            // 0x prefix into an unsigned value.
            const char* hex = text.data() + pos;
            unsigned cp = 0;
            const auto [end, ec] = std::from_chars(hex, hex + 4, cp, 16);
            if (ec != std::errc() || end != hex + 4) return fail("bad \\u escape");
            pos += 4;
            if (cp > 0x7f) return fail("non-ASCII \\u escape unsupported");
            out += static_cast<char>(cp);
            break;
          }
          default:
            return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_value(Value& out) {
    if (depth == kMaxDepth) {
      return fail("nesting deeper than " + std::to_string(kMaxDepth));
    }
    ++depth;
    const bool ok = parse_any(out);
    --depth;
    return ok;
  }

  bool parse_any(Value& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out = Value::object();
      skip_ws();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      // Key -> member position: a repeated key overwrites in O(1), not by
      // set()'s scan, so an object parses in time linear in its size.
      std::unordered_map<std::string, size_t> index;
      for (;;) {
        std::string key;
        skip_ws();
        if (!parse_string(key)) return false;
        if (!consume(':')) return false;
        Value v;
        if (!parse_value(v)) return false;
        const auto [it, fresh] = index.try_emplace(key, out.members_.size());
        if (fresh) {
          out.members_.emplace_back(std::move(key), std::move(v));
        } else {
          out.members_[it->second].second = std::move(v);
        }
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        return consume('}');
      }
    }
    if (c == '[') {
      ++pos;
      out = Value::array();
      skip_ws();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      for (;;) {
        Value v;
        if (!parse_value(v)) return false;
        out.push_back(std::move(v));
        skip_ws();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        return consume(']');
      }
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) return false;
      out = Value(std::move(s));
      return true;
    }
    if (c == 't') {
      if (!literal("true")) return false;
      out = Value(true);
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return false;
      out = Value(false);
      return true;
    }
    if (c == 'n') {
      if (!literal("null")) return false;
      out = Value();
      return true;
    }
    // number: integer when it has no fraction/exponent and fits int64
    const size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    bool is_double = false;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      if (text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E') {
        is_double = true;
      }
      ++pos;
    }
    if (pos == start) return fail("unexpected character");
    const std::string num(text.substr(start, pos - start));
    if (is_double) {
      out = Value(std::strtod(num.c_str(), nullptr));
    } else {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(num.c_str(), &end, 10);
      if (errno != 0 || end == num.c_str()) return fail("bad integer");
      out = Value(static_cast<int64_t>(v));
    }
    return true;
  }
};

void Value::push_back(Value v) {
  kind_ = Kind::kArray;
  items_.push_back(std::move(v));
}

size_t Value::size() const {
  return kind_ == Kind::kArray ? items_.size() : members_.size();
}

const Value& Value::at(size_t i) const { return items_.at(i); }

void Value::set(std::string_view key, Value v) {
  kind_ = Kind::kObject;
  for (auto& m : members_) {
    if (m.first == key) {
      m.second = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::string(key), std::move(v));
}

const Value* Value::find(std::string_view key) const {
  for (const auto& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: out += std::to_string(int_); break;
    case Kind::kDouble: append_double(out, double_); break;
    case Kind::kString: append_escaped(out, string_); break;
    case Kind::kArray: {
      out += '[';
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        append_escaped(out, members_[i].first);
        out += pretty ? ": " : ":";
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Value Value::parse(std::string_view text, std::string* err) {
  Parser p;
  p.text = text;
  Value v;
  if (!p.parse_value(v)) {
    if (err != nullptr) *err = p.error;
    return Value();
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (err != nullptr) *err = "trailing data at byte " + std::to_string(p.pos);
    return Value();
  }
  if (err != nullptr) err->clear();
  return v;
}

}  // namespace actcomp::obs::json
