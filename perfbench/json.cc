#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "perfbench.h"

namespace perfbench {
namespace {

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  std::optional<Json> Document() {
    std::optional<Json> value = Value(0);
    SkipSpace();
    if (!value || pos_ != text_.size()) return std::nullopt;
    return value;
  }

 private:
  static constexpr int kMaxDepth = 32;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view token) {
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  std::optional<std::string> String() {
    if (!Consume("\"")) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char e = text_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          const std::string hex(text_.substr(pos_, 4));
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return std::nullopt;
          pos_ += 4;
          // Names in this corpus are ASCII; anything wider keeps its escape.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else {
            out += "\\u" + hex;
          }
          break;
        }
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;
  }

  std::optional<Json> Value(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    SkipSpace();
    if (pos_ >= text_.size()) return std::nullopt;
    Json out;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = Json::Kind::kObject;
      SkipSpace();
      if (Consume("}")) return out;
      while (true) {
        SkipSpace();
        std::optional<std::string> key = String();
        SkipSpace();
        if (!key || !Consume(":")) return std::nullopt;
        std::optional<Json> member = Value(depth + 1);
        if (!member) return std::nullopt;
        out.members.emplace_back(std::move(*key), std::move(*member));
        SkipSpace();
        if (Consume("}")) return out;
        if (!Consume(",")) return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = Json::Kind::kArray;
      SkipSpace();
      if (Consume("]")) return out;
      while (true) {
        std::optional<Json> item = Value(depth + 1);
        if (!item) return std::nullopt;
        out.items.push_back(std::move(*item));
        SkipSpace();
        if (Consume("]")) return out;
        if (!Consume(",")) return std::nullopt;
      }
    }
    if (c == '"') {
      std::optional<std::string> s = String();
      if (!s) return std::nullopt;
      out.kind = Json::Kind::kString;
      out.text = std::move(*s);
      return out;
    }
    if (Consume("true")) {
      out.kind = Json::Kind::kBool;
      out.boolean = true;
      return out;
    }
    if (Consume("false")) {
      out.kind = Json::Kind::kBool;
      return out;
    }
    if (Consume("null")) return out;
    const size_t begin = pos_;
    while (pos_ < text_.size() &&
           std::string_view("+-0123456789.eE").find(text_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == begin) return std::nullopt;
    out.kind = Json::Kind::kNumber;
    out.text = std::string(text_.substr(begin, pos_ - begin));
    char* end = nullptr;
    out.number = std::strtod(out.text.c_str(), &end);
    if (end != out.text.c_str() + out.text.size()) return std::nullopt;
    return out;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const Json* Json::Find(std::string_view key) const {
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::optional<Json> ParseJson(std::string_view text) {
  return Reader(text).Document();
}

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
