#include "src/obs/json.h"

#include <cmath>
#include <cstdio>

namespace pqs {
namespace obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
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

void AppendJsonKey(std::string* out, const std::string& key) {
  out->push_back('"');
  *out += JsonEscape(key);
  *out += "\": ";
}

std::string JsonNumber(double value, int decimals) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

void JsonBuilder::Comma() {
  if (scope_has_member_.empty()) return;
  if (scope_has_member_.back()) out_ += ", ";
  scope_has_member_.back() = true;
}

void JsonBuilder::Key(const std::string& key) { AppendJsonKey(&out_, key); }

void JsonBuilder::OpenScope(char bracket, const std::string* key) {
  Comma();
  if (key != nullptr) Key(*key);
  out_.push_back(bracket);
  scope_has_member_.push_back(false);
}

void JsonBuilder::CloseScope(char bracket) {
  scope_has_member_.pop_back();
  out_.push_back(bracket);
}

void JsonBuilder::Field(const std::string& key, uint64_t value) {
  Comma();
  Key(key);
  out_ += std::to_string(value);
}

void JsonBuilder::Element(uint64_t value) {
  Comma();
  out_ += std::to_string(value);
}

}  // namespace obs
}  // namespace pqs
