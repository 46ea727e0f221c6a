#include "src/sqlvalue/value.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pqs {

namespace {

std::string FormatReal(double v) {
  char buf[64];
  // %.17g round-trips every double; trim the noise for the common short
  // values the generator actually emits (0.5, -3.25, ...).
  snprintf(buf, sizeof(buf), "%.17g", v);
  double parsed = strtod(buf, nullptr);
  if (parsed == v) {
    char shorter[64];
    snprintf(shorter, sizeof(shorter), "%g", v);
    if (strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

}  // namespace

std::string SqlValue::ToSqlLiteral() const {
  switch (cls) {
    case StorageClass::kNull:
      return "NULL";
    case StorageClass::kInteger:
      return std::to_string(i);
    case StorageClass::kReal: {
      std::string s = FormatReal(r);
      // Ensure the literal stays a REAL when re-parsed ("1" → "1.0").
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case StorageClass::kText: {
      std::string out = "'";
      for (char c : t) {
        out += c;
        if (c == '\'') out += '\'';
      }
      out += '\'';
      return out;
    }
  }
  return "NULL";
}

std::string SqlValue::ToDisplay() const {
  switch (cls) {
    case StorageClass::kNull:
      return "NULL";
    case StorageClass::kInteger:
      return std::to_string(i);
    case StorageClass::kReal: {
      // Match SQLite's REAL→TEXT conversion: always keep a decimal point
      // ('2.0', not '2') so concatenation agrees with the real engine.
      std::string s = FormatReal(r);
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case StorageClass::kText:
      return t;
  }
  return "NULL";
}

bool ValueEquals(const SqlValue& a, const SqlValue& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_numeric() && b.is_numeric()) return a.AsReal() == b.AsReal();
  if (a.cls != b.cls) return false;
  return a.t == b.t;
}

int ValueCompare(const SqlValue& a, const SqlValue& b) {
  auto rank = [](const SqlValue& v) {
    if (v.is_null()) return 0;
    if (v.is_numeric()) return 1;
    return 2;
  };
  int ra = rank(a);
  int rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 0) return 0;
  if (ra == 1) {
    double da = a.AsReal();
    double db = b.AsReal();
    if (da < db) return -1;
    if (da > db) return 1;
    return 0;
  }
  int c = a.t.compare(b.t);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

bool ParseFullNumeric(const std::string& s, SqlValue* out) {
  if (s.empty()) return false;
  const char* begin = s.c_str();
  char* end = nullptr;
  long long as_int = strtoll(begin, &end, 10);
  if (end != begin && *end == '\0') {
    *out = SqlValue::Int(as_int);
    return true;
  }
  end = nullptr;
  double as_real = strtod(begin, &end);
  if (end != begin && *end == '\0') {
    *out = SqlValue::Real(as_real);
    return true;
  }
  return false;
}

double ParseNumericPrefix(const std::string& s) {
  const char* begin = s.c_str();
  char* end = nullptr;
  double v = strtod(begin, &end);
  if (end == begin) return 0.0;
  return v;
}

Bool3 Not3(Bool3 v) {
  switch (v) {
    case Bool3::kFalse:
      return Bool3::kTrue;
    case Bool3::kTrue:
      return Bool3::kFalse;
    case Bool3::kNull:
      return Bool3::kNull;
  }
  return Bool3::kNull;
}

Bool3 And3(Bool3 a, Bool3 b) {
  if (a == Bool3::kFalse || b == Bool3::kFalse) return Bool3::kFalse;
  if (a == Bool3::kNull || b == Bool3::kNull) return Bool3::kNull;
  return Bool3::kTrue;
}

Bool3 Or3(Bool3 a, Bool3 b) {
  if (a == Bool3::kTrue || b == Bool3::kTrue) return Bool3::kTrue;
  if (a == Bool3::kNull || b == Bool3::kNull) return Bool3::kNull;
  return Bool3::kFalse;
}

}  // namespace pqs
