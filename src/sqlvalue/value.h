// Typed SQL values and three-valued logic.
//
// A SqlValue models the dynamic value a cell, literal, or expression result
// holds at runtime: one of the four SQLite storage classes (NULL, INTEGER,
// REAL, TEXT). Affinity is the *static* column typing hint; how strictly it
// is enforced is a dialect decision made by the engine, not by this module.
#ifndef PQS_SRC_SQLVALUE_VALUE_H_
#define PQS_SRC_SQLVALUE_VALUE_H_

#include <cstdint>
#include <string>

namespace pqs {

enum class StorageClass { kNull, kInteger, kReal, kText };

// Column typing hint. kInteger/kReal columns coerce numeric-looking text on
// insert in the flexible dialects; kPostgresStrict rejects mismatches.
enum class Affinity { kInteger, kReal, kText };

// SQL three-valued logic outcome of a predicate.
enum class Bool3 { kFalse, kTrue, kNull };

struct SqlValue {
  StorageClass cls = StorageClass::kNull;
  int64_t i = 0;
  double r = 0.0;
  std::string t;

  static SqlValue Null() { return SqlValue(); }
  static SqlValue Int(int64_t v) {
    SqlValue out;
    out.cls = StorageClass::kInteger;
    out.i = v;
    return out;
  }
  static SqlValue Real(double v) {
    SqlValue out;
    out.cls = StorageClass::kReal;
    out.r = v;
    return out;
  }
  static SqlValue Text(std::string v) {
    SqlValue out;
    out.cls = StorageClass::kText;
    out.t = std::move(v);
    return out;
  }
  static SqlValue Bool(bool b) { return Int(b ? 1 : 0); }
  static SqlValue FromBool3(Bool3 b) {
    return b == Bool3::kNull ? Null() : Bool(b == Bool3::kTrue);
  }

  bool is_null() const { return cls == StorageClass::kNull; }
  bool is_numeric() const {
    return cls == StorageClass::kInteger || cls == StorageClass::kReal;
  }
  double AsReal() const {
    return cls == StorageClass::kInteger ? static_cast<double>(i) : r;
  }

  // SQL literal spelling ('quoted' text, NULL keyword). Round-trips through
  // the renderer into real SQLite.
  std::string ToSqlLiteral() const;
  // Human-readable form for reports and logs (no quotes).
  std::string ToDisplay() const;
};

// Storage-identical equality used for result-set containment: NULLs match
// NULLs (we are matching a concrete fetched row, not evaluating SQL `=`),
// INTEGER and REAL compare numerically (engines are free to return 1 vs
// 1.0), TEXT compares byte-wise.
bool ValueEquals(const SqlValue& a, const SqlValue& b);

// Total order used for ORDER-less deterministic row comparison in tests and
// for the cross-storage-class comparison rules of the flexible dialects:
// NULL < numeric < TEXT, numerics by value, text byte-wise.
// Returns <0, 0, >0.
int ValueCompare(const SqlValue& a, const SqlValue& b);

// Best-effort text→number coercion. Returns true and sets *out when the
// whole string parses as a number (used by flexible-typing inserts).
bool ParseFullNumeric(const std::string& s, SqlValue* out);

// MySQL-style prefix coercion: '12ab' → 12, 'x' → 0. Always succeeds.
double ParseNumericPrefix(const std::string& s);

Bool3 Not3(Bool3 v);
Bool3 And3(Bool3 a, Bool3 b);
Bool3 Or3(Bool3 a, Bool3 b);

}  // namespace pqs

#endif  // PQS_SRC_SQLVALUE_VALUE_H_
