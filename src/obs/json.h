// One JSON emission path for every machine-readable artifact.
//
// The bench binaries each grew their own snprintf-based JSON formatting
// (bench_common.h escaping vs recorder.h field layout), which meant two
// escaping rules and two numeric formats could drift apart. This header is
// the single serializer: the telemetry metrics exporter (src/obs/metrics),
// the latency recorder (bench/recorder.h), and the bench helpers
// (bench/bench_common.h) all escape strings and format fields through it,
// so every BENCH_*.json section shares one format path.
//
// JsonBuilder is deliberately small: objects, arrays, and typed fields with
// comma management. It produces compact output (no pretty-printing) —
// callers that want indentation for human eyes keep writing their own
// layout but must still escape through JsonEscape.
#ifndef PQS_SRC_OBS_JSON_H_
#define PQS_SRC_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pqs {
namespace obs {

// Escapes `s` for inclusion inside a JSON string literal (quotes not
// included): quote, backslash, and control characters per RFC 8259.
std::string JsonEscape(const std::string& s);

// Appends `"key": ` to `out` (escaped), without any comma handling. The
// low-level piece JsonBuilder and the hand-layout bench printers share.
void AppendJsonKey(std::string* out, const std::string& key);

// Formats a double the way every artifact does: fixed notation with
// `decimals` fractional digits (JSON has no NaN/Inf; both serialize as 0).
std::string JsonNumber(double value, int decimals);

// Comma-managed builder for compact JSON.
class JsonBuilder {
 public:
  // Root value: exactly one of BeginObject()/BeginArray() without a key.
  void BeginObject() { OpenScope('{', nullptr); }
  void BeginObject(const std::string& key) { OpenScope('{', &key); }
  void EndObject() { CloseScope('}'); }
  void BeginArray() { OpenScope('[', nullptr); }
  void BeginArray(const std::string& key) { OpenScope('[', &key); }
  void EndArray() { CloseScope(']'); }

  void Field(const std::string& key, uint64_t value);
  void Field(const std::string& key, bool value);
  // Doubles carry an explicit precision so artifacts stay byte-stable
  // across compilers (default %g formatting is not).
  void Field(const std::string& key, double value, int decimals);
  void Field(const std::string& key, const std::string& value);
  // Array element forms (no key).
  void Element(uint64_t value);

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  void OpenScope(char bracket, const std::string* key);
  void CloseScope(char bracket);
  void Comma();
  void Key(const std::string& key);

  std::string out_;
  // One bool per open scope: has this scope emitted a member yet?
  std::vector<bool> scope_has_member_;
};

}  // namespace obs
}  // namespace pqs

#endif  // PQS_SRC_OBS_JSON_H_
