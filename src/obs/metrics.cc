#include "src/obs/metrics.h"

#include "src/obs/json.h"

namespace pqs {
namespace obs {

const char* CounterName(Counter c) {
  switch (c) {
    case Counter::kStatementErrors:
      return "statement_errors";
    case Counter::kPivotSelections:
      return "pivot_selections";
    case Counter::kPoolHits:
      return "pool_hits";
    case Counter::kPoolMisses:
      return "pool_misses";
    case Counter::kPoolEvictions:
      return "pool_evictions";
    case Counter::kPoolWritebacks:
      return "pool_writebacks";
    case Counter::kStmtCacheHits:
      return "stmt_cache_hits";
    case Counter::kStmtCacheMisses:
      return "stmt_cache_misses";
    case Counter::kCacheInvalidations:
      return "cache_invalidations";
    case Counter::kCount_:
      break;
  }
  return "?";
}

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kGenerate:
      return "generate";
    case Phase::kRectify:
      return "rectify";
    case Phase::kRender:
      return "render";
    case Phase::kEngineExecute:
      return "engine_execute";
    case Phase::kGroundTruthReplay:
      return "ground_truth_replay";
    case Phase::kOracleCheck:
      return "oracle_check";
    case Phase::kCount_:
      break;
  }
  return "?";
}

void Histogram::Record(uint64_t value) {
  int b = 0;
  // Bucket i (i >= 1) holds values in [2^(i-1), 2^i); clamp to last bucket.
  while (b < kBuckets - 1 && value >= (1ull << b)) ++b;
  ++buckets_[b];
  ++count_;
  sum_ += value;
  if (value > max_) max_ = value;
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (size_t i = 0; i < static_cast<size_t>(Counter::kCount_); ++i) {
    counters_[i] += other.counters_[i];
  }
  for (size_t i = 0; i < static_cast<size_t>(Phase::kCount_); ++i) {
    phase_wall_us_[i].Merge(other.phase_wall_us_[i]);
  }
}

namespace {

void AppendHistogram(JsonBuilder* jb, const std::string& key,
                     const Histogram& h) {
  jb->BeginObject(key);
  jb->Field("spans", h.count());
  jb->Field("total", h.sum());
  jb->Field("max", h.max());
  jb->BeginArray("buckets");
  for (int i = 0; i < Histogram::kBuckets; ++i) jb->Element(h.bucket(i));
  jb->EndArray();
  jb->EndObject();
}

}  // namespace

std::string MetricsRegistry::ToJson(bool include_wall) const {
  JsonBuilder jb;
  jb.BeginObject();
  jb.BeginObject("counters");
  for (size_t i = 0; i < static_cast<size_t>(Counter::kCount_); ++i) {
    jb.Field(CounterName(static_cast<Counter>(i)), counters_[i]);
  }
  jb.EndObject();
  if (include_wall) {
    jb.BeginObject("phase_wall_micros");
    for (size_t i = 0; i < static_cast<size_t>(Phase::kCount_); ++i) {
      AppendHistogram(&jb, PhaseName(static_cast<Phase>(i)),
                      phase_wall_us_[i]);
    }
    jb.EndObject();
  }
  jb.EndObject();
  return jb.TakeString();
}

}  // namespace obs
}  // namespace pqs
