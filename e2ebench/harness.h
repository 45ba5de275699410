// Measurement harness of the end-to-end benchmark.
//
// Everything here sits *outside* the program under test: it times calls the
// benchmark makes into the src/ layers and reads counters those layers
// already publish. Nothing in src/ is patched.
//
//  * Tracer      — in-memory spans (name, start, end, parent, src/dst) with
//                  per-name aggregates, including self time (a span's
//                  duration minus the part its child spans cover).
//  * TracedSurface — a FlowControlSurface decorator. It forwards every
//                  method to the real engine, spans the calls and the
//                  completion/abort callbacks it hands back, and counts the
//                  bytes of aborted flows for the byte-conservation check.
//  * ControlPlane — times and counts every tenant control-plane call by
//                  verb, including the non-OK Status results that feed
//                  error_rate.
//  * Digest      — a stable text summary (and hash) of a workload's
//                  simulated outcome, used to check determinism.

#ifndef TENANTNET_E2EBENCH_HARNESS_H_
#define TENANTNET_E2EBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/app/workload.h"
#include "src/common/status.h"
#include "src/sim/flow_surface.h"

namespace tenantnet::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// splitmix64 finalizer over (seed, salt): independent streams from one seed.
inline uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Nearest-rank quantile of `samples` (reordered in place); 0 when empty.
inline double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  rank = std::min(rank, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank),
                   samples.end());
  return samples[rank];
}

// Median as Python's statistics.median computes it.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// Spans.

struct Span {
  uint32_t name = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into spans(), -1 for a root
  uint64_t src = 0;     // endpoint ids when the span concerns one (src, dst)
  uint64_t dst = 0;
};

class Tracer {
 public:
  struct NameStats {
    uint64_t calls = 0;
    int64_t busy_ns = 0;  // sum of span durations
    int64_t self_ns = 0;  // busy minus time covered by direct children
    std::vector<double> durations_ns;
  };

  // Spans beyond this many are aggregated but not kept for the dump.
  static constexpr size_t kMaxKeptSpans = 1 << 20;

  uint32_t Intern(std::string_view name) {
    auto it = ids_.find(std::string(name));
    if (it != ids_.end()) {
      return it->second;
    }
    const uint32_t id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    stats_.emplace_back();
    ids_.emplace(std::string(name), id);
    return id;
  }

  // Explicit timestamps keep the arithmetic testable; ScopedSpan supplies
  // the clock.
  void Begin(uint32_t name, int64_t now_ns, uint64_t src = 0,
             uint64_t dst = 0) {
    int32_t kept = -1;
    if (spans_.size() < kMaxKeptSpans) {
      kept = static_cast<int32_t>(spans_.size());
      Span span;
      span.name = name;
      span.start_ns = now_ns;
      span.parent = stack_.empty() ? -1 : stack_.back().kept;
      span.src = src;
      span.dst = dst;
      spans_.push_back(span);
    }
    stack_.push_back(Open{name, now_ns, 0, kept});
  }

  void End(int64_t now_ns) {
    Open open = stack_.back();
    stack_.pop_back();
    const int64_t duration = now_ns - open.start_ns;
    NameStats& stats = stats_[open.name];
    ++stats.calls;
    stats.busy_ns += duration;
    stats.self_ns += duration - open.child_ns;
    stats.durations_ns.push_back(static_cast<double>(duration));
    if (open.kept >= 0) {
      spans_[static_cast<size_t>(open.kept)].end_ns = now_ns;
    }
    if (!stack_.empty()) {
      stack_.back().child_ns += duration;
    }
  }

  size_t depth() const { return stack_.size(); }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  // Aggregates for `name`; an all-zero record if no span carried it.
  const NameStats& Stats(std::string_view name) const {
    static const NameStats kEmpty;
    auto it = ids_.find(std::string(name));
    return it == ids_.end() ? kEmpty : stats_[it->second];
  }

  // Writes the kept spans as tab-separated lines:
  // index, name, start_ns, end_ns, parent, src, dst.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fputs("index\tname\tstart_ns\tend_ns\tparent\tsrc\tdst\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%llu\t%llu\n", i,
                   names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.src),
                   static_cast<unsigned long long>(s.dst));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    uint32_t name;
    int64_t start_ns;
    int64_t child_ns;
    int32_t kept;
  };

  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> names_;
  std::vector<NameStats> stats_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
};

// RAII span on the steady clock; a no-op without a tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t name, uint64_t src = 0,
             uint64_t dst = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Begin(name, NowNs(), src, dst);
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// Wraps a connector so each verdict is one span named `name`.
inline ConnectorFn TraceConnector(Tracer* tracer, std::string_view name,
                                  ConnectorFn inner) {
  if (tracer == nullptr) {
    return inner;
  }
  const uint32_t id = tracer->Intern(name);
  return [tracer, id, inner = std::move(inner)](InstanceId src,
                                                InstanceId dst) {
    ScopedSpan span(tracer, id, src.value(), dst.value());
    return inner(src, dst);
  };
}

// ---------------------------------------------------------------------------
// The flow-engine decorator.

class TracedSurface final : public FlowControlSurface {
 public:
  // `tracer` may be null: the decorator then only forwards and counts.
  TracedSurface(FlowControlSurface& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {
    if (tracer_ != nullptr) {
      start_id_ = tracer_->Intern("sim.start_flow");
      call_id_ = tracer_->Intern("sim.surface_call");
      complete_id_ = tracer_->Intern("app.on_complete");
      abort_id_ = tracer_->Intern("app.on_abort");
    }
  }

  FlowId StartFlow(std::vector<LinkId> path, double bytes,
                   CompletionFn on_complete, double weight,
                   double rate_cap_bps, AbortFn on_abort) override {
    ScopedSpan span(tracer_, start_id_);
    if (tracer_ != nullptr && on_complete) {
      on_complete = [this, cb = std::move(on_complete)](FlowId id,
                                                        SimTime when) {
        ScopedSpan inner_span(tracer_, complete_id_);
        cb(id, when);
      };
    }
    if (on_abort) {
      on_abort = [this, bytes, cb = std::move(on_abort)](FlowId id,
                                                         SimTime when) {
        aborted_bytes_ += bytes;
        ScopedSpan inner_span(tracer_, abort_id_);
        cb(id, when);
      };
    }
    return inner_.StartFlow(std::move(path), bytes, std::move(on_complete),
                            weight, rate_cap_bps, std::move(on_abort));
  }

  FlowId StartPersistentFlow(std::vector<LinkId> path, double weight,
                             double rate_cap_bps, AbortFn on_abort) override {
    ScopedSpan span(tracer_, start_id_);
    return inner_.StartPersistentFlow(std::move(path), weight, rate_cap_bps,
                                      std::move(on_abort));
  }

  Status CancelFlow(FlowId id) override {
    ScopedSpan span(tracer_, call_id_);
    return inner_.CancelFlow(id);
  }
  Status SetRateCap(FlowId id, double rate_cap_bps) override {
    ScopedSpan span(tracer_, call_id_);
    return inner_.SetRateCap(id, rate_cap_bps);
  }
  Result<double> CurrentRate(FlowId id) const override {
    return inner_.CurrentRate(id);
  }
  const FlowState* FindFlow(FlowId id) const override {
    return inner_.FindFlow(id);
  }
  Status SetLinkUp(LinkId link, bool up) override {
    ScopedSpan span(tracer_, call_id_);
    return inner_.SetLinkUp(link, up);
  }
  bool IsLinkUp(LinkId link) const override { return inner_.IsLinkUp(link); }
  size_t stalled_flow_count() const override {
    return inner_.stalled_flow_count();
  }
  uint64_t flows_aborted() const override { return inner_.flows_aborted(); }
  uint64_t flows_blackholed() const override {
    return inner_.flows_blackholed();
  }
  double bytes_blackholed() const override {
    return inner_.bytes_blackholed();
  }
  double LinkUtilization(LinkId link) const override {
    return inner_.LinkUtilization(link);
  }
  SimDuration QueuePenalty(const std::vector<LinkId>& path,
                           SimDuration per_link_base,
                           SimDuration per_link_cap) const override {
    ScopedSpan span(tracer_, call_id_);
    return inner_.QueuePenalty(path, per_link_base, per_link_cap);
  }
  size_t active_flow_count() const override {
    return inner_.active_flow_count();
  }
  double total_bytes_delivered() const override {
    return inner_.total_bytes_delivered();
  }
  uint64_t reallocation_count() const override {
    return inner_.reallocation_count();
  }
  uint64_t flows_rescheduled() const override {
    return inner_.flows_rescheduled();
  }
  void BeginBatch() override { inner_.BeginBatch(); }
  void EndBatch() override {
    ScopedSpan span(tracer_, call_id_);
    inner_.EndBatch();
  }

  // Payload bytes of flows whose abort handler fired (requested size, not
  // progress): completed + aborted bytes must equal what the engine reports
  // as delivered + blackholed.
  double aborted_bytes() const { return aborted_bytes_; }

 private:
  FlowControlSurface& inner_;
  Tracer* tracer_;
  uint32_t start_id_ = 0;
  uint32_t call_id_ = 0;
  uint32_t complete_id_ = 0;
  uint32_t abort_id_ = 0;
  double aborted_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Tenant control-plane calls.

class ControlPlane {
 public:
  struct Verb {
    uint64_t calls = 0;
    uint64_t failed = 0;
    std::vector<double> latency_us;
  };

  explicit ControlPlane(Tracer* tracer) : tracer_(tracer) {}
  // Spans follow calls made from here on (the measured phase).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // Runs `fn` as one call of `verb` (e.g. "core.bind"), timing it always —
  // mutation latency is an end-to-end metric — and spanning it when
  // tracing. A non-OK Status or Result counts as a failed call. With
  // `sample` false the call is counted and timed per verb but is not a
  // sample of the end-to-end mutation latency (fault reactions, or steps
  // the caller records as one operation via RecordMutationLatency).
  template <typename Fn>
  auto Call(const std::string& verb, Fn&& fn, bool sample = true) {
    Verb& v = verbs_[verb];
    ScopedSpan span(tracer_, tracer_ != nullptr ? tracer_->Intern(verb) : 0);
    const int64_t start = NowNs();
    auto result = fn();
    const double us = static_cast<double>(NowNs() - start) / 1e3;
    ++v.calls;
    if (!IsOk(result)) {
      ++v.failed;
    }
    v.latency_us.push_back(us);
    if (sample) {
      RecordMutationLatency(us);
    }
    return result;
  }

  void RecordMutationLatency(double us) {
    if (record_mutation_latency) {
      mutation_latency_us.push_back(us);
    }
  }

  uint64_t failed() const {
    uint64_t n = 0;
    for (const auto& [name, v] : verbs_) {
      n += v.failed;
    }
    return n;
  }
  uint64_t calls() const {
    uint64_t n = 0;
    for (const auto& [name, v] : verbs_) {
      n += v.calls;
    }
    return n;
  }
  const std::map<std::string, Verb>& verbs() const { return verbs_; }

  // When set, every call's latency also lands in mutation_latency_us (the
  // end-to-end mutation_p50/p99 population).
  bool record_mutation_latency = false;
  std::vector<double> mutation_latency_us;

 private:
  static bool IsOk(const Status& s) { return s.ok(); }
  template <typename T>
  static bool IsOk(const Result<T>& r) {
    return r.ok();
  }

  Tracer* tracer_;
  std::map<std::string, Verb> verbs_;
};

// ---------------------------------------------------------------------------
// Outcome digest.

inline uint64_t Fnv1a(std::string_view text) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Per pattern: outcome counts, per-stage denials, bytes, and the latency
// histogram's count/sum/quantiles, with doubles printed exactly (%a).
inline std::string DigestText(const RequestWorkload& workload) {
  std::string out;
  char buf[512];
  for (size_t p = 0; p < workload.pattern_count(); ++p) {
    const PatternStats& s = workload.stats(p);
    std::snprintf(
        buf, sizeof(buf),
        "%s att=%llu done=%llu den=%llu abort=%llu retry=%llu gaveup=%llu "
        "bytes=%a lat[n=%llu sum=%a p50=%a p90=%a p99=%a max=%a]",
        workload.pattern_name(p).c_str(),
        static_cast<unsigned long long>(s.attempted),
        static_cast<unsigned long long>(s.completed),
        static_cast<unsigned long long>(s.denied),
        static_cast<unsigned long long>(s.aborted),
        static_cast<unsigned long long>(s.retries),
        static_cast<unsigned long long>(s.gave_up), s.bytes_transferred,
        static_cast<unsigned long long>(s.latency_ms.count()),
        s.latency_ms.sum(), s.latency_ms.P50(), s.latency_ms.Quantile(0.9),
        s.latency_ms.P99(), s.latency_ms.max());
    out += buf;
    for (const auto& [stage, n] : s.DenyByStage()) {
      std::snprintf(buf, sizeof(buf), " deny[%s]=%llu", stage.c_str(),
                    static_cast<unsigned long long>(n));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

// One readable line over all patterns: totals, denials per stage, bytes,
// and latency (pooled mean, and the worst pattern's p50/p99).
inline std::string DigestSummary(const RequestWorkload& workload) {
  uint64_t att = 0, done = 0, den = 0, aborted = 0, retries = 0, gave_up = 0;
  uint64_t lat_n = 0;
  double bytes = 0, lat_sum = 0, worst_p50 = 0, worst_p99 = 0;
  std::map<std::string, uint64_t> stages;
  for (size_t p = 0; p < workload.pattern_count(); ++p) {
    const PatternStats& s = workload.stats(p);
    att += s.attempted;
    done += s.completed;
    den += s.denied;
    aborted += s.aborted;
    retries += s.retries;
    gave_up += s.gave_up;
    bytes += s.bytes_transferred;
    lat_n += s.latency_ms.count();
    lat_sum += s.latency_ms.sum();
    if (s.latency_ms.count() > 0) {
      worst_p50 = std::max(worst_p50, s.latency_ms.P50());
      worst_p99 = std::max(worst_p99, s.latency_ms.P99());
    }
    for (const auto& [stage, n] : s.DenyByStage()) {
      stages[stage] += n;
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "attempted=%llu completed=%llu denied=%llu aborted=%llu "
                "retries=%llu gave_up=%llu bytes=%.0f latency_ms[n=%llu "
                "mean=%.3f worst_pattern_p50=%.3f worst_pattern_p99=%.3f]",
                static_cast<unsigned long long>(att),
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(den),
                static_cast<unsigned long long>(aborted),
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(gave_up), bytes,
                static_cast<unsigned long long>(lat_n),
                lat_n > 0 ? lat_sum / static_cast<double>(lat_n) : 0.0,
                worst_p50, worst_p99);
  std::string out = buf;
  for (const auto& [stage, n] : stages) {
    out += " deny[" + stage + "]=" + std::to_string(n);
  }
  return out;
}

}  // namespace tenantnet::e2e

#endif  // TENANTNET_E2EBENCH_HARNESS_H_
