// Measurement primitives of the repository benchmark: latency percentiles
// pooled over a measured phase (dytis::LatencyRecorder, a log histogram
// accurate to 2%), getrusage deltas, input digests, and the metric table
// every workload fills in.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/latency_recorder.h"

namespace perfbench {

// The tail quantile a run of `n` samples can report: the highest of
// 0.99, 0.95, 0.9, 0.75 and 0.5 with at least ten samples beyond it
// ((1 - q) * n >= 10), or 0 when not even the median has.
double TailQuantile(size_t n);

// The value at quantile `q` of `recorder`'s samples, with q lowered to
// TailQuantile(count) when fewer than ten samples lie beyond it; 0 when
// not even the median has ten beyond it.
double ReportedNanos(const dytis::LatencyRecorder& recorder, double q);

double Median(std::vector<double> values);

// getrusage(RUSAGE_SELF) plus the monotonic clock, read together.
struct Usage {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // user + system
  uint64_t ctx_switches = 0;  // voluntary + involuntary
  uint64_t minor_faults = 0;
  double max_rss_mb = 0.0;  // high-water mark of the process so far
};
Usage ReadUsage();
// Counters accumulated from `begin` to `end` (max_rss_mb is `end`'s).
Usage UsageDelta(const Usage& begin, const Usage& end);

uint64_t Mix64(uint64_t z);
// Order-sensitive digest of a key sequence (input provenance).
uint64_t DigestKeys(const std::vector<uint64_t>& keys);

// One named measurement.  `samples` is the number of observations behind
// the value (0 for counts and configuration figures).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

// What one workload run produced.
struct RunResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t input_digest = 0;
  // First few oracle mismatches, for the log.
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
  const Metric* Find(const std::string& name) const;
  void Fail(uint64_t count, const std::string& what) {
    failed += count;
    if (errors.size() < 8) {
      errors.push_back(what);
    }
  }
  double failed_share() const {
    return attempted > 0
               ? static_cast<double>(failed) / static_cast<double>(attempted)
               : 0.0;
  }
};

// Adds <prefix>_p50_<unit>, <prefix>_p90_<unit> and <prefix>_p99_<unit>:
// ReportedNanos at 0.5, 0.9 and 0.99.  `scale` divides nanoseconds into
// `unit`.
void AddLatency(RunResult* result, const std::string& prefix,
                const dytis::LatencyRecorder& recorder, double scale,
                const std::string& unit);

// Adds the proc.* metrics for a measured phase that completed `ops`
// operations.
void AddProcMetrics(RunResult* result, const Usage& delta, uint64_t ops);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
