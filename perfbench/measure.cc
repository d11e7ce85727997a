#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>

namespace perfbench {

double TailQuantile(size_t n) {
  for (const double q : {0.99, 0.95, 0.9, 0.75, 0.5}) {
    // (1 - q) * n samples lie beyond q; the epsilon absorbs the rounding of
    // 1 - q (e.g. 1000 samples leave exactly ten beyond p99).
    if ((1.0 - q) * static_cast<double>(n) >= 10.0 - 1e-9) {
      return q;
    }
  }
  return 0.0;
}

double ReportedNanos(const dytis::LatencyRecorder& recorder, double q) {
  const double reportable = TailQuantile(recorder.count());
  if (reportable == 0.0) {
    return 0.0;
  }
  return static_cast<double>(
      recorder.PercentileNanos(std::min(q, reportable)));
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Usage ReadUsage() {
  Usage u;
  u.wall_s = std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                  1e6;
    u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
    u.minor_faults = static_cast<uint64_t>(ru.ru_minflt);
    u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  }
  return u;
}

Usage UsageDelta(const Usage& begin, const Usage& end) {
  Usage d;
  d.wall_s = end.wall_s - begin.wall_s;
  d.cpu_s = end.cpu_s - begin.cpu_s;
  d.ctx_switches = end.ctx_switches - begin.ctx_switches;
  d.minor_faults = end.minor_faults - begin.minor_faults;
  d.max_rss_mb = end.max_rss_mb;
  return d;
}

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t DigestKeys(const std::vector<uint64_t>& keys) {
  uint64_t h = Mix64(0x9e3779b97f4a7c15ULL ^ keys.size());
  for (const uint64_t k : keys) {
    h = Mix64(h ^ Mix64(k));
  }
  return h;
}

const Metric* RunResult::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

void AddLatency(RunResult* result, const std::string& prefix,
                const dytis::LatencyRecorder& recorder, double scale,
                const std::string& unit) {
  for (const auto& [name, q] : {std::pair<const char*, double>{"_p50_", 0.5},
                                {"_p90_", 0.9},
                                {"_p99_", 0.99}}) {
    result->Add(prefix + name + unit, ReportedNanos(recorder, q) / scale, unit,
                recorder.count());
  }
}

void AddProcMetrics(RunResult* result, const Usage& delta, uint64_t ops) {
  const double kops = static_cast<double>(ops) / 1e3;
  result->Add("proc.cpu_per_op_ns",
              ops > 0 ? delta.cpu_s * 1e9 / static_cast<double>(ops) : 0.0,
              "ns", ops);
  result->Add("proc.cpu_util",
              delta.wall_s > 0 ? delta.cpu_s / delta.wall_s : 0,
              "cores");
  result->Add("proc.ctx_switches_per_kop",
              ops > 0 ? static_cast<double>(delta.ctx_switches) / kops : 0.0,
              "1/kop", ops);
  result->Add("proc.minor_faults_per_kop",
              ops > 0 ? static_cast<double>(delta.minor_faults) / kops : 0.0,
              "1/kop", ops);
}

}  // namespace perfbench
