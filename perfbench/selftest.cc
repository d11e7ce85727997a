// Self-test of the benchmark's own machinery: the tail-percentile rule,
// the output oracles (an injected wrong value must be counted as failed,
// and a clean run must count nothing), input determinism, and span self
// time.  Runs every workload at a small scale.
//
//   perfbench_selftest [<scratch dir>]
//
// Prints one line per check and exits 1 if any failed.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "measure.h"
#include "spans.h"
#include "workloads.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) {
    failures++;
  }
}

void TestTailQuantile() {
  using perfbench::TailQuantile;
  Check(TailQuantile(1000) == 0.99, "1000 samples report p99");
  Check(TailQuantile(999) == 0.95, "999 samples fall back to p95");
  Check(TailQuantile(200) == 0.95, "200 samples report p95");
  Check(TailQuantile(199) == 0.9, "199 samples fall back to p90");
  Check(TailQuantile(40) == 0.75, "40 samples report p75");
  Check(TailQuantile(20) == 0.5, "20 samples report the median");
  Check(TailQuantile(19) == 0.0, "19 samples report no tail");

  // Through the reporting path: samples 1000 * 1.02^i ns lie more than a
  // histogram bucket (at most 1/64 wide) apart, so each has a bucket of its
  // own and every sample above the reported bucket is beyond it.
  for (const size_t n : {1000u, 250u, 60u, 20u}) {
    dytis::LatencyRecorder rec;
    std::vector<double> values;
    for (size_t i = 0; i < n; i++) {
      values.push_back(1000.0 * std::pow(1.02, static_cast<double>(i)));
      rec.Record(static_cast<uint64_t>(values.back()));
    }
    const double p99 = perfbench::ReportedNanos(rec, 0.99);
    size_t beyond = 0;
    for (const double v : values) {
      beyond += v > p99 ? 1 : 0;
    }
    Check(beyond >= 10,
          "reported p99 of " + std::to_string(n) +
              " samples has >= 10 beyond it (" + std::to_string(beyond) + ")");
  }
  dytis::LatencyRecorder few;
  for (uint64_t i = 1; i <= 19; i++) {
    few.Record(i);
  }
  Check(perfbench::ReportedNanos(few, 0.5) == 0,
        "19 samples report no percentile");
}

void TestSelfTime() {
  perfbench::SpanLog log(8);
  perfbench::SpanBuffer* buf = log.NewBuffer();
  const uint64_t root = buf->Open();
  buf->Record("core.Find", 10, 60, root, 7);
  buf->Close(root, "bench.op", 0, 100, 0, 7);
  buf->Record("datasets.Generate", 0, 1000, 0, 0);  // set-up: not a request
  const auto self = perfbench::SelfNanosByLayer(log.All());
  Check(self.size() == 2 && self.at("bench") == 50 && self.at("core") == 50,
        "self time subtracts child spans and skips set-up spans");
}

void TestInputDigests() {
  for (const std::string& w : perfbench::WorkloadNames()) {
    const uint64_t a = perfbench::InputDigest(w, 1, 0.002);
    const uint64_t b = perfbench::InputDigest(w, 1, 0.002);
    const uint64_t c = perfbench::InputDigest(w, 2, 0.002);
    Check(a == b, w + ": the same seed gives the same input digest");
    Check(a != c, w + ": another seed gives another input digest");
  }
}

void TestOracles(const std::string& dir) {
  for (const std::string& w : perfbench::WorkloadNames()) {
    perfbench::Options o;
    o.workload = w;
    o.seed = 3;
    o.seconds = 0.3;
    o.scale = 0.005;
    o.out_dir = dir;
    const perfbench::RunResult clean = perfbench::RunWorkload(o);
    Check(clean.attempted > 0 && clean.failed == 0,
          w + ": a clean run has failed_share 0" +
              (clean.errors.empty() ? "" : " (" + clean.errors[0] + ")"));
    Check(clean.input_digest == perfbench::InputDigest(w, 3, 0.005),
          w + ": the run reports its input digest");
    o.inject_wrong_value = true;
    const perfbench::RunResult wrong = perfbench::RunWorkload(o);
    Check(wrong.failed > 0 && wrong.failed_share() > 0,
          w + ": an injected wrong value raises failed_share");
    o.inject_wrong_value = false;
    o.trace = true;
    const perfbench::RunResult traced = perfbench::RunWorkload(o);
    const perfbench::Metric* spans = traced.Find("obs.spans");
    Check(traced.failed == 0 && spans != nullptr && spans->value > 0,
          w + ": a traced run records spans");
  }
}

}  // namespace

int main(int argc, char** argv) {
  TestTailQuantile();
  TestSelfTime();
  TestInputDigests();
  TestOracles(argc > 1 ? argv[1] : ".");
  std::printf("%d check(s) failed\n", failures);
  return failures == 0 ? 0 : 1;
}
