// The four workloads of the repository benchmark (README.md says why each
// was chosen).  Each runs in one process from one seed: it generates its
// inputs, sets up (five to seven times; setup_s is the median), measures
// for the requested number of seconds, checks every output against an
// oracle, and returns its metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Record spans on alternate windows of the measured phase and report the
  // per-layer metrics; the spans are written to
  // <out_dir>/<workload>.trace.json.
  bool trace = false;
  // Directory for the files a run writes (the ingest WAL, the trace).
  std::string out_dir = ".";
  // Multiplies every input size; below 1 only in the self-test.
  double scale = 1.0;
  // Test hook: corrupts one value the program returns before the oracle
  // sees it, so a test can show that a wrong output is counted as failed.
  bool inject_wrong_value = false;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload.  Unknown names return a result with an error and no
// attempted operations.
RunResult RunWorkload(const Options& options);

// Digest of everything a workload generates from `seed`, at `scale` times
// its full input size (the self-test uses a small scale).  RunWorkload
// reports the full-size digest as input_digest.
uint64_t InputDigest(const std::string& workload, uint64_t seed,
                     double scale);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
