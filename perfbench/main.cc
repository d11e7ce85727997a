// perfbench: runs one workload and prints every metric it measured,
// by name and unit with sample counts, then one JSON line with all of them
// (run.py picks the ones BENCHMARK.json names from it).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Exits 1 when an output check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/util/json.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      o.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1 || o.workload.empty() || !(o.seconds > 0)) {
    return Usage("missing or malformed arguments");
  }

  const perfbench::RunResult r = perfbench::RunWorkload(o);
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("input_digest %016llx\n",
              static_cast<unsigned long long>(r.input_digest));
  for (const perfbench::Metric& m : r.metrics) {
    std::printf("  %-34s %16.6f %-8s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) {
      std::printf(" n=%llu", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }
  std::printf("  %-34s %16.6f %-8s n=%llu\n", "failed_share", r.failed_share(),
              "share", static_cast<unsigned long long>(r.attempted));
  for (const std::string& e : r.errors) {
    std::printf("check failed: %s\n", e.c_str());
  }

  dytis::JsonValue out = dytis::JsonValue::Object();
  out["workload"] = o.workload;
  out["correct"] = r.failed == 0 && r.attempted > 0;
  out["attempted"] = r.attempted;
  out["failed"] = r.failed;
  out["input_digest"] = r.input_digest;
  dytis::JsonValue& metrics = out["metrics"];
  metrics = dytis::JsonValue::Object();
  for (const perfbench::Metric& m : r.metrics) {
    dytis::JsonValue& j = metrics[m.name];
    j["value"] = m.value;
    j["unit"] = m.unit;
    j["samples"] = m.samples;
  }
  std::printf("%s\n", out.Dump().c_str());
  return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
