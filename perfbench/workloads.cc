#include "workloads.h"

#include <sys/prctl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <unordered_set>

#include "spans.h"
#include "src/core/dytis.h"
#include "src/datasets/generators.h"
#include "src/obs/metrics.h"
#include "src/recovery/durable_dytis.h"
#include "src/server/loadgen.h"
#include "src/server/server.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace perfbench {
namespace {

using dytis::DyTISConfig;
using dytis::DyTISStatsView;
using dytis::EpochStats;
using dytis::NowNanos;
using dytis::server::DyTISServer;
using dytis::server::LoadGenOptions;
using dytis::server::OpType;
using dytis::server::Request;
using dytis::server::Response;
using dytis::server::ServerIndex;

// Input sizes at scale 1.
constexpr size_t kIngestKeys = 2'000'000;   // TX keys per ingest cycle
constexpr size_t kLookupKeys = 1'000'000;   // RM keys; index ~3x the L3
constexpr size_t kServePreload = 1'000'000; // uniform keys; fits in L3
constexpr size_t kServeStreamOps = 2'000'000;  // per-slot streams repeat
constexpr size_t kServeSlots = 64;
constexpr size_t kServeBatch = 64;
constexpr uint32_t kScanLength = 100;
constexpr uint64_t kLookupScanPercent = 5;
// serve-open's offered load, fixed (about 0.4 of the closed-loop capacity
// of `serve` on a 4-thread host; the two connections cannot pace much
// more); never derived from a measured capacity.
constexpr double kOpenLoopRate = 0.9e6;

// Set-ups per run (setup_s is their median): fewer where one costs more.
constexpr int kSetups = 7;
constexpr int kLookupSetups = 5;
constexpr uint64_t kTraceWindowNs = 50'000'000;  // traced/untraced alternation
constexpr uint64_t kSampleOps = 256;     // 1 traced op in this many
constexpr uint64_t kSampleBatches = 8;   // 1 traced batch in this many
constexpr size_t kSpansPerThread = 200'000;

size_t Scaled(size_t n, double scale) {
  return std::max<size_t>(
      1000, static_cast<size_t>(static_cast<double>(n) * scale));
}

// Same sizing rule as the repository's benches: about 8K keys per
// first-level table, small initial tables.
DyTISConfig ScaledConfig(size_t num_keys) {
  DyTISConfig config;
  int r = 0;
  while (r < 9 && (num_keys >> (r + 1)) >= 4'096) {
    r++;
  }
  config.first_level_bits = r;
  config.l_start = 4;
  return config;
}

uint64_t ValueFor(uint64_t key) { return Mix64(key ^ 0x5DEECE66DULL); }

// Inputs of each workload, generated from the seed alone.
std::vector<uint64_t> IngestKeys(uint64_t seed, double scale) {
  return dytis::GenerateTaxiKeys(Scaled(kIngestKeys, scale), seed);
}
std::vector<uint64_t> LookupKeys(uint64_t seed, double scale) {
  return dytis::GenerateReviewKeys(Scaled(kLookupKeys, scale), seed);
}
LoadGenOptions ServeLoad(uint64_t seed, double scale) {
  LoadGenOptions o;  // tenant mix: 50/25/15/5/5, Zipfian 0.99, churn
  o.seed = seed;
  o.preload_keys = Scaled(kServePreload, scale);
  o.total_ops = Scaled(kServeStreamOps, scale);
  o.session_slots = kServeSlots;
  o.batch_size = kServeBatch;
  return o;
}

// Lookup op choices come from this generator, in order.
dytis::Rng LookupOpRng(uint64_t seed) {
  return dytis::Rng(Mix64(seed ^ 0x10c4));
}

// The keys plus the first op choices.
uint64_t LookupDigest(const std::vector<uint64_t>& keys, uint64_t seed) {
  dytis::Rng rng = LookupOpRng(seed);
  std::vector<uint64_t> ops(1024);
  for (uint64_t& op : ops) {
    op = rng.Next();
  }
  return Mix64(DigestKeys(keys) ^ DigestKeys(ops));
}

// Shards for serving, and clients for `serve`: four (the steadiest pair
// measured on a 4-thread host, README.md), fewer on a smaller host, and a
// power of two so the 64 session slots split evenly over connections.
uint32_t ServeShards() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  uint32_t n = 1;
  while (n * 2 <= std::min(4u, hw)) {
    n *= 2;
  }
  return n;
}

// `serve-open` paces its load over at most two connections: its tails
// spread far more run to run with four (README.md).
constexpr uint32_t kOpenLoopConnections = 2;

template <typename Index>
uint64_t StateDigest(const Index& index) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  index.ForEach([&h](uint64_t key, const uint64_t& value) {
    h = Mix64(h ^ Mix64(key));
    h = Mix64(h ^ Mix64(value));
  });
  return h;
}

// Alternates tracing off and on in fixed windows of the measured phase, so
// one traced run measures the throughput of both and the spans' cost shows
// as obs.trace_overhead.
class TraceGate {
 public:
  TraceGate(bool enabled, uint64_t start_ns)
      : enabled_(enabled), start_ns_(start_ns) {}
  bool On(uint64_t now_ns) const {
    return enabled_ && now_ns > start_ns_ &&
           ((now_ns - start_ns_) / kTraceWindowNs) % 2 == 1;
  }
  // Time spent in traced windows within [start, end].
  static double OnSeconds(uint64_t start_ns, uint64_t end_ns) {
    const uint64_t elapsed = end_ns - start_ns;
    const uint64_t full = elapsed / (2 * kTraceWindowNs);
    const uint64_t rest = elapsed % (2 * kTraceWindowNs);
    const uint64_t on =
        full * kTraceWindowNs +
        (rest > kTraceWindowNs ? rest - kTraceWindowNs : 0);
    return static_cast<double>(on) / 1e9;
  }

 private:
  bool enabled_;
  uint64_t start_ns_;
};

// Ops counted in traced and untraced windows.
struct GateCounts {
  uint64_t on = 0;
  uint64_t off = 0;
  double on_s = 0.0;
  double off_s = 0.0;
  void AddPhase(uint64_t start_ns, uint64_t end_ns) {
    const double on_part = TraceGate::OnSeconds(start_ns, end_ns);
    on_s += on_part;
    off_s += static_cast<double>(end_ns - start_ns) / 1e9 - on_part;
  }
};

void AddUsage(Usage* total, const Usage& d) {
  total->wall_s += d.wall_s;
  total->cpu_s += d.cpu_s;
  total->ctx_switches += d.ctx_switches;
  total->minor_faults += d.minor_faults;
  total->max_rss_mb = d.max_rss_mb;
}

DyTISStatsView Diff(const DyTISStatsView& a, const DyTISStatsView& b) {
  DyTISStatsView d;
  d.splits = b.splits - a.splits;
  d.expansions = b.expansions - a.expansions;
  d.remappings = b.remappings - a.remappings;
  d.remap_failures = b.remap_failures - a.remap_failures;
  d.doublings = b.doublings - a.doublings;
  d.stash_inserts = b.stash_inserts - a.stash_inserts;
  d.split_ns = b.split_ns - a.split_ns;
  d.expansion_ns = b.expansion_ns - a.expansion_ns;
  d.remap_ns = b.remap_ns - a.remap_ns;
  d.doubling_ns = b.doubling_ns - a.doubling_ns;
  d.optimistic_read_retries =
      b.optimistic_read_retries - a.optimistic_read_retries;
  d.optimistic_read_fallbacks =
      b.optimistic_read_fallbacks - a.optimistic_read_fallbacks;
  return d;
}

void Accumulate(DyTISStatsView* total, const DyTISStatsView& d) {
  total->splits += d.splits;
  total->expansions += d.expansions;
  total->remappings += d.remappings;
  total->remap_failures += d.remap_failures;
  total->doublings += d.doublings;
  total->stash_inserts += d.stash_inserts;
  total->split_ns += d.split_ns;
  total->expansion_ns += d.expansion_ns;
  total->remap_ns += d.remap_ns;
  total->doubling_ns += d.doubling_ns;
  total->optimistic_read_retries += d.optimistic_read_retries;
  total->optimistic_read_fallbacks += d.optimistic_read_fallbacks;
}

void AddEpoch(EpochStats* total, const EpochStats& e) {
  total->retired_total += e.retired_total;
  total->reclaimed_total += e.reclaimed_total;
  total->retired_pending += e.retired_pending;
  total->advances += e.advances;
  total->advance_failures += e.advance_failures;
}

// core.* structural counts and shares.  `inserted` is the number of keys
// the structural work was done for; `busy_ns` the insert time it is a
// share of.
void AddCoreStructural(RunResult* r, const DyTISStatsView& s, uint64_t inserted,
                       double busy_ns) {
  const double mkeys = std::max(1.0, static_cast<double>(inserted)) / 1e6;
  const double per = 1.0 / mkeys;
  r->Add("core.splits_per_mkey", static_cast<double>(s.splits) * per, "1/Mkey");
  r->Add("core.expansions_per_mkey", static_cast<double>(s.expansions) * per,
         "1/Mkey");
  r->Add("core.remaps_per_mkey", static_cast<double>(s.remappings) * per,
         "1/Mkey");
  r->Add("core.doublings_per_mkey", static_cast<double>(s.doublings) * per,
         "1/Mkey");
  r->Add("core.stash_inserts", static_cast<double>(s.stash_inserts), "count");
  r->Add("core.remap_failures", static_cast<double>(s.remap_failures), "count");
  const double busy = std::max(1.0, busy_ns);
  const double structural = static_cast<double>(s.split_ns + s.expansion_ns +
                                                s.remap_ns + s.doubling_ns);
  r->Add("core.structural_share", structural / busy, "share");
  r->Add("core.remap_share", static_cast<double>(s.remap_ns) / busy, "share");
  r->Add("core.split_share", static_cast<double>(s.split_ns) / busy, "share");
  r->Add("core.expansion_share", static_cast<double>(s.expansion_ns) / busy,
         "share");
  r->Add("core.doubling_share", static_cast<double>(s.doubling_ns) / busy,
         "share");
  r->Add("core.optimistic_retries",
         static_cast<double>(s.optimistic_read_retries), "count");
  r->Add("core.optimistic_fallbacks",
         static_cast<double>(s.optimistic_read_fallbacks), "count");
}

struct Shape {
  double bytes = 0, keys = 0, slots = 0, segments = 0, directory = 0;
  template <typename Index>
  void Add(const Index& index) {
    bytes += static_cast<double>(index.MemoryBytes());
    keys += static_cast<double>(index.size());
    slots += static_cast<double>(index.BucketSlots());
    segments += static_cast<double>(index.NumSegments());
    directory += static_cast<double>(index.DirectoryEntries());
  }
};

void AddCoreShape(RunResult* r, const Shape& s) {
  r->Add("core.bytes_per_key", s.keys > 0 ? s.bytes / s.keys : 0.0, "B");
  r->Add("core.load_factor", s.slots > 0 ? s.keys / s.slots : 0.0, "share");
  r->Add("core.segments", s.segments, "count");
  r->Add("core.directory_entries", s.directory, "count");
}

struct MetricName {
  const char* name;
  const char* unit;
};

// Per-layer metrics of the layers some workload does not run.  Such a
// workload reports them as explicit zeros, so that a metric missing from
// the output is a fault of the benchmark, never an absent layer.
constexpr MetricName kRecoveryMetrics[] = {
    {"recovery.wal_records", "count"},
    {"recovery.wal_bytes_per_record", "B"},
    {"recovery.wal_append_p50_ns", "ns"},
    {"recovery.wal_share", "share"},
    {"recovery.replay_mrec_per_s", "Mrec/s"},
};
constexpr MetricName kServerMetrics[] = {
    {"server.queue_p50_us", "us"},        {"server.queue_p99_us", "us"},
    {"server.service_p50_us", "us"},      {"server.request_p50_us", "us"},
    {"server.attribution_gap", "share"},  {"server.op_service_p50_ns", "ns"},
    {"server.op_service_p99_ns", "ns"},   {"server.handoffs_per_batch", "count"},
    {"server.queue_depth_peak", "count"}, {"server.shard_skew", "ratio"},
};
constexpr MetricName kLoadgenMetrics[] = {
    {"loadgen.late_p99_us", "us"},
    {"loadgen.achieved_share", "share"},
};

template <size_t N>
void AddZeros(RunResult* r, const MetricName (&metrics)[N]) {
  for (const MetricName& m : metrics) {
    r->Add(m.name, 0.0, m.unit);
  }
}

void AddSync(RunResult* r, const EpochStats& e) {
  r->Add("sync.retired", static_cast<double>(e.retired_total), "count");
  r->Add("sync.reclaimed", static_cast<double>(e.reclaimed_total), "count");
  r->Add("sync.pending_end", static_cast<double>(e.retired_pending), "count");
  r->Add("sync.advances", static_cast<double>(e.advances), "count");
  r->Add("sync.advance_failures", static_cast<double>(e.advance_failures),
         "count");
}

// Spans, their self time by layer, the trace file, and the cost of tracing.
void FinishTrace(RunResult* r, const Options& o, const SpanLog& log,
                 const GateCounts& gate) {
  if (!o.trace) {
    return;
  }
  const std::vector<Span> spans = log.All();
  const std::string path = o.out_dir + "/" + o.workload + ".trace.json";
  std::ofstream(path) << ChromeTraceJson(spans);
  std::printf("trace: %zu spans (%llu dropped) written to %s\n", spans.size(),
              static_cast<unsigned long long>(log.dropped()), path.c_str());
  const auto self = SelfNanosByLayer(spans);
  double total = 0.0;
  for (const auto& [layer, ns] : self) {
    total += ns;
  }
  for (const char* layer : {"bench", "loadgen", "server", "core", "recovery"}) {
    const auto it = self.find(layer);
    const double ns = it == self.end() ? 0.0 : it->second;
    r->Add(std::string("obs.self_share.") + layer, total > 0 ? ns / total : 0.0,
           "share");
  }
  r->Add("obs.spans", static_cast<double>(spans.size()), "count");
  const double on =
      gate.on_s > 0 ? static_cast<double>(gate.on) / gate.on_s : 0;
  const double off =
      gate.off_s > 0 ? static_cast<double>(gate.off) / gate.off_s : 0;
  r->Add("obs.trace_overhead", off > 0 ? 1.0 - on / off : 0.0, "share");
}

void RemoveDurabilityFiles(const dytis::recovery::RecoveryConfig& rc) {
  ::unlink(rc.WalPath().c_str());
  ::unlink(rc.CheckpointPath().c_str());
  ::rmdir(rc.dir.c_str());
}

uint64_t FileBytes(const std::string& path) {
  struct ::stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

// ---------------------------------------------------------------- ingest --
//
// Cycles of: open a fresh durable index and insert the TX stream in dataset
// order (timed), until the insert time reaches the run length.  The last
// cycle's index is then closed, reopened (timed: replay + invariant check)
// and compared with its pre-close state.
RunResult RunIngest(const Options& o) {
  using Durable =
      dytis::recovery::DurableDyTIS<uint64_t, dytis::SharedMutexPolicy>;
  RunResult r;
  SpanLog log(kSpansPerThread);
  SpanBuffer* buf = log.NewBuffer();
  dytis::recovery::RecoveryConfig rc;
  rc.dir = o.out_dir + "/ingest-wal";
  rc.wal_sync_every = 0;  // flushed to the OS: survives a kill, not power loss
  RemoveDurabilityFiles(rc);

  std::vector<uint64_t> keys;
  std::unique_ptr<Durable> db;
  const DyTISConfig config = ScaledConfig(Scaled(kIngestKeys, o.scale));
  std::string error;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; i++) {
    db.reset();
    RemoveDurabilityFiles(rc);
    const uint64_t t0 = NowNanos();
    keys = IngestKeys(o.seed, o.scale);
    const uint64_t t1 = NowNanos();
    db = Durable::Open(rc, config, &error);
    const uint64_t t2 = NowNanos();
    buf->Record("datasets.GenerateTaxiKeys", t0, t1, 0, 0);
    buf->Record("recovery.Open", t1, t2, 0, 0);
    setups.push_back(static_cast<double>(t2 - t0) / 1e9);
    if (db == nullptr) {
      r.attempted = 1;
      r.Fail(1, "open: " + error);
      return r;
    }
  }
  r.input_digest = DigestKeys(keys);

  dytis::LatencyRecorder inserts;
  double recover_s = 0;
  DyTISStatsView core;
  EpochStats epochs;
  Shape shape;
  Usage usage;
  GateCounts gate_counts;
  uint64_t insert_ns = 0, inserted = 0, wal_records = 0, wal_bytes = 0;
  uint64_t last_records = 0;
  uint64_t replayed = 0, replay_ns = 0;
  const uint64_t deadline_ns = static_cast<uint64_t>(o.seconds * 1e9);
  for (int cycle = 0; insert_ns < deadline_ns || cycle == 0; cycle++) {
    if (db == nullptr) {
      RemoveDurabilityFiles(rc);
      db = Durable::Open(rc, config, &error);
      if (db == nullptr) {
        r.Fail(1, "open: " + error);
        break;
      }
    }
    const Usage u0 = ReadUsage();
    const uint64_t start = NowNanos();
    const TraceGate gate(o.trace, start);
    for (size_t i = 0; i < keys.size(); i++) {
      const uint64_t key = keys[i];
      const uint64_t t0 = NowNanos();
      const bool fresh = db->Insert(key, ValueFor(key));
      const uint64_t t1 = NowNanos();
      inserts.Record(t1 - t0);
      if (!fresh) {
        r.Fail(1, "insert reported an existing key");
      }
      if (gate.On(t1)) {
        gate_counts.on++;
        if (i % kSampleOps == 0) {
          const uint64_t t2 = NowNanos();  // the op's work ends here
          const uint64_t request = (static_cast<uint64_t>(cycle) << 32) | i;
          const uint64_t root = buf->Open();
          buf->Record("recovery.DurableDyTIS::Insert", t0, t1, root, request);
          buf->Close(root, "bench.insert", t0, t2, 0, request);
        }
      } else {
        gate_counts.off++;
      }
    }
    const uint64_t end = NowNanos();
    AddUsage(&usage, UsageDelta(u0, ReadUsage()));
    gate_counts.AddPhase(start, end);
    insert_ns += end - start;
    inserted += keys.size();
    r.attempted += keys.size();
    Accumulate(&core, db->stats().View());
    AddEpoch(&epochs, db->index().EpochInfo());
    shape = Shape{};
    shape.Add(db->index());
    wal_records += db->last_lsn();
    if (insert_ns < deadline_ns) {
      db.reset();  // more cycles follow; only the last one is reopened
      continue;
    }

    // Oracle: the reopened index must equal the pre-close one.
    const size_t size_before = db->size();
    const uint64_t digest_before = StateDigest(*db);
    last_records = db->last_lsn();
    db.reset();  // close: flushes the log to the OS
    wal_bytes = FileBytes(rc.WalPath());
    const uint64_t t0 = NowNanos();
    db = Durable::Open(rc, config, &error);
    const uint64_t t1 = NowNanos();
    buf->Record("recovery.Open(replay)", t0, t1, 0, 0);
    recover_s = static_cast<double>(t1 - t0) / 1e9;
    if (db == nullptr) {
      r.Fail(keys.size(), "reopen: " + error);
      break;
    }
    replayed = db->recovery_stats().wal_records_replayed;
    replay_ns = db->recovery_stats().recovery_ns;
    const auto report = db->CheckInvariants();
    uint64_t digest_after = StateDigest(*db);
    if (o.inject_wrong_value) {
      digest_after ^= 1;
    }
    if (!report.ok()) {
      r.Fail(keys.size(), "reopened index fails CheckInvariants: " +
                              report.Describe());
    } else if (db->size() != size_before || digest_after != digest_before) {
      r.Fail(keys.size(), "reopened index differs from the pre-close index");
    }
    db.reset();
  }
  RemoveDurabilityFiles(rc);
  r.Add("setup_s", Median(setups), "s", setups.size());
  r.Add("throughput_mops",
        static_cast<double>(inserted) * 1e3 / static_cast<double>(insert_ns),
        "Mops/s", inserted);
  AddLatency(&r, "insert", inserts, 1.0, "ns");
  for (const char* q : {"p50", "p90", "p99"}) {
    const Metric* m = r.Find(std::string("insert_") + q + "_ns");
    r.Add(std::string("latency_") + q + "_us", m->value / 1e3, "us",
          m->samples);
  }
  r.Add("peak_rss_mb", usage.max_rss_mb, "MB");
  r.Add("stored_bytes_per_user_byte",
        static_cast<double>(wal_bytes) /
            (16.0 * static_cast<double>(keys.size())),
        "B/B");
  r.Add("recover_s", recover_s, "s");

  AddCoreStructural(&r, core, inserted, static_cast<double>(insert_ns));
  AddCoreShape(&r, shape);
  const dytis::LatencyRecorder append =
      dytis::obs::MetricsRegistry::Global()
          .GetHistogram("wal.append_ns")
          .Snapshot();
  r.Add("recovery.wal_records", static_cast<double>(wal_records), "count");
  r.Add("recovery.wal_bytes_per_record",
        last_records > 0 ? static_cast<double>(wal_bytes) /
                               static_cast<double>(last_records)
                         : 0.0,
        "B");
  r.Add("recovery.wal_append_p50_ns",
        static_cast<double>(append.PercentileNanos(0.5)), "ns", append.count());
  r.Add("recovery.wal_share",
        append.MeanNanos() * static_cast<double>(append.count()) /
            static_cast<double>(insert_ns),
        "share");
  r.Add("recovery.replay_mrec_per_s",
        replay_ns > 0 ? static_cast<double>(replayed) * 1e3 /
                            static_cast<double>(replay_ns)
                      : 0.0,
        "Mrec/s");
  AddSync(&r, epochs);
  AddZeros(&r, kServerMetrics);
  AddZeros(&r, kLoadgenMetrics);
  AddProcMetrics(&r, usage, inserted);
  FinishTrace(&r, o, log, gate_counts);
  return r;
}

// ---------------------------------------------------------------- lookup --
//
// One client: uniform Find over the loaded keys, plus kLookupScanPercent
// Scan(100), against an RM-shaped ConcurrentDyTIS built single-writer.
RunResult RunLookup(const Options& o) {
  using Index = dytis::ConcurrentDyTIS<uint64_t>;
  RunResult r;
  SpanLog log(kSpansPerThread);
  SpanBuffer* buf = log.NewBuffer();
  std::vector<uint64_t> keys;
  std::unique_ptr<Index> index;
  std::vector<double> setups;
  double build_ns = 0;
  for (int i = 0; i < kLookupSetups; i++) {
    index.reset();
    const uint64_t t0 = NowNanos();
    keys = LookupKeys(o.seed, o.scale);
    const uint64_t t1 = NowNanos();
    index = std::make_unique<Index>(ScaledConfig(keys.size()));
    for (const uint64_t key : keys) {
      if (!index->Insert(key, ValueFor(key))) {
        r.Fail(1, "load reported an existing key");
      }
    }
    const uint64_t t2 = NowNanos();
    buf->Record("datasets.GenerateReviewKeys", t0, t1, 0, 0);
    buf->Record("core.Insert(load)", t1, t2, 0, 0);
    setups.push_back(static_cast<double>(t2 - t0) / 1e9);
    build_ns = static_cast<double>(t2 - t1);
  }
  r.input_digest = LookupDigest(keys, o.seed);
  std::vector<uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const DyTISStatsView load_stats = index->stats().View();

  dytis::LatencyRecorder finds, scans, all;
  std::vector<Index::ScanEntry> out(kScanLength);
  dytis::Rng rng = LookupOpRng(o.seed);
  GateCounts gate_counts;
  uint64_t ops = 0;
  bool injected = false;
  const Usage u0 = ReadUsage();
  const uint64_t start = NowNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(o.seconds * 1e9);
  const TraceGate gate(o.trace, start);
  uint64_t now = start;
  while (now < deadline) {
    const bool scan = rng.NextBelow(100) < kLookupScanPercent;
    const uint64_t key = keys[rng.NextBelow(keys.size())];
    uint64_t t0, t1;
    const char* call;
    if (scan) {
      call = "core.Scan";
      t0 = NowNanos();
      const size_t got = index->Scan(key, kScanLength, out.data());
      t1 = NowNanos();
      scans.Record(t1 - t0);
      const size_t pos = std::lower_bound(sorted.begin(), sorted.end(), key) -
                         sorted.begin();
      const size_t want = std::min<size_t>(kScanLength, sorted.size() - pos);
      bool ok = got == want;
      for (size_t i = 0; ok && i < got; i++) {
        ok = out[i].first == sorted[pos + i] &&
             out[i].second == ValueFor(out[i].first);
      }
      if (!ok) {
        r.Fail(1, "scan from " + std::to_string(key) +
                      " differs from the sorted keys");
      }
    } else {
      call = "core.Find";
      uint64_t value = 0;
      t0 = NowNanos();
      const bool found = index->Find(key, &value);
      t1 = NowNanos();
      finds.Record(t1 - t0);
      if (o.inject_wrong_value && !injected) {
        value ^= 1;
        injected = true;
      }
      if (!found || value != ValueFor(key)) {
        r.Fail(1, "find " + std::to_string(key) + " returned a wrong value");
      }
    }
    all.Record(t1 - t0);
    ops++;
    if (gate.On(t1)) {
      gate_counts.on++;
      if (ops % kSampleOps == 0) {
        // The op's work, its check included, ends here.
        const uint64_t t2 = NowNanos();
        const uint64_t root = buf->Open();
        buf->Record(call, t0, t1, root, ops);
        buf->Close(root, "bench.lookup", t0, t2, 0, ops);
      }
    } else {
      gate_counts.off++;
    }
    now = t1;
  }
  const uint64_t end = NowNanos();
  const Usage usage = UsageDelta(u0, ReadUsage());
  gate_counts.AddPhase(start, end);
  r.attempted += ops;

  r.Add("setup_s", Median(setups), "s", setups.size());
  r.Add("throughput_mops",
        static_cast<double>(ops) * 1e3 / static_cast<double>(end - start),
        "Mops/s", ops);
  AddLatency(&r, "find", finds, 1.0, "ns");
  AddLatency(&r, "scan", scans, 1.0, "ns");
  AddLatency(&r, "latency", all, 1e3, "us");
  r.Add("peak_rss_mb", usage.max_rss_mb, "MB");

  AddCoreStructural(&r, load_stats, keys.size(), build_ns);
  Shape shape;
  shape.Add(*index);
  AddCoreShape(&r, shape);
  AddSync(&r, index->EpochInfo());
  AddZeros(&r, kRecoveryMetrics);
  AddZeros(&r, kServerMetrics);
  AddZeros(&r, kLoadgenMetrics);
  AddProcMetrics(&r, usage, ops);
  FinishTrace(&r, o, log, gate_counts);
  return r;
}

// ----------------------------------------------------------------- serve --

// What a response must say, by the load generator's construction: reads,
// updates and scans target preloaded keys (never erased), and erases target
// a key the same slot put earlier in its stream and has not erased.  A
// slot's stream repeats; a put inserts on the first pass over it, and on a
// later pass only if the stream erases its key (the previous pass did, after
// putting it), otherwise the key is present and the put must not insert.
bool ResponseOk(const Request& q, const Response& a, bool first_pass,
                const std::unordered_set<uint64_t>& erased) {
  switch (q.op) {
    case OpType::kGet:
      return a.ok && (a.value == dytis::server::PreloadValueFor(q.key) ||
                      a.value == dytis::server::UpdateValueFor(q.key));
    case OpType::kPut:
      return a.ok == (first_pass || erased.count(q.key) > 0);
    case OpType::kUpdate:
    case OpType::kErase:
      return a.ok;
    case OpType::kScan:
      return a.ok && a.scan_len >= 1;
  }
  return false;
}

// The oracle: the served index must equal a sequential replay, on a plain
// one-shard index, of exactly the ops each slot executed.
uint64_t ReplayStateHash(const LoadGenOptions& load,
                         const dytis::server::SlotStreams& streams,
                         const std::vector<uint64_t>& executed) {
  ServerIndex oracle(1, ScaledConfig(load.preload_keys));
  dytis::server::Preload(&oracle, load);
  for (size_t s = 0; s < streams.slots.size(); s++) {
    const std::vector<Request>& stream = streams.slots[s];
    for (uint64_t j = 0; j < executed[s]; j++) {
      const Request& q = stream[j % stream.size()];
      switch (q.op) {
        case OpType::kPut:
          oracle.Insert(q.key, q.value);
          break;
        case OpType::kUpdate:
          oracle.Update(q.key, q.value);
          break;
        case OpType::kErase:
          oracle.Erase(q.key);
          break;
        case OpType::kGet:
        case OpType::kScan:
          break;
      }
    }
  }
  return oracle.StateHash();
}

// Per-thread tallies of the measured phase.
struct ClientTally {
  dytis::LatencyRecorder batch;  // submit -> responses
  dytis::LatencyRecorder e2e;    // due -> responses (open loop)
  dytis::LatencyRecorder late;   // due -> submit (open loop)
  uint64_t ops = 0;
  uint64_t inserted = 0;  // puts that inserted
  uint64_t failed = 0;
  uint64_t traced_ops = 0;
  uint64_t untraced_ops = 0;
  std::string first_error;
};

void SleepUntil(uint64_t due_ns) {
  // NowNanos() reads CLOCK_MONOTONIC (steady_clock).
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(due_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(due_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// `serve` (closed loop) and `serve-open` (paced at kOpenLoopRate).
RunResult RunServe(const Options& o, bool open_loop) {
  RunResult r;
  SpanLog log(kSpansPerThread);
  SpanBuffer* main_buf = log.NewBuffer();
  const LoadGenOptions load = ServeLoad(o.seed, o.scale);
  const uint32_t shards = ServeShards();
  const uint32_t threads =
      open_loop ? std::min(shards, kOpenLoopConnections) : shards;
  const DyTISConfig shard_config =
      dytis::server::ShardScaledConfig(ScaledConfig(load.preload_keys), shards);
  dytis::server::ServerOptions server_options;
  server_options.pin_cores = true;

  std::unique_ptr<ServerIndex> index;
  std::unique_ptr<DyTISServer> srv;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; i++) {
    srv.reset();
    index.reset();
    const uint64_t t0 = NowNanos();
    index = std::make_unique<ServerIndex>(shards, shard_config);
    dytis::server::Preload(index.get(), load);
    srv = std::make_unique<DyTISServer>(index.get(), server_options);
    const uint64_t t1 = NowNanos();
    main_buf->Record("server.Preload", t0, t1, 0, 0);
    setups.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  const uint64_t g0 = NowNanos();
  const dytis::server::SlotStreams streams =
      dytis::server::GenerateSlotStreams(load);
  const uint64_t g1 = NowNanos();
  main_buf->Record("loadgen.GenerateSlotStreams", g0, g1, 0, 0);
  r.input_digest = dytis::server::StreamHash(streams);
  std::unordered_set<uint64_t> erased;  // keys the streams erase
  for (const std::vector<Request>& stream : streams.slots) {
    for (const Request& q : stream) {
      if (q.op == OpType::kErase) {
        erased.insert(q.key);
      }
    }
  }
  r.Add("gen_s", static_cast<double>(g1 - g0) / 1e9, "s");

  std::vector<DyTISStatsView> before(shards);
  for (uint32_t s = 0; s < shards; s++) {
    before[s] = index->shard(s).stats().View();
  }
  std::vector<uint64_t> executed(streams.slots.size(), 0);
  std::vector<ClientTally> tallies(threads);
  std::vector<SpanBuffer*> bufs(threads);
  for (auto& b : bufs) {
    b = log.NewBuffer();
  }
  std::atomic<bool> injected{!o.inject_wrong_value};
  const Usage u0 = ReadUsage();
  const uint64_t start = NowNanos();
  const uint64_t run_ns = static_cast<uint64_t>(o.seconds * 1e9);
  const TraceGate gate(o.trace, start);
  // Batch i of the open-loop schedule is due at start + i * batch / rate and
  // belongs to slot i % slots, which connection i % threads owns.
  const double batch_interval_ns =
      static_cast<double>(load.batch_size) / kOpenLoopRate * 1e9;

  auto client = [&](uint32_t t) {
    // Wake at the due time, not up to the default 50us timer slack later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    ClientTally& tally = tallies[t];
    SpanBuffer* buf = bufs[t];
    std::vector<Response> responses(load.batch_size);
    std::vector<size_t> pos(streams.slots.size(), 0);
    uint64_t n = 0;
    for (uint64_t i = t;; i += threads, n++) {
      const size_t slot = i % streams.slots.size();
      uint64_t due = 0;
      if (open_loop) {
        due = start + static_cast<uint64_t>(static_cast<double>(i) *
                                            batch_interval_ns);
        if (due >= start + run_ns) {
          break;
        }
        if (NowNanos() < due) {
          SleepUntil(due);
        }
      } else if (NowNanos() >= start + run_ns) {
        break;
      }
      const std::vector<Request>& stream = streams.slots[slot];
      const size_t m = std::min(load.batch_size, stream.size() - pos[slot]);
      const Request* batch = stream.data() + pos[slot];
      const uint64_t t0 = NowNanos();
      srv->ExecuteBatch(batch, m, responses.data());
      const uint64_t t1 = NowNanos();
      if (!injected.exchange(true)) {
        responses[0].value ^= 1;
        responses[0].ok = !responses[0].ok;
      }
      const bool first_pass = executed[slot] < stream.size();
      for (size_t k = 0; k < m; k++) {
        tally.inserted += batch[k].op == OpType::kPut && responses[k].ok;
        if (!ResponseOk(batch[k], responses[k], first_pass, erased)) {
          if (tally.failed++ == 0) {
            tally.first_error =
                std::string(dytis::server::OpTypeName(batch[k].op)) + " " +
                std::to_string(batch[k].key) + " got a wrong response";
          }
        }
      }
      const uint64_t t2 = NowNanos();
      executed[slot] += m;
      pos[slot] = (pos[slot] + m) % stream.size();
      tally.ops += m;
      tally.batch.Record(t1 - t0);
      if (open_loop) {
        tally.e2e.Record(t1 - due);
        tally.late.Record(t0 > due ? t0 - due : 0);
      }
      if (gate.On(t1)) {
        tally.traced_ops += m;
        if (n % kSampleBatches == 0) {
          const uint64_t request = (static_cast<uint64_t>(t) << 40) | n;
          const uint64_t root = buf->Open();
          buf->Record("server.ExecuteBatch", t0, t1, root, request);
          buf->Close(root, "loadgen.batch", open_loop ? due : t0, t2, 0,
                     request);
        }
      } else {
        tally.untraced_ops += m;
      }
    }
  };
  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < threads; t++) {
    clients.emplace_back(client, t);
  }
  for (auto& c : clients) {
    c.join();
  }
  const uint64_t end = NowNanos();
  const Usage usage = UsageDelta(u0, ReadUsage());
  srv->Stop();
  const double seconds = static_cast<double>(end - start) / 1e9;

  dytis::LatencyRecorder batch, e2e, late;
  GateCounts gate_counts;
  gate_counts.AddPhase(start, end);
  uint64_t ops = 0, inserted = 0;
  for (ClientTally& tally : tallies) {
    ops += tally.ops;
    inserted += tally.inserted;
    r.attempted += tally.ops;
    if (tally.failed > 0) {
      r.Fail(tally.failed, tally.first_error);
    }
    batch.Merge(tally.batch);
    e2e.Merge(tally.e2e);
    late.Merge(tally.late);
    gate_counts.on += tally.traced_ops;
    gate_counts.off += tally.untraced_ops;
  }

  r.Add("setup_s", Median(setups), "s", setups.size());
  r.Add("throughput_mops", static_cast<double>(ops) / seconds / 1e6, "Mops/s",
        ops);
  AddLatency(&r, "batch", batch, 1e3, "us");
  if (open_loop) {
    AddLatency(&r, "e2e", e2e, 1e3, "us");
  }
  AddLatency(&r, "latency", open_loop ? e2e : batch, 1e3, "us");
  r.Add("peak_rss_mb", usage.max_rss_mb, "MB");

  const dytis::server::ServerStats stats = srv->Stats();
  const DyTISServer::Breakdown bd = srv->BreakdownLatency();
  const dytis::LatencyRecorder service = srv->ServiceLatency();
  auto us = [](const dytis::LatencyRecorder& rec, double q) {
    return ReportedNanos(rec, q) / 1e3;
  };
  r.Add("server.queue_p50_us", us(bd.queue, 0.5), "us", bd.queue.count());
  r.Add("server.queue_p99_us", us(bd.queue, 0.99), "us", bd.queue.count());
  r.Add("server.service_p50_us", us(bd.service, 0.5), "us", bd.service.count());
  r.Add("server.request_p50_us", us(bd.request, 0.5), "us", bd.request.count());
  const double request_p50 = us(bd.request, 0.5);
  r.Add("server.attribution_gap",
        request_p50 > 0
            ? (request_p50 - us(bd.queue_plus_service, 0.5)) / request_p50
            : 0.0,
        "share");
  r.Add("server.op_service_p50_ns", us(service, 0.5) * 1e3, "ns",
        service.count());
  r.Add("server.op_service_p99_ns", us(service, 0.99) * 1e3, "ns",
        service.count());
  r.Add("server.handoffs_per_batch",
        stats.batches > 0 ? static_cast<double>(stats.shard_handoffs) /
                                static_cast<double>(stats.batches)
                          : 0.0,
        "count");
  r.Add("server.queue_depth_peak", static_cast<double>(stats.queue_depth_peak),
        "count");
  double max_shard = 0, sum_shard = 0;
  for (const uint64_t n : stats.shard_requests) {
    max_shard = std::max(max_shard, static_cast<double>(n));
    sum_shard += static_cast<double>(n);
  }
  r.Add("server.shard_skew",
        sum_shard > 0 ? max_shard *
                            static_cast<double>(stats.shard_requests.size()) /
                            sum_shard
                      : 0.0,
        "ratio");
  if (open_loop) {
    r.Add("loadgen.late_p99_us", ReportedNanos(late, 0.99) / 1e3, "us",
          late.count());
    r.Add("loadgen.achieved_share",
          static_cast<double>(ops) / seconds / kOpenLoopRate, "share");
  } else {
    AddZeros(&r, kLoadgenMetrics);
  }

  DyTISStatsView core;
  EpochStats epochs;
  Shape shape;
  for (uint32_t s = 0; s < shards; s++) {
    Accumulate(&core, Diff(before[s], index->shard(s).stats().View()));
    AddEpoch(&epochs, index->shard(s).EpochInfo());
    shape.Add(index->shard(s));
  }
  AddCoreStructural(&r, core, inserted, seconds * 1e9 * shards);
  AddCoreShape(&r, shape);
  AddSync(&r, epochs);
  AddZeros(&r, kRecoveryMetrics);
  AddProcMetrics(&r, usage, ops);
  FinishTrace(&r, o, log, gate_counts);

  // Oracle (untimed): the final state against a sequential replay.
  const uint64_t served = index->StateHash();
  const uint64_t c0 = NowNanos();
  const uint64_t expected = ReplayStateHash(load, streams, executed);
  main_buf->Record("bench.ReplayOracle", c0, NowNanos(), 0, 0);
  std::string why;
  if (!index->CheckShardingInvariants(&why)) {
    r.Fail(1, "sharding invariants: " + why);
  }
  if (served != expected) {
    r.Fail(1, "final StateHash differs from the sequential replay");
  }
  srv.reset();
  return r;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ingest", "lookup", "serve",
                                                 "serve-open"};
  return names;
}

RunResult RunWorkload(const Options& options) {
  if (options.workload == "ingest") {
    return RunIngest(options);
  }
  if (options.workload == "lookup") {
    return RunLookup(options);
  }
  if (options.workload == "serve" || options.workload == "serve-open") {
    return RunServe(options, options.workload == "serve-open");
  }
  RunResult r;
  r.Fail(0, "unknown workload '" + options.workload + "'");
  return r;
}

uint64_t InputDigest(const std::string& workload, uint64_t seed, double scale) {
  if (workload == "ingest") {
    return DigestKeys(IngestKeys(seed, scale));
  }
  if (workload == "lookup") {
    return LookupDigest(LookupKeys(seed, scale), seed);
  }
  if (workload == "serve" || workload == "serve-open") {
    return dytis::server::StreamHash(
        dytis::server::GenerateSlotStreams(ServeLoad(seed, scale)));
  }
  return 0;
}

}  // namespace perfbench
