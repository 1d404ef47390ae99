// End-to-end benchmark of AVA3 on real threads (RuntimeKind::kThread).
//
//   perfbench --workload <point_stream|scan_large|hot_contention>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--rate <txn/s>] [--drain-cap <s>]
//             [--untraced-tps <x> --untraced-p50-us <y>]
//
// One process sets up one database (construction plus LoadInitial of every
// item), drives one workload for a warm-up second plus --seconds from this
// process's single generator thread, drains every outstanding request,
// shuts the database down and checks its outputs. It prints every metric
// by name with its unit and sample count, then one JSON line: the gated
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
// (trace rings on; the --untraced-* figures price the tracing). --rate
// overrides the open-loop rate for the diagnostic rate ladder.
// perfbench/run.py builds this program and combines several processes into
// one benchmark run; see perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "engine/engine_base.h"
#include "layers.h"
#include "loadgen.h"
#include "stats.h"
#include "storage/versioned_store.h"
#include "verify/serializability.h"

namespace perfbench {
namespace {

using ava3::kMillisecond;
using Clock = std::chrono::steady_clock;
namespace db = ava3::db;

constexpr double kWarmupS = 1.0;
constexpr double kQuiesceCapS = 10.0;
constexpr int64_t kHookPeriodNs = 100'000'000;  // traced run: safepoint probe
constexpr size_t kTraceRing = 1 << 16;          // events per worker ring

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

Shape MakeShape(const std::string& name) {
  Shape s;
  s.name = name;
  ava3::wl::WorkloadSpec& w = s.spec;
  w.num_nodes = 3;
  w.update_multinode_prob = 0.4;
  w.query_multinode_prob = 0.4;
  if (name == "point_stream") {
    w.items_per_node = 4096;
    s.open_rate = 20000;
    s.open_query_share = 1.0 / 3.0;  // 2 updates per point query
    s.advancement_period = 50 * kMillisecond;
  } else if (name == "scan_large") {
    w.items_per_node = 262144;
    w.query_scan_fraction = 1.0;  // 4-16 scans of 4-16 items
    w.query_multinode_prob = 0.5;
    s.open_rate = 1000;  // updates only
    s.closed_clients = 4;
    s.closed_query_share = 1.0;  // the analysts
    s.advancement_period = 20 * kMillisecond;
    s.recorder = true;
  } else if (name == "hot_contention") {
    w.items_per_node = 4096;
    w.zipf_theta = 0.9;
    s.closed_clients = 32;
    s.closed_query_share = 0.2;  // 4 updates per point query
    s.advancement_period = 50 * kMillisecond;
  } else {
    s.name.clear();
  }
  return s;
}

// --- Report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t n;
  std::string note;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, size_t n = 0,
           std::string note = "") {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), n,
                              std::move(note)});
  }
  void Print(const char* title) const {
    std::printf("-- %s\n", title);
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %14.4f %-6s", m.name.c_str(), m.value,
                  m.unit.c_str());
      if (m.n > 0) std::printf("  n=%zu", m.n);
      if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
      std::printf("\n");
    }
  }
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.10g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

std::string Beyond(const Samples& s, double p) {
  return std::to_string(s.Beyond(p)) + " beyond";
}

// --- One database run -------------------------------------------------------

db::DatabaseOptions MakeOptions(const Shape& s, uint64_t seed, bool trace) {
  db::DatabaseOptions o;
  o.runtime = db::RuntimeKind::kThread;
  o.scheme = db::Scheme::kAva3;
  o.num_nodes = s.spec.num_nodes;
  o.seed = seed;
  o.enable_recorder = s.recorder;
  o.enable_trace = trace;
  o.trace_ring_capacity = kTraceRing;
  o.cluster.items_per_partition = s.spec.items_per_node;
  return o;
}

/// Database construction plus LoadInitial of every item: `*seconds` is
/// the whole, `*load_s` the LoadInitial part.
std::unique_ptr<db::Database> SetUp(const Shape& s, uint64_t seed, bool trace,
                                    double* seconds, double* load_s) {
  const Clock::time_point t = Clock::now();
  ava3::Status st;
  auto database = db::Database::Create(MakeOptions(s, seed, trace), &st);
  if (database == nullptr) {
    std::fprintf(stderr, "perfbench: bad options: %s\n",
                 st.ToString().c_str());
    std::exit(2);
  }
  const Clock::time_point l = Clock::now();
  const ava3::cluster::Catalog& cat = database->catalog();
  for (ava3::ItemId item = 0; item < cat.TotalItems(); ++item) {
    database->LoadInitial(cat.HomeOf(item), item, s.spec.initial_value);
  }
  *load_s = Since(l);
  *seconds = Since(t);
  return database;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct RunOutput {
  LoadResult load;
  db::MetricsSnapshot snap;
  double elapsed_s = 0;  // load start to last completion
  uint64_t msgs_sent = 0;
  int max_live_versions = 0;
  double check_s = 0;
  size_t history_txns = 0;
  uint64_t trace_dropped = 0;
  double peak_rss_mb = 0;
  Samples safepoint_ns;  // traced run: empty RunExclusive under load
  std::vector<std::string> failures;
};

/// Drives `shape` on an already set-up database, shuts it down and runs the
/// correctness gate. With `analyzer`, the trace rings are drained into it
/// every other probe tick.
RunOutput Drive(db::Database& database, const Shape& shape, uint64_t seed,
                double window_s, double warmup_s, double drain_cap_s,
                SpanAnalyzer* analyzer, int64_t* runtime_offset_us) {
  RunOutput out;
  LoadGen::Options lo;
  lo.warmup_s = warmup_s;
  lo.window_s = window_s;
  lo.drain_cap_s = drain_cap_s;
  int tick = 0;
  if (analyzer != nullptr) {
    lo.keep_updates = true;
    database.runtime().RunExclusive([&] {
      database.trace().SetListener(
          [analyzer](const ava3::TraceEvent& ev) { analyzer->OnEvent(ev); });
    });
    lo.hook_period_ns = kHookPeriodNs;
    lo.hook = [&] {
      const Clock::time_point t = Clock::now();
      database.runtime().RunExclusive([] {});
      out.safepoint_ns.Add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t)
              .count());
      if (++tick % 2 == 0) {
        database.runtime().RunExclusive([&] {
          database.trace().Drain();
          database.trace().Clear();
        });
      }
    };
  }
  LoadGen gen(database, shape, seed, lo);
  out.load = gen.Run();
  // Peak memory of the system under load, before the checker's own
  // bookkeeping (the oracle's initial-value map) adds to it.
  out.peak_rss_mb = PeakRssMb();
  out.elapsed_s = warmup_s + window_s + out.load.drain_s;
  if (runtime_offset_us != nullptr) *runtime_offset_us = gen.runtime_offset_us();
  // The root's commit callback fires before the commit message reaches the
  // other participants. Wait until no subtransaction is left anywhere, so
  // the oracle sees every participant's commit.
  auto& base = static_cast<db::EngineBase&>(database.engine());
  int active = 0;
  const Clock::time_point q = Clock::now();
  do {
    if (active > 0) database.RunFor(kMillisecond);
    database.runtime().RunExclusive([&] { active = base.ActiveSubtxns(); });
  } while (active > 0 && out.load.drained && Since(q) < kQuiesceCapS);
  database.Shutdown();  // joins the workers; drains the rings one last time
  if (analyzer != nullptr) {
    database.trace().Clear();
    out.trace_dropped = database.trace().dropped();
  }

  // --- Correctness gate ---------------------------------------------------
  auto fail = [&](std::string what) { out.failures.push_back(std::move(what)); };
  out.snap = database.metrics().Snapshot();
  out.msgs_sent = database.thread_runtime()->TotalSent();
  if (!out.load.error.empty()) fail(out.load.error);
  // An undrained run (Run decides whether that fails it) still has
  // callbacks to come, so its commit count cannot be compared yet.
  if (out.load.drained && out.load.committed_total !=
                              out.snap.update_commits + out.snap.query_commits) {
    fail("benchmark saw " + std::to_string(out.load.committed_total) +
         " commits, engine counted " +
         std::to_string(out.snap.update_commits + out.snap.query_commits));
  }
  if (out.load.drained && active > 0) {
    fail(std::to_string(active) + " subtransactions still active " +
         std::to_string(kQuiesceCapS) + " s after the last callback");
  }
  for (ava3::PartitionId p = 0; p < base.num_partitions(); ++p) {
    out.max_live_versions = std::max(
        out.max_live_versions, base.partition_store(p).MaxLiveVersionsObserved());
  }
  if (out.max_live_versions > 3) {
    fail("partition held " + std::to_string(out.max_live_versions) +
         " live versions (bound 3)");
  }
  const ava3::Status inv = database.ava3_engine()->CheckInvariants();
  if (!inv.ok()) fail("invariants: " + inv.ToString());
  if (shape.recorder) {
    std::map<ava3::ItemId, int64_t> initial;
    const ava3::cluster::Catalog& cat = database.catalog();
    for (ava3::ItemId item = 0; item < cat.TotalItems(); ++item) {
      initial.emplace_hint(initial.end(), item, shape.spec.initial_value);
    }
    std::vector<const ava3::store::VersionedStore*> stores;
    for (ava3::PartitionId p = 0; p < base.num_partitions(); ++p) {
      stores.push_back(&base.partition_store(p));
    }
    const Clock::time_point c = Clock::now();
    ava3::verify::SerializabilityChecker checker(std::move(initial));
    const auto& txns = database.recorder().txns();
    ava3::Status st = checker.Check(txns);
    if (st.ok()) st = checker.CheckFinalState(txns, stores);
    out.check_s = Since(c);
    out.history_txns = txns.size();
    if (!st.ok()) fail("serializability oracle: " + st.ToString());
  }
  return out;
}

double Pct(const Samples& s, double p, double scale) { return s.Pct(p) / scale; }

/// The gated end-to-end metrics of one run.
void AddEndToEnd(Report& r, const RunOutput& o, double setup_s) {
  const LoadResult& l = o.load;
  r.Add("setup_s", setup_s, "s", 1, "construction + LoadInitial");
  r.Add("committed_tps",
        static_cast<double>(l.committed_in_window) / l.window_s, "txn/s",
        l.committed_in_window);
  r.Add("update_p50_us", Pct(l.update_ns, 50, 1e3), "us", l.update_ns.n());
  r.Add("query_p50_us", Pct(l.query_ns, 50, 1e3), "us", l.query_ns.n());
  r.Add("staleness_p50_ms",
        static_cast<double>(o.snap.staleness.Percentile(50)) / 1e3, "ms",
        o.snap.staleness.count(), "engine staleness histogram");
  r.Add("peak_rss_mb", o.peak_rss_mb, "MB", 0,
        "getrusage max RSS at the end of the load");
}

/// Reported with every run, never gated: the tails swing with the host's
/// scheduling far more than any bound a change could be held to (see
/// perfbench/README.md), and failures are zero on every gated workload.
void AddDetail(Report& r, const RunOutput& o) {
  const LoadResult& l = o.load;
  r.Add("update_p90_us", Pct(l.update_ns, 90, 1e3), "us", l.update_ns.n());
  r.Add("update_p99_us", Pct(l.update_ns, 99, 1e3), "us", l.update_ns.n(),
        Beyond(l.update_ns, 99));
  r.Add("query_p90_us", Pct(l.query_ns, 90, 1e3), "us", l.query_ns.n());
  r.Add("query_p99_us", Pct(l.query_ns, 99, 1e3), "us", l.query_ns.n(),
        Beyond(l.query_ns, 99));
  r.Add("failed_ratio",
        l.requests ? static_cast<double>(l.failed) /
                         static_cast<double>(l.requests)
                   : 0,
        "ratio", l.requests);
  r.Add("unfinished",
        static_cast<double>(l.requests - l.commits_measured - l.failed),
        "count", 0, "neither committed nor failed by the drain cap");
  r.Add("abort_ratio",
        l.attempts_total ? static_cast<double>(l.aborted_attempts) /
                               static_cast<double>(l.attempts_total)
                         : 0,
        "ratio", l.attempts_total, "aborted attempts, retried or not");
  r.Add("drain_s", l.drain_s, "s");
  r.Add("drained", l.drained ? 1 : 0, "bool");
  r.Add("gen_lag_p99_us", Pct(l.gen_lag_ns, 99, 1e3), "us", l.gen_lag_ns.n());
}

/// Lines every run prints about the offered load itself.
void PrintLoad(const LoadResult& l) {
  const double behind_us = Pct(l.gen_lag_ns, 99, 1e3);
  std::printf(
      "load: %llu requests in the window, %llu failed (failed_ratio %.6f), "
      "%llu retried, attempts %llu, drain %.3f s\n",
      static_cast<unsigned long long>(l.requests),
      static_cast<unsigned long long>(l.failed),
      l.requests ? static_cast<double>(l.failed) / l.requests : 0.0,
      static_cast<unsigned long long>(l.retried),
      static_cast<unsigned long long>(l.attempts_total), l.drain_s);
  if (!l.gen_lag_ns.empty()) {
    std::printf(
        "generator lag: p50 %.1f us, p99 %.1f us, max %.1f us (n=%zu), "
        "largest due batch %llu\n",
        Pct(l.gen_lag_ns, 50, 1e3), behind_us, l.gen_lag_ns.Max() / 1e3,
        l.gen_lag_ns.n(), static_cast<unsigned long long>(l.max_backlog));
    if (behind_us > 1000) {
      std::printf(
          "GENERATOR BEHIND: p99 lag %.1f us > 1000 us; open-loop latencies "
          "include that lag (they are timed from the scheduled send)\n",
          behind_us);
    }
  }
}

/// Prints every correctness failure of `o`; true when there is none. A
/// gated run must also have drained: requests still outstanding after the
/// drain cap fail it. The rate ladder overloads on purpose and only
/// reports them.
bool Gate(const RunOutput& o, bool require_drain) {
  for (const std::string& f : o.failures) {
    std::printf("CORRECTNESS FAILURE: %s\n", f.c_str());
  }
  if (!o.load.drained) {
    std::printf("%s: requests still outstanding at the drain cap\n",
                require_drain ? "CORRECTNESS FAILURE" : "BACKLOG");
  }
  return o.failures.empty() && (o.load.drained || !require_drain);
}

void PrintResult(bool correct, const LoadResult& l, const Report& r) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, l.requests)),
      static_cast<unsigned long long>(l.failed), r.Json().c_str());
  std::fflush(stdout);
}

// --- Traced run: per-layer metrics -----------------------------------------

/// One GarbageCollect pass over a store of `items` single-version items,
/// timed from outside: every item is relabeled, the shape of a round in
/// which few items changed. Median of 7 passes, µs.
double GcSweepUs(int64_t items) {
  ava3::store::VersionedStore st(3);
  for (ava3::ItemId i = 0; i < items; ++i) {
    if (!st.Put(i, 0, 1000, 0, 0).ok()) {
      std::fprintf(stderr, "perfbench: store Put failed\n");
      std::exit(1);
    }
  }
  Samples ns;
  for (ava3::Version v = 0; v < 7; ++v) {
    const Clock::time_point t = Clock::now();
    const ava3::store::GcStats g = st.GarbageCollect(v, v + 1);
    ns.Add(std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t)
               .count());
    if (g.versions_relabeled != static_cast<uint64_t>(items)) {
      std::fprintf(stderr, "perfbench: GC pass relabeled %lld of %lld items\n",
                   static_cast<long long>(g.versions_relabeled),
                   static_cast<long long>(items));
      std::exit(1);
    }
  }
  return ns.Pct(50) / 1e3;
}

/// Median time of an empty RunExclusive on an idle database, µs.
double IdleSafepointUs(db::Database& database) {
  Samples ns;
  for (int i = 0; i < 2000; ++i) {
    const Clock::time_point t = Clock::now();
    database.runtime().RunExclusive([] {});
    ns.Add(std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t)
               .count());
  }
  return ns.Pct(50) / 1e3;
}

struct Waterfall {
  double total = 0, lag = 0, retry = 0, hop = 0, lock = 0, twopc = 0,
         apply = 0, self = 0, after = 0;
  size_t n = 0, missing = 0;
};

/// Splits the committed updates whose latency lies in the middle tenth
/// (around update_p50_us) into the layers that cover them. Benchmark times
/// are ns since load start; span times are the runtime's µs.
Waterfall Attribute(const LoadResult& l, const SpanAnalyzer& an,
                    int64_t offset_us) {
  std::vector<const UpdateRecord*> recs;
  for (const UpdateRecord& u : l.updates) recs.push_back(&u);
  std::sort(recs.begin(), recs.end(), [](const auto* a, const auto* b) {
    return a->done - a->due < b->done - b->due;
  });
  Waterfall w;
  const size_t lo = recs.size() * 45 / 100, hi = recs.size() * 55 / 100;
  for (size_t i = lo; i < hi; ++i) {
    const UpdateRecord& u = *recs[i];
    auto it = an.roots.find(u.txn);
    if (it == an.roots.end()) {
      ++w.missing;
      continue;
    }
    const SpanAnalyzer::RootSpan& s = it->second;
    const double begin = static_cast<double>(s.begin - offset_us) * 1e3;
    const double end = static_cast<double>(s.end - offset_us) * 1e3;
    const double done = static_cast<double>(u.done);
    const double span_end = std::min(end, done);
    const double dur = static_cast<double>(s.end - s.begin) * 1e3;
    const double inside = std::max(0.0, span_end - begin);
    // Child spans scaled to the part of the root span before the callback.
    const double scale = dur > 0 ? inside / dur : 0;
    ++w.n;
    w.total += done - static_cast<double>(u.due);
    w.lag += static_cast<double>(u.first_submit - u.due);
    w.retry += static_cast<double>(u.submit - u.first_submit);
    w.hop += std::max(0.0, begin - static_cast<double>(u.submit));
    w.lock += static_cast<double>(s.lock) * 1e3 * scale;
    w.twopc += static_cast<double>(s.twopc) * 1e3 * scale;
    w.apply += static_cast<double>(s.apply) * 1e3 * scale;
    w.self += inside - static_cast<double>(s.lock + s.twopc + s.apply) * 1e3 *
                           scale;
    w.after += std::max(0.0, done - std::max(span_end, begin));
  }
  return w;
}

/// Untraced figures of the same workload, for the price of tracing.
struct Untraced {
  double committed_tps = 0;
  double update_p50_us = 0;
};

void AddPerLayer(Report& r, const Shape& shape, double load_s,
                 const Untraced& un, const RunOutput& tr,
                 const SpanAnalyzer& an, const Waterfall& w,
                 double idle_safepoint_us, double gc_sweep_us) {
  const LoadResult& l = tr.load;
  const db::MetricsSnapshot& m = tr.snap;
  const double commits = static_cast<double>(l.committed_total);
  const double elapsed_s = tr.elapsed_s;

  // workload: the generator itself.
  r.Add("workload.script_ns", l.script_ns.Pct(50), "ns", l.script_ns.n());
  r.Add("workload.gen_lag_p99_us", Pct(l.gen_lag_ns, 99, 1e3), "us",
        l.gen_lag_ns.n(), l.gen_lag_ns.empty() ? "closed loop: no schedule" : "");
  r.Add("workload.gen_lag_max_us", l.gen_lag_ns.Max() / 1e3, "us",
        l.gen_lag_ns.n());

  // engine: Submit, the subtransaction executor, 2PC, commit apply.
  r.Add("engine.submit_ns", l.submit_ns.Pct(50), "ns", l.submit_ns.n());
  r.Add("engine.attempts_per_commit",
        l.commits_measured ? static_cast<double>(l.attempts_measured) /
                                 static_cast<double>(l.commits_measured)
                           : 0,
        "ratio", l.commits_measured);
  r.Add("engine.retried_share",
        l.requests ? static_cast<double>(l.retried) /
                         static_cast<double>(l.requests)
                   : 0,
        "ratio", l.requests);
  r.Add("engine.aborts_deadlock", static_cast<double>(m.deadlock_aborts),
        "count");
  r.Add("engine.aborts_timeout", static_cast<double>(l.timeouts), "count");
  r.Add("engine.aborts_sync_mismatch",
        static_cast<double>(m.sync_mismatch_aborts), "count");
  r.Add("engine.twopc_round_p50_us", an.twopc_us.Pct(50), "us",
        an.twopc_us.n(), "kTwoPcRound spans");
  r.Add("engine.twopc_round_p99_us", an.twopc_us.Pct(99), "us",
        an.twopc_us.n());
  r.Add("engine.commit_apply_p50_us", an.apply_us.Pct(50), "us",
        an.apply_us.n(), "kCommitApply spans");
  r.Add("engine.update_subtxn_p50_us", an.update_subtxn_us.Pct(50), "us",
        an.update_subtxn_us.n(), "kUpdateTxn spans");
  r.Add("engine.update_self_p50_us", an.update_self_us.Pct(50), "us",
        an.update_self_us.n(), "kUpdateTxn minus child spans");
  r.Add("engine.query_subtxn_p50_us", an.query_subtxn_us.Pct(50), "us",
        an.query_subtxn_us.n(), "kQueryTxn spans");
  r.Add("engine.update_first_try_p99_us", Pct(l.update_first_try_ns, 99, 1e3),
        "us", l.update_first_try_ns.n(), "updates with no retry");
  r.Add("engine.load_initial_us",
        load_s / static_cast<double>(shape.spec.TotalItems()) * 1e6, "us",
        static_cast<size_t>(shape.spec.TotalItems()),
        "Database::LoadInitial per item");

  // runtime: mailbox hops per message kind, messages per commit, safepoints.
  using ava3::rt::MsgKind;
  for (MsgKind k : {MsgKind::kSpawnSubtxn, MsgKind::kPrepared,
                    MsgKind::kCommit, MsgKind::kQueryResult,
                    MsgKind::kAdvanceU, MsgKind::kAckAdvanceU,
                    MsgKind::kAdvanceQ, MsgKind::kAckAdvanceQ,
                    MsgKind::kGarbageCollect}) {
    const Samples& h = an.hop_us[static_cast<size_t>(k)];
    const std::string kind = ava3::rt::MsgKindName(k);
    r.Add("runtime.hop_p50_us." + kind, h.Pct(50), "us", h.n());
    r.Add("runtime.hop_p99_us." + kind, h.Pct(99), "us", h.n());
  }
  r.Add("runtime.msgs_per_commit",
        commits > 0 ? static_cast<double>(tr.msgs_sent) / commits : 0,
        "ratio", static_cast<size_t>(commits));
  r.Add("runtime.safepoint_us", Pct(tr.safepoint_ns, 50, 1e3), "us",
        tr.safepoint_ns.n(), "empty RunExclusive under load");
  r.Add("runtime.idle_safepoint_us", idle_safepoint_us, "us", 2000,
        "empty RunExclusive, idle database");

  // lock: the lock table.
  r.Add("lock.wait_p50_us", an.lock_wait_us.Pct(50), "us",
        an.lock_wait_us.n(), "kLockWait spans");
  r.Add("lock.wait_p99_us", an.lock_wait_us.Pct(99), "us",
        an.lock_wait_us.n());
  r.Add("lock.waits_per_commit",
        commits > 0 ? static_cast<double>(an.lock_wait_us.n()) / commits : 0,
        "ratio");
  r.Add("lock.deadlocks_per_s",
        static_cast<double>(m.deadlock_aborts) / elapsed_s, "1/s");

  // storage: the versioned store and its garbage collection.
  r.Add("storage.max_live_versions", tr.max_live_versions, "count");
  r.Add("storage.gc_steps_per_s", static_cast<double>(an.gc_steps) / elapsed_s,
        "1/s", an.gc_steps, "kGcStep, all nodes");
  r.Add("storage.items_collected_per_gc",
        an.gc_steps ? static_cast<double>(an.gc_items) /
                          static_cast<double>(an.gc_steps)
                    : 0,
        "count", an.gc_steps, "dropped + relabeled");
  r.Add("storage.gc_sweep_us", gc_sweep_us, "us", 7,
        "GarbageCollect over items_per_node items, timed alone");

  // ava3: version advancement and moveToFuture.
  const double triggers =
      elapsed_s * 1e6 / static_cast<double>(shape.advancement_period);
  r.Add("ava3.advancements_per_s", static_cast<double>(m.advancements) / elapsed_s,
        "1/s", m.advancements);
  r.Add("ava3.completed_per_trigger",
        static_cast<double>(m.advancements) / triggers, "ratio");
  r.Add("ava3.advancements_cancelled",
        static_cast<double>(m.advancements_cancelled), "count");
  r.Add("ava3.advancement_p50_ms", static_cast<double>(m.advancement_duration.Percentile(50)) / 1e3,
        "ms", m.advancement_duration.count());
  r.Add("ava3.phase1_p50_us", an.phase1_us.Pct(50), "us", an.phase1_us.n(),
        "kAdvancePhase spans");
  r.Add("ava3.phase2_p50_us", an.phase2_us.Pct(50), "us", an.phase2_us.n());
  r.Add("ava3.mtf_per_1k_commits",
        m.update_commits ? static_cast<double>(m.mtf_count) * 1e3 /
                               static_cast<double>(m.update_commits)
                         : 0,
        "ratio", m.mtf_count);
  r.Add("ava3.mtf_records_scanned", static_cast<double>(m.mtf_records_scanned),
        "count");

  // verify: the serializability oracle (outside the timed window).
  r.Add("verify.check_s", tr.check_s, "s", 0,
        shape.recorder ? "" : "recorder off: no oracle on this workload");
  r.Add("verify.history_txns", static_cast<double>(tr.history_txns), "count",
        0, shape.recorder ? "" : "recorder off");

  // common: the price of observing.
  const double tps_tr = static_cast<double>(l.committed_in_window) / l.window_s;
  const char* no_base = "no untraced figure given (--untraced-tps/-p50-us)";
  r.Add("common.trace_overhead_tps",
        tps_tr > 0 ? un.committed_tps / tps_tr : 0, "ratio", 0,
        un.committed_tps > 0 ? "untraced / traced committed_tps" : no_base);
  r.Add("common.trace_overhead_p50",
        un.update_p50_us > 0 ? Pct(l.update_ns, 50, 1e3) / un.update_p50_us
                             : 0,
        "ratio", 0,
        un.update_p50_us > 0 ? "traced / untraced update_p50_us" : no_base);
  r.Add("common.trace_dropped", static_cast<double>(tr.trace_dropped), "count",
        0, "ring overflow");
  r.Add("common.attributed_share",
        w.total > 0 ? (w.lag + w.hop + w.lock + w.twopc + w.apply + w.self) /
                          w.total
                    : 0,
        "ratio", w.n, "of updates around update_p50_us");
}

void PrintWaterfall(const Waterfall& w) {
  if (w.n == 0 || w.total <= 0) {
    std::printf("waterfall: no attributed updates\n");
    return;
  }
  const double n = static_cast<double>(w.n);
  auto row = [&](const char* name, double v) {
    std::printf("  %-44s %10.1f us  %5.1f%%\n", name, v / n / 1e3,
                100.0 * v / w.total);
  };
  std::printf(
      "-- where update time goes, updates around update_p50_us (n=%zu, "
      "%zu without a root span)\n",
      w.n, w.missing);
  row("workload: generator lag", w.lag);
  row("client: earlier attempts + backoff", w.retry);
  row("runtime: submit -> root span (spawn hop)", w.hop);
  row("lock: lock wait (kLockWait)", w.lock);
  row("engine: 2PC round (kTwoPcRound)", w.twopc);
  row("engine: commit apply (kCommitApply)", w.apply);
  row("engine: root subtxn self time", w.self);
  row("runtime: commit -> callback seen", w.after);
  std::printf("  %-44s %10.1f us\n", "total (end-to-end, mean of the tenth)",
              w.total / n / 1e3);
}

void PrintHypotheses(const Shape& shape, double setup_s, double load_s,
                     const RunOutput& tr, const SpanAnalyzer& an,
                     double idle_safepoint_us, double gc_sweep_us) {
  const LoadResult& l = tr.load;
  std::printf("-- hypotheses (evidence from this run)\n");
  const double rounds_per_node_s =
      static_cast<double>(an.gc_steps) / tr.elapsed_s /
      static_cast<double>(shape.spec.num_nodes);
  std::printf(
      "  GC sweep: %.0f us per pass over %lld items x %.1f passes/s per "
      "node = %.1f%% of each worker; update p99 of this run %.0f us\n",
      gc_sweep_us, static_cast<long long>(shape.spec.items_per_node),
      rounds_per_node_s, gc_sweep_us * rounds_per_node_s / 1e4,
      Pct(l.update_ns, 99, 1e3));
  std::printf(
      "  deadlock sweep: empty safepoint under load p50 %.1f us, max %.1f "
      "us; update p99 %.0f us overall vs %.0f us for updates with no retry "
      "(%.2f%% of requests retried)\n",
      Pct(tr.safepoint_ns, 50, 1e3), tr.safepoint_ns.Max() / 1e3,
      Pct(l.update_ns, 99, 1e3), Pct(l.update_first_try_ns, 99, 1e3),
      l.requests ? 100.0 * static_cast<double>(l.retried) /
                       static_cast<double>(l.requests)
                 : 0.0);
  const double per_item_us =
      load_s / static_cast<double>(shape.spec.TotalItems()) * 1e6;
  std::printf(
      "  set-up: %.3f s, of which LoadInitial %.3f s = %.2f us per item; an "
      "idle empty RunExclusive takes %.2f us (%.0f%% of each item)\n",
      setup_s, load_s, per_item_us, idle_safepoint_us,
      per_item_us > 0 ? 100.0 * idle_safepoint_us / per_item_us : 0.0);
}

// --- Entry points -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  double rate = 0;  // open-loop rate override (diagnostic ladder)
  double drain_cap_s = 60;
  Untraced untraced;
};

int Run(const Args& a) {
  Shape shape = MakeShape(a.workload);
  if (a.rate > 0) shape.open_rate = a.rate;
  const bool traced = a.trace == 1;
  std::printf(
      "workload %s seed %llu%s: %lld items/node on %d nodes, %.0f s warm-up "
      "+ %.2f s window\n",
      shape.name.c_str(), static_cast<unsigned long long>(a.seed),
      traced ? " (traced)" : "",
      static_cast<long long>(shape.spec.items_per_node), shape.spec.num_nodes,
      kWarmupS, a.seconds);
  double setup_s = 0, load_s = 0;
  auto database = SetUp(shape, a.seed, traced, &setup_s, &load_s);
  if (!traced) {
    const RunOutput o = Drive(*database, shape, a.seed, a.seconds, kWarmupS,
                              a.drain_cap_s, nullptr, nullptr);
    database.reset();
    const bool correct = Gate(o, /*require_drain=*/a.rate == 0);
    PrintLoad(o.load);
    Report e2e, detail;
    AddEndToEnd(e2e, o, setup_s);
    AddDetail(detail, o);
    e2e.Print("end-to-end");
    detail.Print("reported, not gated");
    std::printf("DETAIL %s\n", detail.Json().c_str());
    PrintResult(correct, o.load, e2e);
    return correct ? 0 : 1;
  }

  const double idle_safepoint_us = IdleSafepointUs(*database);
  SpanAnalyzer an;
  int64_t offset_us = 0;
  const RunOutput tr = Drive(*database, shape, a.seed, a.seconds, kWarmupS,
                             a.drain_cap_s, &an, &offset_us);
  database.reset();
  const bool correct = Gate(tr, /*require_drain=*/a.rate == 0);
  std::printf("traced: %llu events analysed, %llu dropped\n",
              static_cast<unsigned long long>(an.events),
              static_cast<unsigned long long>(tr.trace_dropped));
  PrintLoad(tr.load);
  const double gc_sweep_us = GcSweepUs(shape.spec.items_per_node);
  const Waterfall w = Attribute(tr.load, an, offset_us);
  Report layers;
  AddPerLayer(layers, shape, load_s, a.untraced, tr, an, w,
              idle_safepoint_us, gc_sweep_us);
  layers.Print("per layer (traced)");
  PrintWaterfall(w);
  PrintHypotheses(shape, setup_s, load_s, tr, an, idle_safepoint_us,
                  gc_sweep_us);
  PrintResult(correct, tr.load, layers);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload point_stream|scan_large|"
               "hot_contention --seed N --seconds S --trace 0|1\n"
               "         [--rate R] [--drain-cap S]\n"
               "         [--untraced-tps X --untraced-p50-us Y]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--rate") {
      a.rate = std::strtod(v, &end);
    } else if (k == "--drain-cap") {
      a.drain_cap_s = std::strtod(v, &end);
    } else if (k == "--untraced-tps") {
      a.untraced.committed_tps = std::strtod(v, &end);
    } else if (k == "--untraced-p50-us") {
      a.untraced.update_p50_us = std::strtod(v, &end);
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (MakeShape(a.workload).name.empty() || a.seconds <= 0 ||
      a.drain_cap_s <= 0 || (a.trace != 0 && a.trace != 1)) {
    return Usage();
  }
  return Run(a);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
