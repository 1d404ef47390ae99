// Single-threaded load generator for the end-to-end benchmark.
//
// One thread (the caller of LoadGen::Run) produces every submission: the
// open-loop arrivals, the closed-loop clients (each an outstanding request
// the thread re-issues when the previous one finishes, not a thread of its
// own), client retries, and the periodic advancement trigger. Completion
// callbacks run on the engine's worker threads; they only stamp the time
// and hand the result back through a queue.

#ifndef AVA3_PERFBENCH_LOADGEN_H_
#define AVA3_PERFBENCH_LOADGEN_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "stats.h"
#include "workload/workload.h"

namespace perfbench {

/// The traffic one workload offers. The transaction shapes and data sizes
/// live in `spec`; the rest says how requests arrive.
struct Shape {
  std::string name;
  ava3::wl::WorkloadSpec spec;
  /// Open loop: Poisson arrivals at this mean rate (requests/s; 0 = none).
  double open_rate = 0;
  /// Share of open-loop arrivals that are read-only queries.
  double open_query_share = 0;
  /// Closed loop: number of outstanding requests (0 = none).
  int closed_clients = 0;
  /// Share of closed-loop requests that are read-only queries.
  double closed_query_share = 0;
  /// Version-advancement trigger period (µs; coordinator node 0).
  ava3::SimDuration advancement_period = 0;
  /// Keep the history recorder on and run the serializability oracle.
  bool recorder = false;
};

/// One committed update in the measured window, for span attribution.
struct UpdateRecord {
  ava3::TxnId txn = 0;  // the committing attempt
  int64_t due = 0;      // ns since load start: scheduled send / first submit
  int64_t first_submit = 0;  // ns: the first attempt's submit
  int64_t submit = 0;   // ns: the committing attempt's submit
  int64_t done = 0;     // ns: its commit callback
};

struct LoadResult {
  double window_s = 0;
  /// Latency of committed measured requests, ns: open loop from the
  /// scheduled send time, closed loop from the first submit, both to the
  /// final commit callback (retries and backoff included).
  Samples update_ns;
  Samples query_ns;
  /// Updates that committed on their first attempt (no retry in them).
  Samples update_first_try_ns;
  /// Open loop: actual submit time minus scheduled send time, ns.
  Samples gen_lag_ns;
  /// Time inside ScriptGenerator::NextUpdate/NextQuery and Engine::Submit.
  Samples script_ns;
  Samples submit_ns;
  uint64_t requests = 0;   // measured requests (in the window)
  uint64_t failed = 0;     // measured requests that never committed
  uint64_t committed_in_window = 0;  // final commits inside the window
  uint64_t committed_total = 0;      // every commit callback of the run
  uint64_t attempts_measured = 0;
  uint64_t commits_measured = 0;
  uint64_t attempts_total = 0;
  uint64_t retried = 0;  // measured requests that needed more than one try
  uint64_t aborted_attempts = 0;  // whole run
  /// Attempts aborted with kTimedOut (whole run).
  uint64_t timeouts = 0;
  /// Largest number of open-loop arrivals found already due at one wakeup.
  uint64_t max_backlog = 0;
  double drain_s = 0;
  bool drained = true;
  /// Offered-load bookkeeping error (a callback that fired twice, or a
  /// submission whose callback never fired); empty when clean.
  std::string error;
  std::vector<UpdateRecord> updates;  // only with Options::keep_updates
};

class LoadGen {
 public:
  struct Options {
    double warmup_s = 1.0;
    double window_s = 10.0;
    /// Give up waiting for outstanding requests after this long.
    double drain_cap_s = 60.0;
    bool keep_updates = false;
    /// Called on the generator thread about every `hook_period_ns`.
    std::function<void()> hook;
    int64_t hook_period_ns = 0;
  };

  LoadGen(ava3::db::Database& db, const Shape& shape, uint64_t seed,
          Options options);
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Drives the load to the end of the window, then waits for every
  /// outstanding request. Returns with the workers still running.
  LoadResult Run();

  /// Runtime clock (µs) minus the benchmark clock (ns since load start,
  /// converted to µs), sampled when the load started.
  int64_t runtime_offset_us() const { return runtime_offset_us_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    ava3::txn::TxnScript script;
    int64_t due = 0;
    int64_t first_submit = 0;
    int64_t submit = 0;
    ava3::TxnId txn = 0;
    int attempts = 0;
    int client = -1;  // closed-loop client, or -1 for open loop
    bool query = false;
    bool measured = false;
  };
  struct Completion {
    uint32_t slot;
    ava3::TxnId txn;
    bool committed;
    ava3::StatusCode code;
    int64_t at;
  };
  struct Retry {
    int64_t due;
    uint32_t slot;
    bool operator>(const Retry& o) const { return due > o.due; }
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
  }
  uint32_t NewRequest(ava3::wl::ScriptGenerator& gen, bool query,
                      int64_t due, int client);
  void SubmitAttempt(uint32_t slot);
  void Finish(uint32_t slot, bool committed, int64_t at);
  void OnCompletion(const Completion& c);

  ava3::db::Database& db_;
  const Shape shape_;
  const Options opt_;
  int64_t warm_end_ = 0;
  int64_t load_end_ = 0;
  Clock::time_point t0_;
  int64_t runtime_offset_us_ = 0;

  ava3::Rng arrivals_;
  std::unique_ptr<ava3::wl::ScriptGenerator> open_gen_;
  std::vector<ava3::Rng> client_rng_;
  std::vector<std::unique_ptr<ava3::wl::ScriptGenerator>> client_gen_;

  std::vector<Request> slots_;
  std::vector<uint32_t> free_slots_;
  uint64_t outstanding_ = 0;
  std::priority_queue<Retry, std::vector<Retry>, std::greater<Retry>>
      retries_;
  /// Per attempt (index = TxnId): 1 = submitted, 2 = callback seen.
  std::vector<uint8_t> attempt_state_;
  int64_t last_done_ = 0;
  LoadResult res_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Completion> queue_;  // guarded by mu_
  bool waiting_ = false;           // guarded by mu_
};

}  // namespace perfbench

#endif  // AVA3_PERFBENCH_LOADGEN_H_
