#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <utility>

namespace perfbench {

using ava3::TxnId;
using ava3::TxnOutcome;

namespace {

int64_t SecToNs(double s) { return static_cast<int64_t>(s * 1e9); }

}  // namespace

LoadGen::LoadGen(ava3::db::Database& db, const Shape& shape, uint64_t seed,
                 Options options)
    : db_(db),
      shape_(shape),
      opt_(std::move(options)),
      arrivals_(seed ^ 0x9E3779B97F4A7C15ULL) {
  // Every stream of scripts has its own generator seeded from `seed`, so a
  // seed fixes each stream's inputs even though the closed-loop streams
  // interleave in completion order.
  open_gen_ = std::make_unique<ava3::wl::ScriptGenerator>(
      shape_.spec, ava3::Rng(seed), &db_.catalog());
  for (int c = 0; c < shape_.closed_clients; ++c) {
    const uint64_t s = seed * 1000003ULL + static_cast<uint64_t>(c) + 1;
    client_rng_.emplace_back(s ^ 0x5851F42D4C957F2DULL);
    client_gen_.push_back(std::make_unique<ava3::wl::ScriptGenerator>(
        shape_.spec, ava3::Rng(s), &db_.catalog()));
  }
}

uint32_t LoadGen::NewRequest(ava3::wl::ScriptGenerator& gen, bool query,
                             int64_t due, int client) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Request& r = slots_[slot];
  const int64_t t = NowNs();
  r.script = query ? gen.NextQuery() : gen.NextUpdate();
  res_.script_ns.Add(NowNs() - t);
  r.due = due;
  r.attempts = 0;
  r.client = client;
  r.query = query;
  r.measured = due >= warm_end_ && due < load_end_;
  if (r.measured) ++res_.requests;
  ++outstanding_;
  return slot;
}

void LoadGen::SubmitAttempt(uint32_t slot) {
  Request& r = slots_[slot];
  const TxnId txn = db_.NextTxnId();
  if (attempt_state_.size() <= txn) attempt_state_.resize(txn * 2 + 1024, 0);
  attempt_state_[txn] = 1;
  r.txn = txn;
  ++r.attempts;
  ++res_.attempts_total;
  if (r.measured) ++res_.attempts_measured;
  ava3::txn::TxnScript script = r.script;  // kept for retries
  auto done = [this, slot, txn](const ava3::db::TxnResult& out) {
    Completion c{slot, txn, out.outcome == TxnOutcome::kCommitted,
                 out.status.code(), NowNs()};
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(c);
    if (waiting_) cv_.notify_one();
  };
  r.submit = NowNs();
  if (r.attempts == 1) r.first_submit = r.submit;
  db_.engine().Submit(txn, std::move(script), std::move(done));
  res_.submit_ns.Add(NowNs() - r.submit);
}

void LoadGen::Finish(uint32_t slot, bool committed, int64_t at) {
  Request& r = slots_[slot];
  --outstanding_;
  last_done_ = std::max(last_done_, at);
  if (committed) {
    ++res_.committed_total;
    if (at >= warm_end_ && at < load_end_) ++res_.committed_in_window;
  }
  if (r.measured) {
    if (r.attempts > 1) ++res_.retried;
    if (committed) {
      ++res_.commits_measured;
      (r.query ? res_.query_ns : res_.update_ns).Add(at - r.due);
      if (!r.query && r.attempts == 1) res_.update_first_try_ns.Add(at - r.due);
      if (opt_.keep_updates && !r.query) {
        res_.updates.push_back(
            UpdateRecord{r.txn, r.due, r.first_submit, r.submit, at});
      }
    } else {
      ++res_.failed;
    }
  }
  const int client = r.client;
  r.script = {};
  free_slots_.push_back(slot);
  if (client >= 0 && at < load_end_) {
    // The client sends its next request as soon as it has the answer.
    const bool query = client_rng_[static_cast<size_t>(client)].NextDouble() <
                       shape_.closed_query_share;
    const int64_t now = NowNs();
    SubmitAttempt(NewRequest(*client_gen_[static_cast<size_t>(client)], query,
                             now, client));
  }
}

void LoadGen::OnCompletion(const Completion& c) {
  if (c.txn >= attempt_state_.size() || attempt_state_[c.txn] != 1) {
    if (res_.error.empty()) {
      res_.error = "callback for attempt " + std::to_string(c.txn) +
                   (c.txn < attempt_state_.size() && attempt_state_[c.txn] == 2
                        ? " fired twice"
                        : " that was never submitted");
    }
    return;
  }
  attempt_state_[c.txn] = 2;
  Request& r = slots_[c.slot];
  if (c.committed) {
    Finish(c.slot, true, c.at);
    return;
  }
  ++res_.aborted_attempts;
  if (c.code == ava3::StatusCode::kTimedOut) ++res_.timeouts;
  const bool retryable = c.code == ava3::StatusCode::kAborted ||
                         c.code == ava3::StatusCode::kDeadlock ||
                         c.code == ava3::StatusCode::kTimedOut ||
                         c.code == ava3::StatusCode::kUnavailable;
  if (!retryable || r.attempts > shape_.spec.max_retries) {
    Finish(c.slot, false, c.at);
    return;
  }
  // Same policy as wl::WorkloadRunner: linear backoff, fresh TxnId.
  const int64_t backoff =
      shape_.spec.retry_backoff * 1000 * static_cast<int64_t>(r.attempts);
  retries_.push(Retry{c.at + backoff, c.slot});
}

LoadResult LoadGen::Run() {
  // Wake-ups on this thread are the pacing mechanism; ask the kernel not
  // to coalesce them (the default timer slack is 50 µs).
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  res_.window_s = opt_.window_s;
  warm_end_ = SecToNs(opt_.warmup_s);
  load_end_ = warm_end_ + SecToNs(opt_.window_s);
  const int64_t drain_cap = load_end_ + SecToNs(opt_.drain_cap_s);
  t0_ = Clock::now();
  runtime_offset_us_ = db_.runtime().Now();

  const bool open = shape_.open_rate > 0;
  const double mean_gap_ns = open ? 1e9 / shape_.open_rate : 0;
  double next_arrival = open ? arrivals_.Exponential(mean_gap_ns) : 0;
  const int64_t adv_period = shape_.advancement_period * 1000;
  int64_t next_adv = adv_period > 0 ? adv_period : load_end_;
  int64_t next_hook = opt_.hook ? opt_.hook_period_ns : load_end_;

  for (int c = 0; c < shape_.closed_clients; ++c) {
    const bool query = client_rng_[static_cast<size_t>(c)].NextDouble() <
                       shape_.closed_query_share;
    SubmitAttempt(NewRequest(*client_gen_[static_cast<size_t>(c)], query,
                             NowNs(), c));
  }

  ava3::db::Engine& engine = db_.engine();
  std::vector<Completion> batch;
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      batch.swap(queue_);
    }
    for (const Completion& c : batch) OnCompletion(c);
    batch.clear();

    int64_t now = NowNs();
    if (now < load_end_) {
      uint64_t due_now = 0;
      while (open && next_arrival <= static_cast<double>(now) &&
             next_arrival < static_cast<double>(load_end_)) {
        const int64_t due = static_cast<int64_t>(next_arrival);
        const bool query = arrivals_.NextDouble() < shape_.open_query_share;
        const uint32_t slot = NewRequest(*open_gen_, query, due, -1);
        SubmitAttempt(slot);
        const Request& r = slots_[slot];
        if (r.measured) res_.gen_lag_ns.Add(r.submit - due);
        next_arrival += arrivals_.Exponential(mean_gap_ns);
        ++due_now;
      }
      res_.max_backlog = std::max(res_.max_backlog, due_now);
      if (next_adv <= now) {
        db_.runtime().ScheduleOn(
            0, 0, [&engine] { engine.TriggerAdvancement(/*coordinator=*/0); });
        next_adv += adv_period;
      }
    }
    while (!retries_.empty() && retries_.top().due <= now) {
      const uint32_t slot = retries_.top().slot;
      retries_.pop();
      SubmitAttempt(slot);
    }
    if (opt_.hook && next_hook <= now) {
      opt_.hook();
      next_hook += opt_.hook_period_ns;
      now = NowNs();
    }
    if (now >= load_end_ && outstanding_ == 0) break;
    if (now >= drain_cap) {
      res_.drained = false;
      break;
    }

    int64_t wake = now + 100'000'000;
    if (now < load_end_) {
      wake = std::min(wake, load_end_);
      if (open) wake = std::min(wake, static_cast<int64_t>(next_arrival));
      if (adv_period > 0) wake = std::min(wake, next_adv);
    }
    if (!retries_.empty()) wake = std::min(wake, retries_.top().due);
    if (opt_.hook) wake = std::min(wake, next_hook);
    std::unique_lock<std::mutex> lk(mu_);
    if (queue_.empty() && wake > now) {
      waiting_ = true;
      cv_.wait_until(lk, t0_ + std::chrono::nanoseconds(wake),
                     [this] { return !queue_.empty(); });
      waiting_ = false;
    }
  }
  res_.drain_s =
      static_cast<double>(std::max<int64_t>(0, last_done_ - load_end_)) / 1e9;
  if (res_.error.empty() && res_.drained) {
    for (size_t t = 0; t < attempt_state_.size(); ++t) {
      if (attempt_state_[t] == 1) {
        res_.error = "callback for attempt " + std::to_string(t) +
                     " never fired";
        break;
      }
    }
  }
  return std::move(res_);
}

}  // namespace perfbench
