#include "layers.h"

namespace perfbench {

using ava3::TraceKind;
using ava3::TraceOp;

void SpanAnalyzer::OnEvent(const ava3::TraceEvent& ev) {
  ++events;
  switch (ev.kind) {
    case TraceKind::kMsgSend:
      flows_[ev.span] = {ev.time, static_cast<uint8_t>(ev.a)};
      return;
    case TraceKind::kMsgRecv: {
      auto it = flows_.find(ev.span);
      if (it == flows_.end()) return;
      hop_us[it->second.second].Add(ev.time - it->second.first);
      flows_.erase(it);
      return;
    }
    case TraceKind::kMsgDrop:
      flows_.erase(ev.span);
      return;
    case TraceKind::kGcStep:
      ++gc_steps;
      gc_items += static_cast<uint64_t>(ev.a + ev.b);
      return;
    default:
      break;
  }
  if (ev.op == TraceOp::kBegin) {
    open_[ev.span] = Open{ev.time, ev.kind, ev.phase};
    if (ev.kind == TraceKind::kUpdateTxn) {
      // The root subtransaction starts first; children are spawned by it.
      const bool root = root_node_.emplace(ev.txn, ev.node).second;
      Subtxn& s = subtxn_[Key(ev.txn, ev.node)];
      s = Subtxn{};
      s.root = root;
      s.span.begin = ev.time;
    }
    return;
  }
  if (ev.op == TraceOp::kEnd) {
    auto it = open_.find(ev.span);
    if (it == open_.end()) return;
    const Open open = it->second;
    open_.erase(it);
    OnEnd(ev, open);
  }
}

void SpanAnalyzer::OnEnd(const ava3::TraceEvent& ev, const Open& open) {
  const int64_t dur = ev.time - open.begin;
  auto child = [&](int64_t RootSpan::* field) {
    auto it = subtxn_.find(Key(ev.txn, ev.node));
    if (it != subtxn_.end()) it->second.span.*field += dur;
  };
  switch (open.kind) {
    case TraceKind::kLockWait:
      lock_wait_us.Add(dur);
      child(&RootSpan::lock);
      break;
    case TraceKind::kTwoPcRound:
      twopc_us.Add(dur);
      child(&RootSpan::twopc);
      break;
    case TraceKind::kCommitApply:
      apply_us.Add(dur);
      child(&RootSpan::apply);
      break;
    case TraceKind::kAdvancePhase:
      (open.phase == 1 ? phase1_us : phase2_us).Add(dur);
      break;
    case TraceKind::kQueryTxn:
      query_subtxn_us.Add(dur);
      break;
    case TraceKind::kUpdateTxn: {
      update_subtxn_us.Add(dur);
      auto it = subtxn_.find(Key(ev.txn, ev.node));
      if (it == subtxn_.end()) break;
      Subtxn s = it->second;
      subtxn_.erase(it);
      s.span.end = ev.time;
      update_self_us.Add(dur - s.span.lock - s.span.twopc - s.span.apply);
      if (s.root) {
        roots[ev.txn] = s.span;
        root_node_.erase(ev.txn);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace perfbench
