// Streaming analysis of the spans and instants the program's TraceSink
// already emits, for the traced run's per-layer numbers.

#ifndef AVA3_PERFBENCH_LAYERS_H_
#define AVA3_PERFBENCH_LAYERS_H_

#include <array>
#include <cstdint>
#include <unordered_map>

#include "common/trace.h"
#include "runtime/message.h"
#include "stats.h"

namespace perfbench {

/// Folds trace events into per-layer samples as they are drained, keeping
/// only the spans and message flows still open, so a long traced run needs
/// no event log. All times are the runtime's clock in µs.
class SpanAnalyzer {
 public:
  /// The root update subtransaction of one transaction: its span and the
  /// child spans inside it on the root node.
  struct RootSpan {
    int64_t begin = 0;
    int64_t end = 0;
    int64_t lock = 0;   // kLockWait spans
    int64_t twopc = 0;  // kTwoPcRound
    int64_t apply = 0;  // kCommitApply
  };

  void OnEvent(const ava3::TraceEvent& ev);

  Samples update_subtxn_us;  // kUpdateTxn, every node
  Samples update_self_us;    // kUpdateTxn minus its child spans
  Samples query_subtxn_us;   // kQueryTxn, every node
  Samples lock_wait_us;      // kLockWait
  Samples twopc_us;          // kTwoPcRound
  Samples apply_us;          // kCommitApply
  Samples phase1_us;         // kAdvancePhase, phase 1
  Samples phase2_us;         // kAdvancePhase, phase 2
  /// kMsgSend -> kMsgRecv of one flow, per MsgKind.
  std::array<Samples, ava3::rt::kNumMsgKinds> hop_us;
  uint64_t gc_steps = 0;
  uint64_t gc_items = 0;  // kGcStep a (dropped) + b (relabeled)
  uint64_t events = 0;
  /// Completed root update spans by TxnId.
  std::unordered_map<ava3::TxnId, RootSpan> roots;

 private:
  struct Open {
    int64_t begin;
    ava3::TraceKind kind;
    uint8_t phase;
  };
  /// Child-span totals of one open subtransaction, keyed (txn, node).
  struct Subtxn {
    RootSpan span;
    bool root = false;
  };
  static uint64_t Key(ava3::TxnId txn, ava3::NodeId node) {
    return txn * 64 + static_cast<uint64_t>(node);
  }
  void OnEnd(const ava3::TraceEvent& ev, const Open& open);

  std::unordered_map<uint64_t, Open> open_;      // by span id
  std::unordered_map<uint64_t, Subtxn> subtxn_;  // by Key(txn, node)
  std::unordered_map<ava3::TxnId, ava3::NodeId> root_node_;
  std::unordered_map<uint64_t, std::pair<int64_t, uint8_t>> flows_;
};

}  // namespace perfbench

#endif  // AVA3_PERFBENCH_LAYERS_H_
