#include "sbmp/sched/validate.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>

namespace sbmp {

namespace {

std::vector<int> find_accesses(const TacFunction& tac, int stmt,
                               const ArrayRef& ref, bool is_write) {
  std::vector<int> out;
  for (const auto& instr : tac.instrs) {
    if (instr.stmt_id != stmt || !instr.is_mem()) continue;
    const bool write = instr.op == Opcode::kStore;
    if (write != is_write) continue;
    if (instr.array == ref.array && instr.mem_index == ref.index)
      out.push_back(instr.id);
  }
  return out;
}

/// The wait instruction realizing `op`, or 0 when absent.
int wait_instr_of(const TacFunction& tac, const WaitOp& op) {
  for (const auto& instr : tac.instrs) {
    if (instr.op == Opcode::kWait && instr.signal_stmt == op.signal_stmt &&
        instr.sync_distance == op.distance && instr.stmt_id == op.sink_stmt)
      return instr.id;
  }
  return 0;
}

int send_instr_of(const TacFunction& tac, const SendOp& op) {
  for (const auto& instr : tac.instrs) {
    if (instr.op == Opcode::kSend && instr.signal_stmt == op.signal_stmt)
      return instr.id;
  }
  return 0;
}

}  // namespace

std::vector<std::string> verify_sync_pairing(const TacFunction& tac,
                                             const SyncedLoop& synced,
                                             bool waits_eliminated) {
  std::vector<std::string> violations;
  const auto complain = [&](std::string msg) {
    violations.push_back(std::move(msg));
  };

  // One pass over the TAC counts the sends on each stream and the wait
  // instructions realizing each sync-layer wait, keyed (stream,
  // distance, sink); the checks below read the counts instead of
  // rescanning the TAC.
  std::map<int, int> sends_on_stream;
  std::map<std::tuple<int, std::int64_t, int>, int> waits_realized;
  for (const auto& wait : synced.waits)
    waits_realized[{wait.signal_stmt, wait.distance, wait.sink_stmt}] = 0;
  for (const auto& instr : tac.instrs) {
    if (instr.op == Opcode::kSend) {
      ++sends_on_stream[instr.signal_stmt];
    } else if (instr.op == Opcode::kWait) {
      const auto it = waits_realized.find(
          {instr.signal_stmt, instr.sync_distance, instr.stmt_id});
      if (it != waits_realized.end()) ++it->second;
    }
  }

  // Every sync-layer operation must be realized exactly once.
  for (const auto& send : synced.sends) {
    const int count = sends_on_stream[send.signal_stmt];
    if (count != 1)
      complain("Send_Signal(S" + std::to_string(send.signal_stmt) +
               ") realized " + std::to_string(count) +
               " times, expected exactly 1");
  }
  for (const auto& wait : synced.waits) {
    const int count =
        waits_realized[{wait.signal_stmt, wait.distance, wait.sink_stmt}];
    if (count == 0 && !waits_eliminated)
      complain("Wait_Signal(S" + std::to_string(wait.signal_stmt) + ", " +
               synced.loop.iter_var + "-" + std::to_string(wait.distance) +
               ") before S" + std::to_string(wait.sink_stmt) +
               " has no wait instruction");
    if (count > 1)
      complain("Wait_Signal(S" + std::to_string(wait.signal_stmt) + ", " +
               synced.loop.iter_var + "-" + std::to_string(wait.distance) +
               ") before S" + std::to_string(wait.sink_stmt) +
               " realized " + std::to_string(count) + " times");
  }

  // Every sync instruction must trace back to the sync layer, and every
  // wait must have exactly one partner send on its stream with a legal
  // distance.
  for (const auto& instr : tac.instrs) {
    if (instr.op == Opcode::kWait) {
      if (!waits_realized.contains(
              {instr.signal_stmt, instr.sync_distance, instr.stmt_id}))
        complain("wait instr " + std::to_string(instr.id) +
                 " matches no sync-layer Wait_Signal");
      if (instr.sync_distance < 1)
        complain("wait instr " + std::to_string(instr.id) +
                 " has non-positive distance " +
                 std::to_string(instr.sync_distance));
      const int partners = sends_on_stream[instr.signal_stmt];
      if (partners != 1)
        complain("wait instr " + std::to_string(instr.id) + " on stream S" +
                 std::to_string(instr.signal_stmt) + " has " +
                 std::to_string(partners) +
                 " partner sends, expected exactly 1 (an unpaired wait "
                 "never blocks)");
    } else if (instr.op == Opcode::kSend) {
      const bool known =
          std::any_of(synced.sends.begin(), synced.sends.end(),
                      [&](const SendOp& s) {
                        return s.signal_stmt == instr.signal_stmt;
                      });
      if (!known)
        complain("send instr " + std::to_string(instr.id) +
                 " matches no sync-layer Send_Signal");
    }
  }
  return violations;
}

std::vector<std::string> verify_sync_conditions(const TacFunction& tac,
                                                const SyncedLoop& synced,
                                                const Schedule& schedule) {
  std::vector<std::string> violations;
  const auto complain = [&](std::string msg) {
    violations.push_back(std::move(msg));
  };

  // Condition 1: the signal is sent only after its source access issued.
  for (const auto& send : synced.sends) {
    const int send_id = send_instr_of(tac, send);
    if (send_id == 0) continue;  // pairing's concern
    const std::vector<int> srcs =
        find_accesses(tac, send.signal_stmt, send.src_ref, send.src_is_write);
    if (srcs.empty()) {
      complain("send instr " + std::to_string(send_id) +
               ": source access " + send.src_ref.array + "[" +
               send.src_ref.index.to_string(synced.loop.iter_var) +
               "] of S" + std::to_string(send.signal_stmt) +
               " not found in the code");
      continue;
    }
    for (const int src : srcs) {
      if (schedule.slot(send_id) < schedule.slot(src) + 1)
        complain("sync condition 1 violated: send instr " +
                 std::to_string(send_id) + " (slot " +
                 std::to_string(schedule.slot(send_id)) +
                 ") does not follow its source access instr " +
                 std::to_string(src) + " (slot " +
                 std::to_string(schedule.slot(src)) + ")");
    }
  }

  // Condition 2: the sink access issues only after its wait issued.
  for (const auto& wait : synced.waits) {
    const int wait_id = wait_instr_of(tac, wait);
    if (wait_id == 0) continue;  // eliminated or missing (pairing's concern)
    const std::vector<int> snks =
        find_accesses(tac, wait.sink_stmt, wait.sink_ref, wait.sink_is_write);
    if (snks.empty()) {
      complain("wait instr " + std::to_string(wait_id) + ": sink access " +
               wait.sink_ref.array + "[" +
               wait.sink_ref.index.to_string(synced.loop.iter_var) +
               "] of S" + std::to_string(wait.sink_stmt) +
               " not found in the code");
      continue;
    }
    for (const int snk : snks) {
      if (schedule.slot(snk) < schedule.slot(wait_id) + 1)
        complain("sync condition 2 violated: sink access instr " +
                 std::to_string(snk) + " (slot " +
                 std::to_string(schedule.slot(snk)) +
                 ") does not follow its wait instr " +
                 std::to_string(wait_id) + " (slot " +
                 std::to_string(schedule.slot(wait_id)) + ")");
    }
  }
  return violations;
}

}  // namespace sbmp
