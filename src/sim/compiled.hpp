// Compiled netlist kernel: the levelized combinational core lowered once
// into flat structure-of-arrays form, so full-pass evaluation is a single
// linear sweep over dense arrays and event-driven engines (the PPSFP
// fault simulator) never touch a Gate record or a per-gate heap-allocated
// fanin vector on the hot path.
//
// Layout:
//  * one opcode stream in topological (level) order, one entry per
//    combinational gate; the dominant two-input forms of the variadic
//    gates get dedicated opcodes so their evaluation needs no fanin loop;
//  * fanin indices in CSR form (offsets + one contiguous index pool);
//  * per-gate combinational-fanout CSR whose entries carry the target's
//    level, so event scheduling needs no level lookup and no target-kind
//    check;
//  * per-gate level and op-index tables for the overlay evaluators.
//
// Cache layout: the op stream is stored level-major (all of level 1,
// then level 2, ...) and, within each level, grouped by opcode — ops at
// one level are independent, so the reorder is free, the eval switch
// runs in long same-branch bursts, and the fanin CSR (re-emitted in the
// final op order) is walked strictly sequentially by the linear sweep.
// levelOpsBegin/End expose the tiling to engines that want to walk one
// level at a time.
//
// Lane widths: the evaluation kernels are templated over the lane word
// (sim/lane.hpp). evalOpT/passMaskT take any bitwise-word type —
// uint64_t for the classic 64-lane engines, LaneWord<W> for the widened
// 256/512-lane blocks — and evalW<W> is the stride-W full pass over a
// gate-major value array. The untyped uint64_t entry points forward to
// the templates, so the two can never drift.
//
// The tables are immutable snapshots: like Levelized and FanoutMap they
// are invalidated by any netlist edit and must be rebuilt.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "obs/obs.hpp"
#include "sim/lane.hpp"

namespace lbist::sim {

/// Scalar three-valued (01X) encoding used by the compiled ATPG engines:
/// 0 and 1 are themselves, kX3 (= 2) is unknown. Two bits per value; the
/// lookup tables below implement controlling-value X-suppression exactly
/// like the word-parallel evalWord3v (an AND with one 0 input is 0 even
/// if the other is X).
inline constexpr uint8_t kX3 = 2;

namespace detail3v {
// 3x3 combiner tables indexed [a * 3 + b] with a, b in {0, 1, kX3}.
inline constexpr uint8_t kAnd3[9] = {0, 0, 0, 0, 1, 2, 0, 2, 2};
inline constexpr uint8_t kOr3[9] = {0, 1, 2, 1, 1, 1, 2, 1, 2};
inline constexpr uint8_t kXor3[9] = {0, 1, 2, 1, 0, 2, 2, 2, 2};
inline constexpr uint8_t kNot3[3] = {1, 0, 2};
}  // namespace detail3v

/// 01X inversion: 0 <-> 1, X stays X.
[[nodiscard]] inline uint8_t not3(uint8_t v) { return detail3v::kNot3[v]; }

/// Opcodes of the compiled stream. kAnd2..kXnor2 are the fixed-arity
/// specializations of the variadic gate kinds.
enum class OpCode : uint8_t {
  kBuf,
  kNot,
  kMux2,
  kAnd2,
  kNand2,
  kOr2,
  kNor2,
  kXor2,
  kXnor2,
  kAndN,
  kNandN,
  kOrN,
  kNorN,
  kXorN,
  kXnorN,
};

/// The flat structure-of-arrays lowering described in the file comment.
class CompiledNetlist {
 public:
  /// opOf() value for gates with no op (sources, DFFs, X-sources).
  static constexpr uint32_t kNoOp = 0xffffffffu;

  /// One combinational fanout edge: target gate and its level, packed so
  /// one stream read schedules an event.
  struct FanoutEntry {
    uint32_t gate;
    uint32_t level;
  };

  /// Lowers the levelized netlist into the flat tables. `lev` must have
  /// been built from `nl`; the snapshot is invalidated by any later
  /// netlist edit.
  CompiledNetlist(const Netlist& nl, const Levelized& lev);

  /// Linear full-pass evaluation of every combinational gate in level
  /// order. `values` is the per-gate word array (size >= numGates()),
  /// with source words already set by the caller. Equivalent to
  /// evalW<1>(values).
  void eval(uint64_t* values) const;

  /// Stride-W full pass: `values` is gate-major with W words per gate
  /// (gate g's lanes at [g*W, g*W + W)), size >= numGates()*W. One call
  /// evaluates 64*W patterns; the per-op combine is a plain W-element
  /// loop the compiler vectorizes.
  template <size_t W>
  void evalW(uint64_t* values) const {
    const size_t n = op_code_.size();
    for (size_t i = 0; i < n; ++i) {
      const LaneWord<W> r = evalOpT<LaneWord<W>>(
          static_cast<uint32_t>(i), [&](size_t, uint32_t g) {
            return LaneWord<W>::load(values + size_t{g} * W);
          });
      r.store(values + size_t{op_gate_[i]} * W);
    }
  }

  /// Stride-W evaluation of the listed ops only, in the order given.
  /// `ops` must be in stream order and every fanin an op reads must be a
  /// source or an earlier listed op (a pulse program, sim/pulse_program);
  /// gates of unlisted ops keep their words.
  template <size_t W>
  void evalOpsW(uint64_t* values, std::span<const uint32_t> ops) const {
    for (uint32_t i : ops) {
      const LaneWord<W> r =
          evalOpT<LaneWord<W>>(i, [&](size_t, uint32_t g) {
            return LaneWord<W>::load(values + size_t{g} * W);
          });
      r.store(values + size_t{op_gate_[i]} * W);
    }
  }

  /// Number of combinational ops in the stream.
  [[nodiscard]] size_t numOps() const { return op_code_.size(); }
  /// Number of gates in the snapshotted netlist (all kinds).
  [[nodiscard]] size_t numGates() const { return op_of_.size(); }

  /// Op index of a gate; kNoOp for non-combinational gates.
  [[nodiscard]] uint32_t opOf(GateId id) const { return op_of_[id.v]; }
  /// Opcode of op `op`.
  [[nodiscard]] OpCode opcode(uint32_t op) const { return op_code_[op]; }
  /// Gate the op drives.
  [[nodiscard]] uint32_t opGate(uint32_t op) const { return op_gate_[op]; }
  /// Fanin gate indices of op `op` (CSR slice, fanin-slot order).
  [[nodiscard]] std::span<const uint32_t> opFanins(uint32_t op) const {
    return {fanin_.data() + fanin_off_[op],
            fanin_.data() + fanin_off_[op + 1]};
  }

  /// Level of a gate (0 for sources), identical to Levelized::level.
  [[nodiscard]] uint32_t level(GateId id) const { return level_[id.v]; }
  /// Deepest combinational level (sizes event wheels).
  [[nodiscard]] uint32_t maxLevel() const { return max_level_; }

  /// First op index of level `l` — the op stream is level-major, so the
  /// half-open range [levelOpsBegin(l), levelOpsEnd(l)) is exactly the
  /// ops at that level, grouped by opcode.
  [[nodiscard]] uint32_t levelOpsBegin(uint32_t l) const {
    return level_op_off_[l];
  }
  /// One past the last op index of level `l`.
  [[nodiscard]] uint32_t levelOpsEnd(uint32_t l) const {
    return level_op_off_[l + 1];
  }

  /// Combinational fanout edges of a gate, with target levels.
  [[nodiscard]] std::span<const FanoutEntry> combFanout(uint32_t gate) const {
    return {fanout_.data() + fanout_off_[gate],
            fanout_.data() + fanout_off_[gate + 1]};
  }

  /// Per-lane sensitization of op `op` with respect to fanin `slot`,
  /// generic over the lane word: the lanes in which flipping that fanin
  /// flips the output, with fanin words supplied by `val(gate) -> WordT`.
  /// Single-bit diff propagation is linear, so diff_out = diff_in &
  /// passMask — the identity the critical-path assembly in the fault
  /// simulator is built on.
  template <typename WordT, typename ValFn>
  [[nodiscard]] WordT passMaskT(uint32_t op, size_t slot,
                                ValFn&& val) const {
    const uint32_t* f = fanin_.data() + fanin_off_[op];
    switch (op_code_[op]) {
      case OpCode::kBuf:
      case OpCode::kNot:
      case OpCode::kXor2:
      case OpCode::kXnor2:
      case OpCode::kXorN:
      case OpCode::kXnorN:
        return ~WordT{};
      case OpCode::kMux2: {
        if (slot == 2) return val(f[0]) ^ val(f[1]);
        const WordT s = val(f[2]);
        return slot == 0 ? ~s : s;
      }
      case OpCode::kAnd2:
      case OpCode::kNand2:
        return val(f[1 - slot]);
      case OpCode::kOr2:
      case OpCode::kNor2:
        return ~val(f[1 - slot]);
      case OpCode::kAndN:
      case OpCode::kNandN: {
        WordT acc = ~WordT{};
        const uint32_t n = fanin_off_[op + 1] - fanin_off_[op];
        for (uint32_t i = 0; i < n; ++i) {
          if (i != slot) acc &= val(f[i]);
        }
        return acc;
      }
      case OpCode::kOrN:
      case OpCode::kNorN: {
        WordT acc = ~WordT{};
        const uint32_t n = fanin_off_[op + 1] - fanin_off_[op];
        for (uint32_t i = 0; i < n; ++i) {
          if (i != slot) acc &= ~val(f[i]);
        }
        return acc;
      }
    }
    assert(false && "unknown opcode");
    return WordT{};
  }

  /// 64-lane passMask over a stride-1 value array (the classic shape).
  [[nodiscard]] uint64_t passMask(uint32_t op, size_t slot,
                                  const uint64_t* values) const {
    return passMaskT<uint64_t>(op, slot,
                               [&](uint32_t g) { return values[g]; });
  }

  /// Stride-W passMask over a gate-major value array (W words per gate).
  template <size_t W>
  [[nodiscard]] LaneWord<W> passMaskW(uint32_t op, size_t slot,
                                      const uint64_t* values) const {
    return passMaskT<LaneWord<W>>(op, slot, [&](uint32_t g) {
      return LaneWord<W>::load(values + size_t{g} * W);
    });
  }

  /// Evaluates op `op` with fanin words supplied by `val(slot, gate) ->
  /// WordT`, generic over the lane word (uint64_t or LaneWord<W>; any
  /// type with &, |, ^, ~ and zero-init works). This is the one
  /// gate-function switch every evaluation flavor shares: the good
  /// machine reads the value array directly, the fault engines
  /// substitute overlay or pin-forced reads.
  template <typename WordT, typename ValFn>
  [[nodiscard]] WordT evalOpT(uint32_t op, ValFn&& val) const {
    const uint32_t* f = fanin_.data() + fanin_off_[op];
    switch (op_code_[op]) {
      case OpCode::kBuf:
        return val(0, f[0]);
      case OpCode::kNot:
        return ~val(0, f[0]);
      case OpCode::kMux2: {
        const WordT s = val(2, f[2]);
        return (val(0, f[0]) & ~s) | (val(1, f[1]) & s);
      }
      case OpCode::kAnd2:
        return val(0, f[0]) & val(1, f[1]);
      case OpCode::kNand2:
        return ~(val(0, f[0]) & val(1, f[1]));
      case OpCode::kOr2:
        return val(0, f[0]) | val(1, f[1]);
      case OpCode::kNor2:
        return ~(val(0, f[0]) | val(1, f[1]));
      case OpCode::kXor2:
        return val(0, f[0]) ^ val(1, f[1]);
      case OpCode::kXnor2:
        return ~(val(0, f[0]) ^ val(1, f[1]));
      case OpCode::kAndN:
      case OpCode::kNandN: {
        WordT acc = ~WordT{};
        const uint32_t n = fanin_off_[op + 1] - fanin_off_[op];
        for (uint32_t i = 0; i < n; ++i) acc &= val(i, f[i]);
        return op_code_[op] == OpCode::kNandN ? ~acc : acc;
      }
      case OpCode::kOrN:
      case OpCode::kNorN: {
        WordT acc{};
        const uint32_t n = fanin_off_[op + 1] - fanin_off_[op];
        for (uint32_t i = 0; i < n; ++i) acc |= val(i, f[i]);
        return op_code_[op] == OpCode::kNorN ? ~acc : acc;
      }
      case OpCode::kXorN:
      case OpCode::kXnorN: {
        WordT acc{};
        const uint32_t n = fanin_off_[op + 1] - fanin_off_[op];
        for (uint32_t i = 0; i < n; ++i) acc ^= val(i, f[i]);
        return op_code_[op] == OpCode::kXnorN ? ~acc : acc;
      }
    }
    assert(false && "unknown opcode");
    return WordT{};
  }

  /// 64-lane evalOpT (the classic engine entry point).
  template <typename ValFn>
  [[nodiscard]] uint64_t evalOp(uint32_t op, ValFn&& val) const {
    return evalOpT<uint64_t>(op, std::forward<ValFn>(val));
  }

  /// Scalar three-valued evaluation of op `op` with fanin values supplied
  /// by `val(slot, gate) -> uint8_t` in the {0, 1, kX3} encoding. This is
  /// the 01X counterpart of evalOp: the compiled PODEM engine's good
  /// machine reads its value array directly and its faulty machine
  /// substitutes the forced fault-site pin. Semantics match evalWord3v
  /// lane-for-lane (controlling-value X-suppression included).
  template <typename ValFn>
  [[nodiscard]] uint8_t evalOp3(uint32_t op, ValFn&& val) const {
    using namespace detail3v;
    const uint32_t* f = fanin_.data() + fanin_off_[op];
    switch (op_code_[op]) {
      case OpCode::kBuf:
        return val(0, f[0]);
      case OpCode::kNot:
        return kNot3[val(0, f[0])];
      case OpCode::kMux2: {
        const uint8_t s = val(2, f[2]);
        const uint8_t d0 = val(0, f[0]);
        const uint8_t d1 = val(1, f[1]);
        if (s == 0) return d0;
        if (s == 1) return d1;
        return d0 == d1 ? d0 : kX3;  // X select: known only if d0 == d1
      }
      case OpCode::kAnd2:
        return kAnd3[val(0, f[0]) * 3 + val(1, f[1])];
      case OpCode::kNand2:
        return kNot3[kAnd3[val(0, f[0]) * 3 + val(1, f[1])]];
      case OpCode::kOr2:
        return kOr3[val(0, f[0]) * 3 + val(1, f[1])];
      case OpCode::kNor2:
        return kNot3[kOr3[val(0, f[0]) * 3 + val(1, f[1])]];
      case OpCode::kXor2:
        return kXor3[val(0, f[0]) * 3 + val(1, f[1])];
      case OpCode::kXnor2:
        return kNot3[kXor3[val(0, f[0]) * 3 + val(1, f[1])]];
      case OpCode::kAndN:
      case OpCode::kNandN: {
        uint8_t acc = 1;
        const uint32_t n = fanin_off_[op + 1] - fanin_off_[op];
        for (uint32_t i = 0; i < n; ++i) acc = kAnd3[acc * 3 + val(i, f[i])];
        return op_code_[op] == OpCode::kNandN ? kNot3[acc] : acc;
      }
      case OpCode::kOrN:
      case OpCode::kNorN: {
        uint8_t acc = 0;
        const uint32_t n = fanin_off_[op + 1] - fanin_off_[op];
        for (uint32_t i = 0; i < n; ++i) acc = kOr3[acc * 3 + val(i, f[i])];
        return op_code_[op] == OpCode::kNorN ? kNot3[acc] : acc;
      }
      case OpCode::kXorN:
      case OpCode::kXnorN: {
        uint8_t acc = 0;
        const uint32_t n = fanin_off_[op + 1] - fanin_off_[op];
        for (uint32_t i = 0; i < n; ++i) acc = kXor3[acc * 3 + val(i, f[i])];
        return op_code_[op] == OpCode::kXnorN ? kNot3[acc] : acc;
      }
    }
    assert(false && "unknown opcode");
    return kX3;
  }

  /// Linear full-pass three-valued evaluation in level order, the 01X
  /// counterpart of eval(). `values` holds one {0, 1, kX3} byte per gate
  /// (size >= numGates()); source bytes must be set by the caller.
  void eval3(uint8_t* values) const;

  /// Bytes held by the flat SoA tables (element counts, not capacity,
  /// so the figure is deterministic across allocators). Feeds the
  /// sim.compiled_bytes gauge.
  [[nodiscard]] size_t tableBytes() const {
    return op_code_.size() * sizeof(OpCode) +
           op_gate_.size() * sizeof(uint32_t) +
           fanin_off_.size() * sizeof(uint32_t) +
           fanin_.size() * sizeof(uint32_t) +
           level_op_off_.size() * sizeof(uint32_t) +
           op_of_.size() * sizeof(uint32_t) +
           level_.size() * sizeof(uint32_t) +
           fanout_off_.size() * sizeof(uint32_t) +
           fanout_.size() * sizeof(FanoutEntry);
  }

 private:
  // Op stream (one entry per combinational gate, topological order).
  std::vector<OpCode> op_code_;
  std::vector<uint32_t> op_gate_;
  std::vector<uint32_t> fanin_off_;  // size numOps + 1
  std::vector<uint32_t> fanin_;
  std::vector<uint32_t> level_op_off_;  // size maxLevel + 2

  // Per-gate tables.
  std::vector<uint32_t> op_of_;
  std::vector<uint32_t> level_;
  std::vector<uint32_t> fanout_off_;  // size numGates + 1
  std::vector<FanoutEntry> fanout_;

  uint32_t max_level_ = 0;
  // Lifetime accounting of the tables above under sim.compiled_bytes;
  // copies re-charge and moves transfer, so the gauge balance tracks
  // live instances.
  obs::GaugeCharge table_charge_;
};

}  // namespace lbist::sim
