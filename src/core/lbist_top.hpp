// LbistTop — the executable form of the paper's Fig. 1.
//
// Assembles every block around the BIST-ready core: controller,
// clock-gating schedule, per-domain TPG/ODC (inside BistSession), and the
// Boundary-Scan interface. A host talks to it exactly like silicon:
// TAP reset, load seeds through the SEED register, write the CTRL
// register (pattern count + start), poll STATUS for Finish/Result, and
// unload per-domain signatures through the SIGNATURE register for
// diagnosis.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/architect.hpp"
#include "core/session.hpp"
#include "jtag/tap.hpp"

namespace lbist::core {

/// One core's JTAG-accessible BIST block: a TAP with CTRL, STATUS, SEED
/// and SIGNATURE data registers in front of a BistSession.
class LbistTop {
 public:
  static constexpr uint32_t kIrLength = 4;
  static constexpr uint32_t kOpcodeCtrl = 0b0010;
  static constexpr uint32_t kOpcodeStatus = 0b0011;
  static constexpr uint32_t kOpcodeSeed = 0b0100;
  static constexpr uint32_t kOpcodeSignature = 0b0101;
  static constexpr uint32_t kIdcode = 0x1B15'7001;

  /// CTRL register layout (LSB first): bit 0 start, bits 1..32 pattern
  /// count. Writing it with start=1 runs the whole self-test (the
  /// behavioural model completes synchronously; STATUS then reads
  /// finish=1).
  static constexpr size_t kCtrlBits = 33;

  /// Binds the BIST-ready core and the die its sessions run against.
  LbistTop(const BistReadyCore& core, const Netlist& die);

  /// The TAP a host drives (through jtag::TapDriver).
  [[nodiscard]] jtag::TapController& tap() { return tap_; }

  /// Golden signatures for the on-chip compare (from a fault-free run).
  void setGoldenSignatures(std::vector<std::string> sigs) {
    golden_ = std::move(sigs);
  }

  /// Result of the last self-test started through CTRL, if any.
  [[nodiscard]] const std::optional<SessionResult>& lastRun() const {
    return last_;
  }

 private:
  std::vector<uint8_t> captureStatus() const;
  std::vector<uint8_t> captureSignature() const;
  void updateCtrl(const std::vector<uint8_t>& bits);
  void updateSeed(const std::vector<uint8_t>& bits);

  const BistReadyCore* core_;
  const Netlist* die_;
  jtag::TapController tap_;
  std::unique_ptr<jtag::CallbackRegister> ctrl_reg_;
  std::unique_ptr<jtag::CallbackRegister> status_reg_;
  std::unique_ptr<jtag::CallbackRegister> seed_reg_;
  std::unique_ptr<jtag::CallbackRegister> sig_reg_;

  std::vector<uint64_t> seeds_;  // per domain
  std::vector<std::string> golden_;
  std::optional<SessionResult> last_;
};

/// Human-readable block inventory of the instantiated architecture
/// (Fig. 1 as text), with per-block gate-equivalent cost.
[[nodiscard]] std::string describeArchitecture(const BistReadyCore& core);

}  // namespace lbist::core
