// Transistor-level netlist generation for the complete segmented DAC: every
// unary and binary source is instantiated from the sized unit cell (device
// multipliers carry the weights), switch gates are tied to ON/OFF rails per
// input code, and per-source random mismatch can be injected into the CS
// devices. This is the reproduction's substitute for the paper's
// "simulation at transistor level including matching effects" (Section 3):
// a static transfer function, INL/DNL and output impedance measured on the
// actual MNA netlist rather than the behavioral model.
//
// Practical note: one DC solve of the full 12-bit converter (259 cells)
// takes milliseconds on the sparse MNA engine (min-degree LU with symbolic
// reuse; kAuto picks it at >= 64 unknowns), but a full-transfer sweep is
// 2^n solves, so sweeps are intended for reduced-resolution versions of
// the SAME architecture (6-8 bit), which is how the cross-validation tests
// and dacgen::spice_mismatch_mc use it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/sizer.hpp"
#include "spice/circuit.hpp"
#include "spice/devices.hpp"
#include "tech/tech.hpp"

namespace csdac::dacgen {

struct DacGenOptions {
  bool differential = true;   ///< load both output rails (else out_n shorted)
  bool with_caps = false;     ///< intrinsic device capacitances
  double sigma_unit = 0.0;    ///< eq. (1)-style unit mismatch; 0 = ideal
  std::uint64_t seed = 1;     ///< mismatch draw seed ("chip id")
  /// Additional per-unary-source relative current errors (e.g. the
  /// systematic gradient errors of a placed array, in switching order from
  /// layout::sequence_errors). Empty = none; otherwise must have
  /// spec.num_unary() entries.
  std::vector<double> unary_systematic;
};

/// A transistor-level chip: rebuilds the netlist per code (the switch gate
/// rails are baked into the topology) and solves the DC operating point.
/// Mismatch draws are made once at construction so all codes see the same
/// chip.
class TransistorLevelDac {
 public:
  TransistorLevelDac(const core::DacSpec& spec, const core::SizedCell& cell,
                     const tech::MosTechParams& tech,
                     const DacGenOptions& opts = {});

  const core::DacSpec& spec() const { return spec_; }

  /// Builds the netlist for a given input code. Exposed for callers that
  /// want to run their own analyses (AC, transient) on the chip.
  struct BuiltCircuit {
    std::unique_ptr<spice::Circuit> circuit;
    int out_p = 0;
    int out_n = 0;
  };
  BuiltCircuit build(int code) const;

  /// Static output level for a code, in LSB units of current (measured as
  /// the voltage drop across the out_p load).
  double level(int code) const;

  /// The full static transfer function (2^n levels). O(2^n) DC solves.
  std::vector<double> transfer() const;

  /// Differential output voltage v(out_p) - v(out_n) for a code [V].
  double v_diff(int code) const;

  /// The per-source relative current errors drawn at construction (unary
  /// then binary), for cross-validation against the behavioral model.
  const std::vector<double>& unary_errors() const { return unary_err_; }
  const std::vector<double>& binary_errors() const { return binary_err_; }

 private:
  core::DacSpec spec_;
  core::SizedCell cell_;
  tech::MosTechParams tech_;
  DacGenOptions opts_;
  std::vector<double> unary_err_;   ///< relative current error per source
  std::vector<double> binary_err_;
};

}  // namespace csdac::dacgen
