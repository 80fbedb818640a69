// revft/verify/certify.h
//
// Fault-security certificates by delta-cone analysis. The exhaustive
// census (detect::single_fault_detection_census) PROVES fault security
// by running every (op, corrupted value, input) scenario through the
// packed fault walker. The certifier takes the census' inputs (at most
// 64, one lane each) and reaches the same counts with ONE walk per
// (op, value) pair: it pushes the fault's *delta cone* — the XOR
// difference between the faulted and the clean run, one bit per input
// packed in a word — through the circuit's GF(2) gate algebra (the
// per-kind ANF of rev/gate.h), and evaluates every downstream
// observable (zero checks, rail invariants at their migrated
// memberships) and the majority-decoded output
// codewords on every input at once. The sparse walk touches only ops
// that read a damaged cell, and exact cancellation retires deltas the
// construction absorbs (a recovery MAJ fed a uniform codeword with one
// damaged cell emits a clean majority — the damage cancels on every
// lane, and the walk proves it without enumerating suffix states). The
// clean trajectory every scenario is measured against comes from one
// noiseless packed pass with the inputs as lanes.
//
// Every (op, value, input) outcome is decided exactly, so the contract
// (ctest-enforced on the MAJ cycle, the checked 1D/2D machine programs
// and every option combination of the checked machine tests) is
//
//   census == certificate.counts
//
// field by field on every scenario-count field. A certificate is not a
// second opinion — it is the same census, computed without simulating
// the scenarios.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "detect/checker.h"
#include "local/checked_machine.h"

namespace revft::verify {

/// A statically discovered silent-harmful scenario: concrete proof the
/// configuration is NOT fault-secure (`input` indexes the certifier's
/// input list).
struct InsecureExample {
  FaultSpec fault;
  std::size_t input = 0;
};

/// Result of certify_single_faults, counted as the dynamic census
/// counts (noise/injection): fault_sites is one per op, and every
/// (op, value, input) scenario lands in exactly one outcome field.
/// rail_detected stays empty: the certifier does not attribute
/// detections to rails.
struct FaultSecurityCertificate {
  detect::DetectionCensus counts;

  /// Statically proven silent-harmful scenarios, in (op, value, input)
  /// order (first kMaxInsecureExamples kept; counts.silent_harmful
  /// counts them all).
  static constexpr std::size_t kMaxInsecureExamples = 64;
  std::vector<InsecureExample> insecure_examples;

  /// No scenario is silent harmful.
  bool statically_secure() const noexcept {
    return counts.silent_harmful == 0;
  }
};

/// Certify every single-fault scenario of a checked circuit over
/// `data_inputs` (1..64 states at checked.data_width, the census'
/// inputs; throws revft::Error otherwise). `codewords` names the
/// majority-decoded output triples whose decoded values define
/// "wrong" (the faulted majority vs the clean majority, exactly the
/// is_error the machine censuses use — callers must ensure the clean
/// run IS correct, which certify_machine_program asserts dynamically).
/// Throws revft::Error on a circuit detect::index_walk has not indexed
/// (detect::check_walk_index).
FaultSecurityCertificate certify_single_faults(
    const detect::CheckedCircuit& checked,
    const std::vector<StateVector>& data_inputs,
    const std::vector<std::array<std::uint32_t, 3>>& codewords);

/// Certify a compiled checked machine program over every logical
/// input x (input x is machine_data_input(program, x)), codewords =
/// the program's output cell triples. Asserts the clean program
/// computes `logical` before certifying (the certifier judges
/// wrongness against the clean majority). Requires logical_bits <= 6
/// (2^6 = 64 inputs).
FaultSecurityCertificate certify_machine_program(
    const CheckedMachineProgram& program, const Circuit& logical);

}  // namespace revft::verify
