// The `slocal-cert 1` container format.
//
// A certificate is a self-contained, independently checkable record of one
// theorem claim:
//
//  * kind `sequence` — "Π_0, …, Π_k is a lower bound sequence". Per step it
//    carries the canonical fingerprints of Π_{i-1}, RE(Π_{i-1}) and Π_i,
//    the full RE(Π_{i-1}) problem, and the relaxation witness the search
//    found (a per-label map or an explicit configuration mapping).
//  * kind `lift-unsat` — "lift_{Δ,r}(Π) admits no solution on support G".
//    It carries Π, (Δ, r), G's edge list, the CNF the claim was decided on
//    (hash-bound to the emitting encoder), and a DRAT refutation.
//
// On disk the container is line-oriented text:
//
//   slocal-cert 1
//   checksum <16 hex digits>
//   <payload…>
//
// where the checksum is FNV-1a over every raw payload byte. load rejects
// any header or checksum deviation before interpreting a single payload
// token, so a corrupted file is always "malformed" (exit 2), never a
// half-parsed certificate. Semantic judgments (is the witness valid? does
// the proof check?) are src/cert/check.hpp's job, not load's.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cert/drat.hpp"
#include "src/formalism/problem.hpp"
#include "src/formalism/relaxation.hpp"

namespace slocal::cert {

enum class CertKind { kSequence, kLiftUnsat };

/// One verified step of a lower bound sequence: Π_i relaxes RE(Π_{i-1}).
struct SequenceStepCert {
  std::uint64_t prev_fingerprint = 0;  // canonical fingerprint of Π_{i-1}
  std::uint64_t re_fingerprint = 0;    // … of RE(Π_{i-1}) as recorded below
  std::uint64_t next_fingerprint = 0;  // … of Π_i
  Problem re_problem;                  // RE(Π_{i-1}) as the engine computed it
  /// Exactly one of the two witnesses is engaged.
  std::optional<std::vector<Label>> label_map;     // per RE-label image in Π_i
  std::optional<ConfigMapping> config_mapping;     // per white configuration
};

struct SequenceCert {
  std::vector<Problem> problems;        // Π_0 … Π_k
  std::vector<SequenceStepCert> steps;  // k steps, step j checks Π_{j+1}
};

struct LiftUnsatCert {
  Problem problem;  // Π
  std::size_t big_delta = 0;
  std::size_t big_r = 0;
  std::size_t white_count = 0;
  std::size_t black_count = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  // (white, black)
  std::size_t num_vars = 0;
  std::uint64_t cnf_hash = 0;  // binds `proof.input_clauses` to the encoder
  DratProof proof;             // inputs = the lift CNF, steps = the refutation
  std::vector<std::int32_t> target;  // empty: full refutation
};

struct Certificate {
  CertKind kind = CertKind::kSequence;
  SequenceCert sequence;  // meaningful iff kind == kSequence
  LiftUnsatCert lift;     // meaningful iff kind == kLiftUnsat
};

/// The CNF hash stored in (and recomputed against) lift-unsat certificates:
/// FNV-1a over variable count, clause count, and every clause's length and
/// literals in order.
std::uint64_t lift_cnf_hash(std::size_t num_vars,
                            const std::vector<std::vector<std::int32_t>>& clauses);

/// Writes `cert` to `path` in the container format above, atomically
/// (write_file_atomic): a crash mid-save leaves the previous file or the new
/// one, never a torn certificate. False on I/O failure (message in *error).
bool save_certificate(const Certificate& cert, const std::string& path,
                      std::string* error);

/// Reads and structurally validates a certificate: header, checksum, token
/// grammar, and every range constraint (labels within alphabets, literals
/// nonzero, exactly one witness per step, edge endpoints within the support,
/// no trailing data). False = malformed/corrupt, with a structured message;
/// *cert is only written on success.
bool load_certificate(const std::string& path, Certificate* cert,
                      std::string* error);

}  // namespace slocal::cert
