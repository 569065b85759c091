#include "src/cert/format.hpp"

#include <sstream>

#include "src/formalism/serialize.hpp"
#include "src/util/atomic_file.hpp"

namespace slocal::cert {

namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

constexpr std::string_view kMagic = "slocal-cert 1";

/// Guard against absurd allocation requests from a crafted (checksum-valid)
/// file; every real certificate in this repository is far below these.
constexpr std::size_t kMaxProblems = 4096;
constexpr std::size_t kMaxVars = 1u << 24;

void write_clause(std::ostream& out, char tag, const std::vector<std::int32_t>& lits) {
  out << tag;
  for (const std::int32_t l : lits) out << ' ' << l;
  out << " 0\n";
}

/// Reads one `tag l1 … lk 0` clause line from the token stream.
bool read_clause(std::istream& in, const std::string& want_tags,
                 char* tag_out, std::vector<std::int32_t>* lits, std::string* error,
                 const std::string& what) {
  std::string tag;
  if (!(in >> tag) || tag.size() != 1 ||
      want_tags.find(tag[0]) == std::string::npos) {
    return fail(error, "cert: malformed " + what + " line");
  }
  *tag_out = tag[0];
  lits->clear();
  for (;;) {
    std::int32_t lit = 0;
    if (!(in >> lit)) return fail(error, "cert: unterminated " + what + " line");
    if (lit == 0) return true;
    lits->push_back(lit);
  }
}

void write_sequence(std::ostream& out, const SequenceCert& seq) {
  out << "kind sequence\n";
  out << "problems " << seq.problems.size() << '\n';
  for (const Problem& p : seq.problems) write_problem(out, p);
  out << "steps " << seq.steps.size() << '\n';
  for (std::size_t j = 0; j < seq.steps.size(); ++j) {
    const SequenceStepCert& s = seq.steps[j];
    out << "step " << (j + 1) << ' ' << hex16(s.prev_fingerprint) << ' '
        << hex16(s.re_fingerprint) << ' ' << hex16(s.next_fingerprint) << '\n';
    write_problem(out, s.re_problem);
    if (s.label_map.has_value()) {
      out << "witness label-map " << s.label_map->size() << '\n';
      out << 'm';
      for (const Label l : *s.label_map) out << ' ' << static_cast<unsigned>(l);
      out << '\n';
    } else {
      out << "witness config-mapping " << s.config_mapping->size() << '\n';
      for (const auto& [source, image] : *s.config_mapping) {
        out << 'c';
        for (const Label l : source.labels()) out << ' ' << static_cast<unsigned>(l);
        for (const Label l : image) out << ' ' << static_cast<unsigned>(l);
        out << '\n';
      }
    }
  }
}

void write_lift(std::ostream& out, const LiftUnsatCert& lift) {
  out << "kind lift-unsat\n";
  write_problem(out, lift.problem);
  out << "lift " << lift.big_delta << ' ' << lift.big_r << '\n';
  out << "support " << lift.white_count << ' ' << lift.black_count << ' '
      << lift.edges.size() << '\n';
  for (const auto& [w, b] : lift.edges) out << "e " << w << ' ' << b << '\n';
  out << "cnf " << lift.num_vars << ' ' << lift.proof.input_clauses.size() << ' '
      << hex16(lift.cnf_hash) << '\n';
  for (const auto& clause : lift.proof.input_clauses) write_clause(out, 'k', clause);
  out << "proof " << lift.proof.steps.size() << '\n';
  for (const DratStep& step : lift.proof.steps) {
    write_clause(out, step.is_delete ? 'd' : 'a', step.lits);
  }
  write_clause(out, 't', lift.target);
}

bool read_sequence(std::istream& in, SequenceCert* seq, std::string* error) {
  std::string tag;
  std::size_t problem_count = 0;
  if (!(in >> tag >> problem_count) || tag != "problems") {
    return fail(error, "cert: malformed problem count");
  }
  if (problem_count < 2 || problem_count > kMaxProblems) {
    return fail(error, "cert: sequence needs 2.." + std::to_string(kMaxProblems) +
                           " problems");
  }
  seq->problems.reserve(problem_count);
  for (std::size_t i = 0; i < problem_count; ++i) {
    Problem p;
    if (!read_problem(in, "pi_" + std::to_string(i), &p, error, "cert")) return false;
    seq->problems.push_back(std::move(p));
  }
  std::size_t step_count = 0;
  if (!(in >> tag >> step_count) || tag != "steps") {
    return fail(error, "cert: malformed step count");
  }
  if (step_count != problem_count - 1) {
    return fail(error, "cert: step count does not match problem count");
  }
  seq->steps.reserve(step_count);
  for (std::size_t j = 0; j < step_count; ++j) {
    SequenceStepCert step;
    std::size_t index = 0;
    if (!(in >> tag >> index) || tag != "step" || index != j + 1) {
      return fail(error, "cert: malformed header of step " + std::to_string(j + 1));
    }
    if (!read_hex16(in, &step.prev_fingerprint) ||
        !read_hex16(in, &step.re_fingerprint) ||
        !read_hex16(in, &step.next_fingerprint)) {
      return fail(error,
                  "cert: malformed fingerprints of step " + std::to_string(j + 1));
    }
    if (!read_problem(in, "re_" + std::to_string(j), &step.re_problem, error,
                      "cert")) {
      return false;
    }
    const std::size_t next_alphabet = seq->problems[j + 1].alphabet_size();
    std::string witness_kind;
    std::size_t witness_size = 0;
    if (!(in >> tag >> witness_kind >> witness_size) || tag != "witness") {
      return fail(error,
                  "cert: malformed witness header of step " + std::to_string(j + 1));
    }
    if (witness_kind == "label-map") {
      if (witness_size != step.re_problem.alphabet_size()) {
        return fail(error, "cert: label map of step " + std::to_string(j + 1) +
                               " does not cover the RE alphabet");
      }
      std::string row;
      if (!(in >> row) || row != "m") {
        return fail(error,
                    "cert: malformed label map of step " + std::to_string(j + 1));
      }
      std::vector<Label> map(witness_size);
      for (std::size_t k = 0; k < witness_size; ++k) {
        unsigned v = 0;
        if (!(in >> v) || v >= next_alphabet) {
          return fail(error, "cert: label map entry out of range in step " +
                                 std::to_string(j + 1));
        }
        map[k] = static_cast<Label>(v);
      }
      step.label_map = std::move(map);
    } else if (witness_kind == "config-mapping") {
      const std::size_t degree = step.re_problem.white_degree();
      ConfigMapping mapping;
      for (std::size_t k = 0; k < witness_size; ++k) {
        std::string row;
        if (!(in >> row) || row != "c") {
          return fail(error, "cert: malformed config mapping row in step " +
                                 std::to_string(j + 1));
        }
        std::vector<Label> source(degree), image(degree);
        for (std::size_t d = 0; d < degree; ++d) {
          unsigned v = 0;
          if (!(in >> v) || v >= step.re_problem.alphabet_size()) {
            return fail(error, "cert: config mapping source label out of range "
                               "in step " +
                                   std::to_string(j + 1));
          }
          source[d] = static_cast<Label>(v);
        }
        for (std::size_t d = 0; d < degree; ++d) {
          unsigned v = 0;
          if (!(in >> v) || v >= next_alphabet) {
            return fail(error, "cert: config mapping image label out of range "
                               "in step " +
                                   std::to_string(j + 1));
          }
          image[d] = static_cast<Label>(v);
        }
        if (!mapping.emplace(Configuration(std::move(source)), std::move(image))
                 .second) {
          return fail(error, "cert: duplicate config mapping source in step " +
                                 std::to_string(j + 1));
        }
      }
      step.config_mapping = std::move(mapping);
    } else {
      return fail(error,
                  "cert: unknown witness kind '" + witness_kind + "' in step " +
                      std::to_string(j + 1));
    }
    seq->steps.push_back(std::move(step));
  }
  return true;
}

bool read_lift(std::istream& in, LiftUnsatCert* lift, std::string* error) {
  if (!read_problem(in, "pi", &lift->problem, error, "cert")) return false;
  std::string tag;
  if (!(in >> tag >> lift->big_delta >> lift->big_r) || tag != "lift" ||
      lift->big_delta == 0 || lift->big_r == 0 || lift->big_delta > 64 ||
      lift->big_r > 64) {
    return fail(error, "cert: malformed lift parameters");
  }
  std::size_t edge_count = 0;
  if (!(in >> tag >> lift->white_count >> lift->black_count >> edge_count) ||
      tag != "support") {
    return fail(error, "cert: malformed support header");
  }
  if (edge_count > lift->white_count * lift->black_count ||
      lift->white_count > kMaxVars || lift->black_count > kMaxVars) {
    return fail(error, "cert: support size out of range");
  }
  for (std::size_t i = 0; i < edge_count; ++i) {
    std::uint32_t w = 0, b = 0;
    if (!(in >> tag >> w >> b) || tag != "e" || w >= lift->white_count ||
        b >= lift->black_count) {
      return fail(error, "cert: malformed support edge");
    }
    lift->edges.emplace_back(w, b);
  }
  std::size_t clause_count = 0;
  if (!(in >> tag >> lift->num_vars >> clause_count) || tag != "cnf" ||
      lift->num_vars > kMaxVars) {
    return fail(error, "cert: malformed cnf header");
  }
  if (!read_hex16(in, &lift->cnf_hash)) {
    return fail(error, "cert: malformed cnf hash");
  }
  char clause_tag = 0;
  for (std::size_t i = 0; i < clause_count; ++i) {
    std::vector<std::int32_t> lits;
    if (!read_clause(in, "k", &clause_tag, &lits, error, "cnf clause")) return false;
    lift->proof.input_clauses.push_back(std::move(lits));
  }
  std::size_t step_count = 0;
  if (!(in >> tag >> step_count) || tag != "proof") {
    return fail(error, "cert: malformed proof header");
  }
  for (std::size_t i = 0; i < step_count; ++i) {
    DratStep step;
    if (!read_clause(in, "ad", &clause_tag, &step.lits, error, "proof step")) {
      return false;
    }
    step.is_delete = clause_tag == 'd';
    lift->proof.steps.push_back(std::move(step));
  }
  if (!read_clause(in, "t", &clause_tag, &lift->target, error, "target clause")) {
    return false;
  }
  return true;
}

}  // namespace

std::uint64_t lift_cnf_hash(std::size_t num_vars,
                            const std::vector<std::vector<std::int32_t>>& clauses) {
  std::ostringstream out;
  out << num_vars << ' ' << clauses.size() << '\n';
  for (const auto& clause : clauses) write_clause(out, 'k', clause);
  return fnv1a_bytes(out.str());
}

bool save_certificate(const Certificate& cert, const std::string& path,
                      std::string* error) {
  std::ostringstream out;
  if (cert.kind == CertKind::kSequence) {
    write_sequence(out, cert.sequence);
  } else {
    write_lift(out, cert.lift);
  }
  // Atomic replace, like every other persisted artifact: a crash mid-save
  // leaves the previous certificate at `path` or the new one, never a torn
  // file.
  std::string io_error;
  if (!write_file_atomic(path, frame_payload(kMagic, out.str()), &io_error)) {
    return fail(error, "cert: " + io_error);
  }
  return true;
}

bool load_certificate(const std::string& path, Certificate* cert,
                      std::string* error) {
  std::string payload;
  if (!read_framed_file(path, kMagic, "cert", &payload, error)) return false;

  std::istringstream in(payload);
  std::string tag, kind;
  if (!(in >> tag >> kind) || tag != "kind") {
    return fail(error, "cert: malformed kind line");
  }
  Certificate parsed;
  if (kind == "sequence") {
    parsed.kind = CertKind::kSequence;
    if (!read_sequence(in, &parsed.sequence, error)) return false;
  } else if (kind == "lift-unsat") {
    parsed.kind = CertKind::kLiftUnsat;
    if (!read_lift(in, &parsed.lift, error)) return false;
  } else {
    return fail(error, "cert: unknown certificate kind '" + kind + "'");
  }
  if (in >> tag) {
    return fail(error, "cert: trailing data after certificate");
  }
  *cert = std::move(parsed);
  return true;
}

}  // namespace slocal::cert
