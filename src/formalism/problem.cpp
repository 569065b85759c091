#include "src/formalism/problem.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <map>

#include "src/formalism/canonical.hpp"

namespace slocal {

Problem::Problem(std::string name, LabelRegistry registry, Constraint white,
                 Constraint black)
    : name_(std::move(name)),
      registry_(std::move(registry)),
      white_(std::move(white)),
      black_(std::move(black)) {}

std::string Problem::to_string() const {
  std::string out = name_;
  out += "\nwhite (d=" + std::to_string(white_degree()) + "):\n";
  out += white_.to_string(registry_);
  out += "black (d=" + std::to_string(black_degree()) + "):\n";
  out += black_.to_string(registry_);
  return out;
}

namespace {

/// Signature of a label inside a problem: multiset of (multiplicity)
/// occurrence patterns in white and black constraints. Labels can only map
/// to labels with identical signatures.
struct LabelSignature {
  std::map<std::size_t, std::size_t> white_mult_hist;  // multiplicity -> count
  std::map<std::size_t, std::size_t> black_mult_hist;

  bool operator==(const LabelSignature&) const = default;
};

LabelSignature signature_of(const Problem& p, Label l) {
  LabelSignature s;
  for (const auto& c : p.white().members()) {
    const std::size_t m = c.count(l);
    if (m > 0) ++s.white_mult_hist[m];
  }
  for (const auto& c : p.black().members()) {
    const std::size_t m = c.count(l);
    if (m > 0) ++s.black_mult_hist[m];
  }
  return s;
}

Configuration remap(const Configuration& c, const std::vector<Label>& map) {
  std::vector<Label> out;
  out.reserve(c.size());
  for (const Label l : c.labels()) out.push_back(map[l]);
  return Configuration(std::move(out));
}

bool constraints_match(const Constraint& a, const Constraint& b,
                       const std::vector<Label>& map) {
  if (a.size() != b.size() || a.degree() != b.degree()) return false;
  return std::all_of(a.members().begin(), a.members().end(),
                     [&](const Configuration& c) { return b.contains(remap(c, map)); });
}

bool search_bijection(const Problem& a, const Problem& b,
                      const std::vector<std::vector<Label>>& candidates,
                      std::vector<Label>& map, std::vector<bool>& used,
                      std::size_t next) {
  const std::size_t n = a.alphabet_size();
  if (next == n) {
    return constraints_match(a.white(), b.white(), map) &&
           constraints_match(a.black(), b.black(), map);
  }
  for (const Label target : candidates[next]) {
    if (used[target]) continue;
    map[next] = target;
    used[target] = true;
    if (search_bijection(a, b, candidates, map, used, next + 1)) return true;
    used[target] = false;
  }
  return false;
}

}  // namespace

std::optional<std::vector<Label>> equivalent_up_to_renaming_bruteforce(
    const Problem& a, const Problem& b) {
  if (a.alphabet_size() != b.alphabet_size()) return std::nullopt;
  if (a.white().size() != b.white().size() || a.black().size() != b.black().size()) {
    return std::nullopt;
  }
  if (a.white_degree() != b.white_degree() || a.black_degree() != b.black_degree()) {
    return std::nullopt;
  }
  const std::size_t n = a.alphabet_size();
  std::vector<LabelSignature> sig_b(n);
  for (std::size_t i = 0; i < n; ++i) {
    sig_b[i] = signature_of(b, static_cast<Label>(i));
  }
  std::vector<std::vector<Label>> candidates(n);
  for (std::size_t i = 0; i < n; ++i) {
    const LabelSignature sa = signature_of(a, static_cast<Label>(i));
    for (std::size_t j = 0; j < n; ++j) {
      if (sa == sig_b[j]) candidates[i].push_back(static_cast<Label>(j));
    }
    if (candidates[i].empty()) return std::nullopt;
  }
  std::vector<Label> map(n, 0);
  std::vector<bool> used(n, false);
  if (search_bijection(a, b, candidates, map, used, 0)) return map;
  return std::nullopt;
}

Problem drop_unused_labels(const Problem& p, std::uint64_t* fingerprint) {
  std::vector<bool> used(p.alphabet_size(), false);
  for (const Label l : p.white().used_labels()) used[l] = true;
  for (const Label l : p.black().used_labels()) used[l] = true;

  LabelRegistry reg;
  std::vector<Label> remap_table(p.alphabet_size(), 0);
  for (std::size_t i = 0; i < p.alphabet_size(); ++i) {
    if (used[i]) {
      remap_table[i] = reg.intern(p.registry().name(static_cast<Label>(i)));
    }
  }
  Constraint white(p.white_degree());
  for (const auto& c : p.white().members()) white.add(remap(c, remap_table));
  Constraint black(p.black_degree());
  for (const auto& c : p.black().members()) black.add(remap(c, remap_table));
  Problem compact(p.name(), std::move(reg), std::move(white), std::move(black));

  // Reindex the survivors canonically so the result's constraint structure
  // depends only on the renaming class of the input, not on which indices
  // happened to be used. Names still travel with their labels.
  CanonicalForm cf = canonicalize(compact);
  if (fingerprint != nullptr) *fingerprint = cf.fingerprint;
  std::vector<Label> inverse(cf.perm.size(), 0);
  for (std::size_t l = 0; l < cf.perm.size(); ++l) {
    inverse[cf.perm[l]] = static_cast<Label>(l);
  }
  LabelRegistry named;
  for (std::size_t c = 0; c < cf.perm.size(); ++c) {
    named.intern(compact.registry().name(inverse[c]));
  }
  return Problem(p.name(), std::move(named), std::move(cf.problem.white()),
                 std::move(cf.problem.black()));
}

}  // namespace slocal
