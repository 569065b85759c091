#include "src/discover/discover.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "src/cert/emit.hpp"
#include "src/discover/checkpoint.hpp"
#include "src/formalism/canonical.hpp"
#include "src/formalism/relaxation.hpp"
#include "src/formalism/serialize.hpp"
#include "src/re/round_elimination.hpp"
#include "src/re/sequence.hpp"

namespace slocal::discover {

namespace {

/// Engine nodes below this are pointless (a search that cannot even probe
/// its first assignments only churns); the steering rule never hands an
/// expansion less.
constexpr std::uint64_t kMinStepNodes = 1'024;
constexpr std::uint64_t kDefaultStepNodes = 200'000;

/// The nodes RE charges its budget for (REOptions::max_nodes) — the
/// currency the steering rule accounts in.
std::uint64_t re_nodes(const REStats& s) {
  return s.dfs_nodes + s.configs_enumerated + s.relaxed_multisets;
}

/// Quotient of `p` under the merge of label `hi` into label `lo` (hi > lo):
/// the image problem of the surjective renaming, which contains every
/// mapped configuration by construction — so the renaming itself witnesses
/// that the quotient is a relaxation of `p`.
Problem merge_labels(const Problem& p, Label lo, Label hi) {
  const std::size_t n = p.alphabet_size();
  LabelRegistry registry;
  std::vector<Label> map(n, 0);
  for (std::size_t l = 0, next = 0; l < n; ++l) {
    if (l == hi) {
      map[l] = map[lo];
    } else {
      map[l] = static_cast<Label>(next++);
      registry.intern(l == lo ? p.registry().name(lo) + "+" + p.registry().name(hi)
                              : p.registry().name(static_cast<Label>(l)));
    }
  }
  Constraint white(p.white_degree()), black(p.black_degree());
  for (const Configuration& c : p.white().members()) {
    std::vector<Label> labels;
    labels.reserve(c.size());
    for (const Label l : c.labels()) labels.push_back(map[l]);
    white.add(Configuration(std::move(labels)));
  }
  for (const Configuration& c : p.black().members()) {
    std::vector<Label> labels;
    labels.reserve(c.size());
    for (const Label l : c.labels()) labels.push_back(map[l]);
    black.add(Configuration(std::move(labels)));
  }
  return Problem(p.name() + "/merge", std::move(registry), std::move(white),
                 std::move(black));
}

}  // namespace

bool zero_round_trivial(const Problem& p) {
  const std::size_t degree = p.black_degree();
  for (const Configuration& c : p.white().sorted_members()) {
    std::set<Label> label_set(c.labels().begin(), c.labels().end());
    const std::vector<Label> labels(label_set.begin(), label_set.end());
    // Every degree-multiset over the configuration's label set must be a
    // black configuration; enumerate them as nondecreasing index vectors.
    std::vector<std::size_t> index(degree, 0);
    bool all_valid = true;
    while (true) {
      std::vector<Label> choice;
      choice.reserve(degree);
      for (const std::size_t i : index) choice.push_back(labels[i]);
      if (!p.black().contains(Configuration(std::move(choice)))) {
        all_valid = false;
        break;
      }
      std::size_t pos = degree;
      bool done = true;
      while (pos-- > 0) {
        if (index[pos] + 1 < labels.size()) {
          const std::size_t bumped = ++index[pos];
          for (std::size_t j = pos + 1; j < degree; ++j) index[j] = bumped;
          done = false;
          break;
        }
      }
      if (done) break;
    }
    if (all_valid) return true;
  }
  return false;
}

std::uint64_t SmallFirstHeuristic::score(const CandidateView& view) const {
  const Problem& p = *view.problem;
  const std::uint64_t size =
      p.alphabet_size() * 1'000'000 +
      (p.white().size() + p.black().size()) * 100;
  return size / (view.depth + 1);
}

const char* to_string(DiscoverStatus s) {
  switch (s) {
    case DiscoverStatus::kFound: return "found";
    case DiscoverStatus::kNone: return "none";
    case DiscoverStatus::kExhausted: return "exhausted";
    case DiscoverStatus::kCorrupt: return "corrupt";
  }
  return "?";
}

std::string DiscoverStats::to_string() const { return render_fields(*this); }

namespace {

/// The whole search state plus the option-derived knobs, so the main loop
/// and its helpers share one object instead of a dozen parameters.
class Searcher {
 public:
  Searcher(const std::vector<Problem>& family, const DiscoverOptions& options,
           DiscoverResult* result)
      : family_(family),
        options_(options),
        result_(result),
        heuristic_(options.heuristic != nullptr ? *options.heuristic
                                                : default_heuristic_),
        cache_(options.cache != nullptr ? *options.cache : local_cache_) {
    target_ = std::max<std::size_t>(1, options_.target_length);
    beam_ = std::max<std::size_t>(1, options_.beam_width);
    max_finds_ = std::max<std::size_t>(1, options_.max_finds);
    step_nodes_ =
        options_.step_nodes == 0 ? kDefaultStepNodes : options_.step_nodes;
    // The family is fixed for the whole search: look at each member once.
    for (const Problem& member : family_) {
      family_fingerprints_.push_back(canonical_fingerprint(member));
      family_trivial_.push_back(zero_round_trivial(member));
    }
  }

  DiscoverStatus run() {
    if (!options_.checkpoint_path.empty() &&
        std::ifstream(options_.checkpoint_path).good()) {
      std::string error;
      FrontierCheckpoint cp;
      if (!load_frontier_checkpoint(options_.checkpoint_path, &cp, &error)) {
        log() << "checkpoint rejected: " << error << '\n';
        return DiscoverStatus::kCorrupt;
      }
      restore(std::move(cp));
    } else {
      seed_roots();
    }

    while (true) {
      stats().frontier_peak =
          std::max(stats().frontier_peak,
                   static_cast<std::uint64_t>(frontier_.size()));
      trim_beam();
      if (finds_ >= max_finds_) return DiscoverStatus::kFound;
      if (frontier_.empty()) {
        return finds_ > 0 ? DiscoverStatus::kFound
               : definitive_ ? DiscoverStatus::kNone
                             : exhausted();
      }
      if (out_of_budget()) {
        return finds_ > 0 ? DiscoverStatus::kFound : exhausted();
      }
      FrontierNode node = pop_best();
      expand(std::move(node));
      if (options_.checkpoint_every > 0 &&
          stats().expansions % options_.checkpoint_every == 0) {
        write_checkpoint();
      }
    }
  }

  /// Terminal bookkeeping: persist on exhaustion (resume material), remove
  /// a stale checkpoint on a definitive outcome.
  void finish(DiscoverStatus status) {
    if (options_.checkpoint_path.empty() || status == DiscoverStatus::kCorrupt) {
      return;
    }
    if (status == DiscoverStatus::kExhausted) {
      write_checkpoint();
    } else {
      std::remove(options_.checkpoint_path.c_str());
    }
  }

  std::ostringstream& log() { return log_; }
  std::string take_log() { return log_.str(); }
  DiscoverStats& stats() { return result_->stats; }

 private:
  DiscoverStatus exhausted() const { return DiscoverStatus::kExhausted; }

  bool out_of_budget() {
    if (options_.budget != nullptr && options_.budget->halted()) {
      log() << "halt budget\n";
      return true;
    }
    if (options_.max_expansions > 0 &&
        stats().expansions >= options_.max_expansions) {
      log() << "halt expansions\n";
      return true;
    }
    if (options_.total_nodes > 0 && nodes_spent_ >= options_.total_nodes) {
      log() << "halt nodes\n";
      return true;
    }
    return false;
  }

  void seed_roots() {
    log() << "discover family=" << family_.size() << " target=" << target_
          << " beam=" << beam_ << '\n';
    for (std::size_t i = 0; i < family_.size(); ++i) {
      const std::uint64_t fingerprint = family_fingerprints_[i];
      log() << "root " << i << " fp=" << hex16(fingerprint)
            << " sigma=" << family_[i].alphabet_size()
            << " w=" << family_[i].white().size()
            << " b=" << family_[i].black().size();
      if (family_trivial_[i]) {
        ++stats().candidates_trivial;
        log() << " trivial\n";
        continue;
      }
      if (visited_.contains(fingerprint)) {
        ++stats().candidates_deduped;
        log() << " deduped\n";
        continue;
      }
      visited_.insert(fingerprint);
      CandidateView view;
      view.problem = &family_[i];
      view.depth = 0;
      view.origin = CandidateView::Origin::kRoot;
      FrontierNode node;
      node.score = heuristic_.score(view);
      node.seq = next_seq_++;
      node.chain.push_back(family_[i]);
      node.fingerprints.push_back(fingerprint);
      log() << " score=" << node.score << '\n';
      frontier_.push_back(std::move(node));
    }
  }

  void restore(FrontierCheckpoint cp) {
    target_ = cp.target_length;
    next_seq_ = cp.next_seq;
    stats().expansions = cp.expansions;
    nodes_spent_ = cp.nodes_spent;
    stats().nodes_spent = cp.nodes_spent;
    finds_ = cp.finds_emitted;
    definitive_ = cp.definitive;
    visited_.insert(cp.visited.begin(), cp.visited.end());
    frontier_ = std::move(cp.frontier);
    stats().resumed = true;
    log() << "resume frontier=" << frontier_.size()
          << " visited=" << visited_.size()
          << " expansions=" << stats().expansions << '\n';
  }

  void sort_frontier() {
    std::sort(frontier_.begin(), frontier_.end(),
              [](const FrontierNode& a, const FrontierNode& b) {
                return a.score != b.score ? a.score < b.score : a.seq < b.seq;
              });
  }

  void trim_beam() {
    if (frontier_.size() <= beam_) return;
    sort_frontier();
    const std::size_t evicted = frontier_.size() - beam_;
    stats().beam_evictions += evicted;
    definitive_ = false;
    frontier_.resize(beam_);
    log() << "evict " << evicted << '\n';
  }

  FrontierNode pop_best() {
    sort_frontier();
    FrontierNode node = std::move(frontier_.front());
    frontier_.erase(frontier_.begin());
    return node;
  }

  /// The deterministic steering rule: with a total pool, the remaining
  /// nodes are split evenly over the live beam slots (this node plus the
  /// rest of the frontier, capped at the beam width), so an expansion that
  /// comes back cheap leaves its unspent share to the later slots.
  std::uint64_t step_cap() const {
    if (options_.total_nodes == 0) return step_nodes_;
    const std::uint64_t remaining =
        options_.total_nodes > nodes_spent_ ? options_.total_nodes - nodes_spent_
                                            : 0;
    const std::uint64_t slots = static_cast<std::uint64_t>(
        std::min(beam_, frontier_.size() + 1));
    return std::max(kMinStepNodes, remaining / std::max<std::uint64_t>(1, slots));
  }

  void charge(std::uint64_t nodes) {
    nodes_spent_ += nodes;
    stats().nodes_spent = nodes_spent_;
  }

  RelaxationOptions relaxation_options(std::uint64_t cap) const {
    RelaxationOptions ro;
    // Finite budgets force the engines' deterministic serial paths; the
    // threads knob only matters to them when budgets are unlimited, which
    // the driver never requests.
    ro.node_budget = cap;
    ro.threads = 1;
    ro.budget = options_.budget;
    return ro;
  }

  void expand(FrontierNode node) {
    ++stats().expansions;
    const std::uint64_t cap = step_cap();
    const Problem& tip = node.chain.back();
    const std::size_t depth = node.chain.size() - 1;
    log() << "expand " << stats().expansions << " depth=" << depth
          << " fp=" << hex16(node.fingerprints.back()) << " cap=" << cap << '\n';

    REOptions re_options;
    re_options.threads = options_.threads;
    re_options.max_nodes = cap;
    re_options.budget = options_.budget;
    re_options.cache = &cache_;
    REStats re_stats;
    re_options.stats = &re_stats;
    std::uint64_t re_fingerprint = 0;
    const std::optional<Problem> re = round_eliminate(tip, re_options, &re_fingerprint);
    charge(re_nodes(re_stats));
    stats().cache_hits += re_stats.cache_hits;
    stats().cache_misses += re_stats.cache_misses;
    if (!re) {
      ++stats().re_failures;
      definitive_ = false;
      log() << "  re " << (re_stats.budget_exhausted > 0 ? "exhausted" : "capped")
            << '\n';
      return;
    }
    log() << "  re fp=" << hex16(re_fingerprint)
          << " sigma=" << re->alphabet_size() << " w=" << re->white().size()
          << " b=" << re->black().size() << '\n';

    // Pump test — is the tip a relaxation of its own RE? Then the chain
    // extends to any length by repetition (the fixed-point shape).
    const Verdict pump = relaxes_to(*re, tip, cap);
    if (pump == Verdict::kYes) {
      ++stats().pumps_found;
      log() << "  pump yes\n";
      std::vector<Problem> chain = node.chain;
      std::vector<std::uint64_t> fps = node.fingerprints;
      while (chain.size() < target_ + 1) {
        chain.push_back(chain.back());
        fps.push_back(fps.back());
      }
      emit_find(std::move(chain), std::move(fps), true);
      return;
    }
    log() << "  pump " << (pump == Verdict::kNo ? "no" : "exhausted") << '\n';
    if (pump == Verdict::kExhausted) definitive_ = false;
    if (depth + 1 > target_) return;  // complete chains are emitted, not grown

    // Pool moves: family members admitted by a relaxation witness from the
    // RE. Deduplicated against this chain only — a family member may serve
    // in many chains (and as a root), just not twice in one.
    for (std::size_t i = 0; i < family_.size(); ++i) {
      if (finds_ >= max_finds_) return;
      const std::uint64_t fingerprint = family_fingerprints_[i];
      if (std::find(node.fingerprints.begin(), node.fingerprints.end(),
                    fingerprint) != node.fingerprints.end()) {
        continue;
      }
      ++stats().candidates_generated;
      if (family_trivial_[i]) {
        ++stats().candidates_trivial;
        continue;
      }
      const Verdict verdict = relaxes_to(*re, family_[i], cap);
      if (verdict != Verdict::kYes) {
        ++stats().pool_rejections;
        if (verdict == Verdict::kExhausted) definitive_ = false;
        log() << "  pool " << i << " fp=" << hex16(fingerprint) << ' '
              << (verdict == Verdict::kNo ? "no" : "exhausted") << '\n';
        continue;
      }
      log() << "  pool " << i << " fp=" << hex16(fingerprint) << " yes\n";
      accept_child(node, family_[i], fingerprint, false);
    }
    if (finds_ >= max_finds_) return;

    // Identity move: the RE itself (a relaxation by the identity map).
    consider_generic(node, *re, "identity");
    if (finds_ >= max_finds_) return;

    // Merge moves: quotients under every single label merge; the quotient
    // map witnesses the relaxation by construction.
    const std::size_t n = re->alphabet_size();
    for (Label lo = 0; lo < n; ++lo) {
      for (Label hi = static_cast<Label>(lo + 1); hi < n; ++hi) {
        if (finds_ >= max_finds_) return;
        consider_generic(node, merge_labels(*re, lo, hi), "merge");
      }
    }
  }

  /// The relaxation ladder of verify_lower_bound_sequence: cheap per-label
  /// map first, bounded exact witness search second. Both under finite
  /// budgets (deterministic serial paths).
  Verdict relaxes_to(const Problem& from, const Problem& to, std::uint64_t cap) {
    const LabelMapResult by_map =
        find_relaxation_label_map(from, to, relaxation_options(cap));
    charge(by_map.nodes);
    if (by_map.verdict == Verdict::kYes) return Verdict::kYes;
    const WitnessResult by_witness =
        find_relaxation_witness(from, to, relaxation_options(cap));
    charge(by_witness.nodes);
    if (by_witness.verdict == Verdict::kYes) return Verdict::kYes;
    return by_map.verdict == Verdict::kExhausted ? Verdict::kExhausted
                                                 : by_witness.verdict;
  }

  /// Generic (identity / merge) candidates deduplicate globally through the
  /// visited fingerprint set — unlike pool members, revisiting one through
  /// another chain cannot reach anything new at equal or lower cost.
  void consider_generic(const FrontierNode& parent, Problem candidate,
                        const char* tag) {
    ++stats().candidates_generated;
    if (zero_round_trivial(candidate)) {
      ++stats().candidates_trivial;
      return;
    }
    const std::uint64_t fingerprint = canonical_fingerprint(candidate);
    if (visited_.contains(fingerprint)) {
      ++stats().candidates_deduped;
      return;
    }
    visited_.insert(fingerprint);
    log() << "  " << tag << " fp=" << hex16(fingerprint)
          << " sigma=" << candidate.alphabet_size() << '\n';
    accept_child(parent, std::move(candidate), fingerprint, true);
  }

  void accept_child(const FrontierNode& parent, Problem candidate,
                    std::uint64_t fingerprint, bool generic) {
    ++stats().candidates_accepted;
    std::vector<Problem> chain = parent.chain;
    chain.push_back(std::move(candidate));
    std::vector<std::uint64_t> fps = parent.fingerprints;
    fps.push_back(fingerprint);
    if (chain.size() == target_ + 1) {
      emit_find(std::move(chain), std::move(fps), false);
      return;
    }
    CandidateView view;
    view.problem = &chain.back();
    view.depth = chain.size() - 1;
    view.origin = generic ? CandidateView::Origin::kMerge
                          : CandidateView::Origin::kPool;
    FrontierNode child;
    child.score = heuristic_.score(view);
    child.seq = next_seq_++;
    child.chain = std::move(chain);
    child.fingerprints = std::move(fps);
    frontier_.push_back(std::move(child));
  }

  /// Re-verifies the chain end to end and packages the certificate. The
  /// emission pass runs with threads = 1 and unlimited nodes: RE steps are
  /// cache hits from the search, the relaxation searches are deterministic,
  /// and the resulting bytes are identical for every driver thread count.
  void emit_find(std::vector<Problem> chain, std::vector<std::uint64_t> fps,
                 bool pumped) {
    REOptions emit_options;
    emit_options.threads = 1;
    emit_options.budget = options_.budget;
    emit_options.cache = &cache_;
    REStats emit_stats;
    emit_options.stats = &emit_stats;
    SequenceReport report;
    std::optional<cert::Certificate> certificate =
        cert::make_sequence_certificate(chain, emit_options, &report);
    stats().cache_hits += emit_stats.cache_hits;
    stats().cache_misses += emit_stats.cache_misses;
    if (!certificate.has_value()) {
      // A chain the search verified step by step failed the (stricter,
      // budget-free) emission pass: drop it rather than claim it.
      definitive_ = false;
      log() << "  emit failed steps=" << chain.size() - 1 << '\n';
      return;
    }
    ++finds_;
    ++stats().certs_emitted;
    log() << "found " << finds_ << " steps=" << chain.size() - 1
          << " pumped=" << (pumped ? 1 : 0) << " fps=";
    for (std::size_t i = 0; i < fps.size(); ++i) {
      log() << (i > 0 ? "," : "") << hex16(fps[i]);
    }
    log() << '\n';
    Discovery find;
    find.chain = std::move(chain);
    find.fingerprints = std::move(fps);
    find.pumped = pumped;
    find.certificate = std::move(*certificate);
    result_->found.push_back(std::move(find));
  }

  void write_checkpoint() {
    if (options_.checkpoint_path.empty()) return;
    FrontierCheckpoint cp;
    cp.target_length = target_;
    cp.next_seq = next_seq_;
    cp.expansions = stats().expansions;
    cp.nodes_spent = nodes_spent_;
    cp.finds_emitted = finds_;
    cp.definitive = definitive_;
    cp.visited.assign(visited_.begin(), visited_.end());
    cp.frontier = frontier_;
    sort_nodes(&cp.frontier);
    std::string error;
    if (save_frontier_checkpoint(cp, options_.checkpoint_path, &error)) {
      ++stats().checkpoints_written;
    } else {
      log() << "checkpoint write failed: " << error << '\n';
    }
  }

  static void sort_nodes(std::vector<FrontierNode>* nodes) {
    std::sort(nodes->begin(), nodes->end(),
              [](const FrontierNode& a, const FrontierNode& b) {
                return a.score != b.score ? a.score < b.score : a.seq < b.seq;
              });
  }

  const std::vector<Problem>& family_;
  std::vector<std::uint64_t> family_fingerprints_;  // canonical, per member
  std::vector<bool> family_trivial_;                // zero_round_trivial, per member
  const DiscoverOptions& options_;
  DiscoverResult* result_;
  SmallFirstHeuristic default_heuristic_;
  const Heuristic& heuristic_;
  RECache local_cache_;
  RECache& cache_;

  std::size_t target_ = 1;
  std::size_t beam_ = 4;
  std::size_t max_finds_ = 1;
  std::uint64_t step_nodes_ = kDefaultStepNodes;

  std::ostringstream log_;
  std::vector<FrontierNode> frontier_;
  std::set<std::uint64_t> visited_;  // ordered: checkpoints serialize sorted
  std::uint64_t next_seq_ = 0;
  std::uint64_t nodes_spent_ = 0;
  std::uint64_t finds_ = 0;
  bool definitive_ = true;
};

}  // namespace

DiscoverResult run_discovery(const std::vector<Problem>& family,
                             const DiscoverOptions& options) {
  DiscoverResult result;
  Searcher searcher(family, options, &result);
  result.status = searcher.run();
  searcher.finish(result.status);
  result.log = searcher.take_log();
  return result;
}

}  // namespace slocal::discover
