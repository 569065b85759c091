// re-chain: certify lower-bound sequences and check the certificates — what
// `slocal_tool sequence --emit-cert` plus `check-cert` do, one shot, with no
// RE cache. RE hardening and the relaxation (witness) search carry this
// workload; SAT does no work here.
//
// Items: the Π_8(0,1) chain with k = 5, the one-step chains
// Π_7(1,2)→Π_7(3,2) and Π_8(2,3)→Π_8(5,3) (Lemma 4.5 / Cor. 4.6), and one
// discovery over the Π_6(x,1) pool, x = 0..4, with target length 3.
//
// The traced pass unrolls make_sequence_certificate into the calls it makes —
// round_eliminate, find_relaxation_label_map, and find_relaxation_witness
// only where the map search says no (the ladder of
// verify_lower_bound_sequence) — and packs the certificate here, so the
// cert.emit span's self time is the packing alone.
#include <sys/stat.h>

#include <optional>

#include "problem_files.hpp"
#include "src/cert/check.hpp"
#include "src/cert/emit.hpp"
#include "src/discover/discover.hpp"
#include "src/formalism/canonical.hpp"
#include "src/problems/matching_family.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace slocal;

struct ChainSpec {
  std::size_t delta, x, y, k;
};

struct Item {
  std::string id;
  std::vector<Problem> problems;  // the chain, or the discovery pool
  bool discover = false;
  std::vector<std::uint64_t> fingerprints;  // expected Π_i fingerprints (chains)
};

struct Result {
  double ms = 0.0;
  std::optional<cert::Certificate> certificate;
  bool check_valid = false;
  std::string failure;
};

class ReChain : public Workload {
 public:
  explicit ReChain(const Args& args) : args_(args) {}

  /// Writes every chain and the pool as problem files and parses them back,
  /// as `slocal_tool sequence <files>` reads its input. The expected
  /// fingerprints come from the problems as built, so a file that does not
  /// round-trip fails the oracle.
  void setup() override {
    const std::vector<ChainSpec> chains =
        args_.smoke ? std::vector<ChainSpec>{{4, 0, 1, 2}, {5, 1, 2, 1}}
                    : std::vector<ChainSpec>{{8, 0, 1, 5}, {7, 1, 2, 1}, {8, 2, 3, 1}};
    const std::string dir = args_.out_dir + "/re-chain";
    ::mkdir(dir.c_str(), 0755);
    const auto through_file = [&](const Problem& p, const std::string& name) {
      const std::string path = dir + "/" + name + ".txt";
      write_problem_file(path, p);
      return load_problem_file(path);
    };
    items_.clear();
    for (const ChainSpec& c : chains) {
      Item item;
      item.id = "chain:pi" + std::to_string(c.delta) + "(" + std::to_string(c.x) + "," +
                std::to_string(c.y) + ")k" + std::to_string(c.k);
      const std::vector<Problem> built = matching_lower_bound_sequence(c.delta, c.x, c.y, c.k);
      for (std::size_t i = 0; i < built.size(); ++i) {
        item.fingerprints.push_back(canonical_fingerprint(built[i]));
        const std::string name = "pi" + std::to_string(c.delta) + "-" + std::to_string(c.x) +
                                 "-" + std::to_string(c.y) + "-k" + std::to_string(c.k) +
                                 "-" + std::to_string(i);
        if (auto p = through_file(built[i], name)) item.problems.push_back(std::move(*p));
      }
      items_.push_back(std::move(item));
    }
    Item pool;
    pool.id = "discover:pi6(x,1)";
    pool.discover = true;
    for (std::size_t x = 0; x <= 4; ++x) {
      const std::string name = "pool-pi6-" + std::to_string(x) + "-1";
      if (auto p = through_file(make_matching_problem(6, x, 1), name)) {
        pool.problems.push_back(std::move(*p));
      }
    }
    items_.push_back(std::move(pool));
  }

  void pass(Tracer* tracer) override {
    results_.assign(items_.size(), Result{});
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Item& item = items_[i];
      Result& r = results_[i];
      if (tracer != nullptr) tracer->set_item(item.id);
      const auto t0 = Clock::now();
      if (item.discover) {
        discover_item(item, r, tracer);
      } else if (tracer != nullptr) {
        traced_chain_item(item, r, *tracer);
      } else {
        REOptions options;
        options.threads = args_.threads;
        r.certificate = cert::make_sequence_certificate(item.problems, options);
        if (!r.certificate) r.failure = "sequence did not verify";
      }
      if (r.certificate) {
        Tracer::Scope span(tracer, "cert.check");
        r.check_valid = cert::check_certificate(*r.certificate).status ==
                        cert::CertStatus::kValid;
      }
      r.ms = ms_since(t0);
    }
  }

  std::vector<ItemOutcome> judge() override {
    std::vector<ItemOutcome> out;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Item& item = items_[i];
      const Result& r = results_[i];
      ItemOutcome o{item.id, r.ms, false, r.failure};
      if (!r.certificate) {
        if (o.detail.empty()) o.detail = "no certificate";
      } else if (!r.check_valid) {
        o.detail = "certificate did not check valid";
      } else if (item.discover) {
        o.ok = r.certificate->sequence.problems.size() == kDiscoverTarget + 1;
        if (!o.ok) o.detail = "discovered chain has the wrong length";
      } else {
        const auto& steps = r.certificate->sequence.steps;
        o.ok = steps.size() + 1 == item.fingerprints.size();
        for (std::size_t s = 0; o.ok && s < steps.size(); ++s) {
          o.ok = steps[s].prev_fingerprint == item.fingerprints[s] &&
                 steps[s].next_fingerprint == item.fingerprints[s + 1];
        }
        if (!o.ok) o.detail = "certificate does not bind the requested chain";
      }
      out.push_back(std::move(o));
    }
    return out;
  }

  void layer_metrics(const Tracer& tracer, std::map<std::string, double>& m) override {
    m["re.ms"] = tracer.self_ms("re");
    m["re.harden_ms"] = re_stats_.harden_ms;
    m["re.dominate_ms"] = re_stats_.dominate_ms;
    m["re.relax_ms"] = re_stats_.relax_ms;
    m["re.dfs_nodes"] = static_cast<double>(re_stats_.dfs_nodes);
    m["re.extendable_calls"] = static_cast<double>(re_stats_.extendable_calls);
    m["re.partials_deduped"] = static_cast<double>(re_stats_.partials_deduped);
    m["re.configs_enumerated"] = static_cast<double>(re_stats_.configs_enumerated);
    m["formalism.relax_map_ms"] = tracer.self_ms("formalism.relax_map");
    m["formalism.relax_map_nodes"] = static_cast<double>(map_nodes_);
    m["formalism.relax_witness_ms"] = tracer.self_ms("formalism.relax_witness");
    m["formalism.relax_witness_nodes"] = static_cast<double>(witness_nodes_);
    m["cert.emit_ms"] = tracer.self_ms("cert.emit");
    m["cert.check_ms"] = tracer.self_ms("cert.check");
    m["discover.ms"] = tracer.self_ms("discover");
    m["discover.expansions"] = static_cast<double>(discover_stats_.expansions);
    m["discover.nodes_spent"] = static_cast<double>(discover_stats_.nodes_spent);
  }

  double latency_limit_ms() const override { return 60'000.0; }

 private:
  static constexpr std::size_t kDiscoverTarget = 3;

  void discover_item(const Item& item, Result& r, Tracer* tracer) {
    discover::DiscoverOptions options;
    options.target_length = kDiscoverTarget;
    options.threads = args_.threads;
    discover::DiscoverResult found;
    {
      Tracer::Scope span(tracer, "discover");
      found = discover::run_discovery(item.problems, options);
    }
    if (tracer != nullptr) discover_stats_ = found.stats;
    if (found.status != discover::DiscoverStatus::kFound || found.found.empty()) {
      r.failure = std::string("discovery ended ") + discover::to_string(found.status);
      return;
    }
    r.certificate = std::move(found.found.front().certificate);
  }

  /// make_sequence_certificate, unrolled into the public calls it makes.
  void traced_chain_item(const Item& item, Result& r, Tracer& tracer) {
    Tracer::Scope emit(&tracer, "cert.emit");
    const std::vector<Problem>& problems = item.problems;
    REOptions options;
    options.threads = args_.threads;
    options.stats = &re_stats_;
    cert::Certificate out;
    out.kind = cert::CertKind::kSequence;
    out.sequence.problems = problems;
    for (std::size_t i = 1; i < problems.size(); ++i) {
      std::optional<Problem> re;
      {
        Tracer::Scope span(&tracer, "re");
        re = round_eliminate(problems[i - 1], options);
      }
      if (!re) {
        r.failure = "RE failed at step " + std::to_string(i);
        return;
      }
      cert::SequenceStepCert step;
      RelaxationOptions map_options;
      map_options.node_budget = 0;
      map_options.threads = args_.threads;
      LabelMapResult by_map;
      {
        Tracer::Scope span(&tracer, "formalism.relax_map");
        by_map = find_relaxation_label_map(*re, problems[i], map_options);
      }
      map_nodes_ += by_map.nodes;
      if (by_map.verdict == Verdict::kYes) {
        step.label_map = by_map.map;
      } else {
        RelaxationOptions witness_options;
        witness_options.threads = args_.threads;
        WitnessResult by_witness;
        {
          Tracer::Scope span(&tracer, "formalism.relax_witness");
          by_witness = find_relaxation_witness(*re, problems[i], witness_options);
        }
        witness_nodes_ += by_witness.nodes;
        if (by_witness.verdict != Verdict::kYes) {
          r.failure = "no relaxation witness at step " + std::to_string(i);
          return;
        }
        step.config_mapping = std::move(by_witness.mapping);
      }
      step.prev_fingerprint = canonical_fingerprint(problems[i - 1]);
      step.next_fingerprint = canonical_fingerprint(problems[i]);
      step.re_fingerprint = canonical_fingerprint(*re);
      step.re_problem = std::move(*re);
      out.sequence.steps.push_back(std::move(step));
    }
    r.certificate = std::move(out);
  }

  Args args_;
  std::vector<Item> items_;
  std::vector<Result> results_;
  // Counters of the traced pass.
  REStats re_stats_;
  std::uint64_t map_nodes_ = 0;
  std::uint64_t witness_nodes_ = 0;
  discover::DiscoverStats discover_stats_;
};

}  // namespace

std::unique_ptr<Workload> make_re_chain(const Args& args) {
  return std::make_unique<ReChain>(args);
}

}  // namespace perfbench
