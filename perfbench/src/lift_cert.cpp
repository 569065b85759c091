// lift-cert: the Theorem 3.2 side of a lower bound — decide a lift UNSAT on
// a support, emit the DRAT-carrying certificate and check it, plus one
// incremental lift sweep over a growing gadget family. The lift, CNF
// encoding, CDCL/inprocessing and DRAT layers carry this workload; RE does
// no work here.
//
// Items: make_lift_unsat_certificate + check_certificate for
// lift_{7,7}(Π_2(0,1)) on K_{7,7} (inprocessing at its default, on), and
// run_lift_sweep of lift_{3,3}(maximal matching, Δ = 3) over gadgets
// 1..128. K_{8,8} is left out: its 5-9 s solve is so memory-bound that its
// run-to-run spread on a shared host exceeds any usable bound. K_{6,6} is
// left out too: as a third item it would make K_{7,7}, whose time swings up
// to 40% with the host's load, the median item; with two items the median
// latency is the mean of both. The
// sweep's verdicts are compared with a scratch-mode (incremental = false)
// run that set-up makes.
//
// The traced pass unrolls make_lift_unsat_certificate into
// LiftedProblem::materialize, encode_bipartite_labeling and the solve, and
// packs the certificate here (cert.emit self time = packing).
#include <optional>

#include "src/cert/check.hpp"
#include "src/cert/emit.hpp"
#include "src/graph/generators.hpp"
#include "src/lift/lift.hpp"
#include "src/lift/sweep.hpp"
#include "src/problems/classic.hpp"
#include "src/problems/matching_family.hpp"
#include "src/solver/cnf_encoding.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace slocal;

struct Item {
  std::string id;
  std::size_t d = 0;  // lift-unsat items: K_{d,d}; 0 for the sweep
  BipartiteGraph graph;
};

struct Result {
  double ms = 0.0;
  std::optional<cert::Certificate> certificate;
  bool check_valid = false;
  std::vector<Verdict> sweep_verdicts;
};

class LiftCert : public Workload {
 public:
  explicit LiftCert(const Args& args) : args_(args) {}

  void setup() override {
    matching_ = make_matching_problem(2, 0, 1);
    mm3_ = make_maximal_matching_problem(3);
    items_.clear();
    const std::size_t d = args_.smoke ? 5 : 7;
    items_.push_back({"lift:K" + std::to_string(d) + "," + std::to_string(d), d,
                      make_complete_bipartite(d, d)});
    const std::size_t gadgets = args_.smoke ? 8 : 128;
    items_.push_back({"sweep:mm3-gadgets1.." + std::to_string(gadgets), 0, {}});
    supports_ = make_gadget_supports(3, 3, 1, gadgets);
    // The oracle's reference: every support solved from scratch.
    LiftSweepOptions scratch;
    scratch.incremental = false;
    expected_sweep_.clear();
    for (const LiftSweepStep& step : run_lift_sweep(mm3_, 3, 3, supports_, scratch).steps) {
      expected_sweep_.push_back(step.verdict);
    }
  }

  void pass(Tracer* tracer) override {
    results_.assign(items_.size(), Result{});
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Item& item = items_[i];
      Result& r = results_[i];
      if (tracer != nullptr) tracer->set_item(item.id);
      const auto t0 = Clock::now();
      if (item.d == 0) {
        LiftSweepResult sweep;
        {
          Tracer::Scope span(tracer, "lift.sweep");
          sweep = run_lift_sweep(mm3_, 3, 3, supports_);
        }
        for (const LiftSweepStep& step : sweep.steps) r.sweep_verdicts.push_back(step.verdict);
        if (tracer != nullptr) {
          sweep_clauses_ += sweep.total_clauses;
          sweep_conflicts_ += sweep.total_conflicts;
        }
      } else {
        if (tracer != nullptr) {
          r.certificate = traced_lift_certificate(item, *tracer);
        } else {
          r.certificate = cert::make_lift_unsat_certificate(matching_, item.d, item.d,
                                                            item.graph);
        }
        if (r.certificate) {
          Tracer::Scope span(tracer, "cert.check");
          r.check_valid = cert::check_certificate(*r.certificate).status ==
                          cert::CertStatus::kValid;
        }
      }
      r.ms = ms_since(t0);
    }
  }

  std::vector<ItemOutcome> judge() override {
    std::vector<ItemOutcome> out;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Item& item = items_[i];
      const Result& r = results_[i];
      ItemOutcome o{item.id, r.ms, false, ""};
      if (item.d == 0) {
        o.ok = !expected_sweep_.empty() && r.sweep_verdicts == expected_sweep_;
        if (!o.ok) o.detail = "sweep verdicts differ from the scratch-mode run";
      } else if (!r.certificate) {
        o.detail = "lift not decided UNSAT";
      } else {
        o.ok = r.check_valid && r.certificate->kind == cert::CertKind::kLiftUnsat &&
               r.certificate->lift.target.empty();
        if (!o.ok) o.detail = "lift certificate did not check valid";
      }
      out.push_back(std::move(o));
    }
    return out;
  }

  void layer_metrics(const Tracer& tracer, std::map<std::string, double>& m) override {
    m["lift.materialize_ms"] = tracer.self_ms("lift.materialize");
    m["lift.sweep_ms"] = tracer.self_ms("lift.sweep");
    m["lift.sweep_clauses"] = static_cast<double>(sweep_clauses_);
    m["lift.sweep_conflicts"] = static_cast<double>(sweep_conflicts_);
    m["solver.encode_ms"] = tracer.self_ms("solver.encode");
    m["solver.clauses"] = static_cast<double>(clauses_);
    m["sat.solve_ms"] = tracer.self_ms("sat.solve");
    m["sat.conflicts"] = static_cast<double>(conflicts_);
    m["sat.propagations"] = static_cast<double>(propagations_);
    m["sat.inprocess_runs"] = static_cast<double>(sat_.inprocess_runs);
    m["sat.subsumed_clauses"] = static_cast<double>(sat_.subsumed_clauses);
    m["sat.vivified_clauses"] = static_cast<double>(sat_.vivified_clauses);
    m["sat.eliminated_vars"] = static_cast<double>(sat_.eliminated_vars);
    m["cert.emit_ms"] = tracer.self_ms("cert.emit");
    m["cert.check_ms"] = tracer.self_ms("cert.check");
    m["cert.drat_steps"] = static_cast<double>(drat_steps_);
  }

  double latency_limit_ms() const override { return 60'000.0; }

 private:
  /// make_lift_unsat_certificate, unrolled into the public calls it makes.
  std::optional<cert::Certificate> traced_lift_certificate(const Item& item,
                                                           Tracer& tracer) {
    Tracer::Scope emit(&tracer, "cert.emit");
    std::optional<Problem> psi;
    {
      Tracer::Scope span(&tracer, "lift.materialize");
      const LiftedProblem lift(matching_, item.d, item.d);
      psi = lift.materialize();
    }
    if (!psi) return std::nullopt;
    std::optional<LabelingCnf> cnf;
    {
      Tracer::Scope span(&tracer, "solver.encode");
      cnf = encode_bipartite_labeling(item.graph, *psi, nullptr, /*log_proof=*/true,
                                      /*inprocessing=*/true);
    }
    if (!cnf) return std::nullopt;
    SatResult verdict = SatResult::kUnknown;
    {
      Tracer::Scope span(&tracer, "sat.solve");
      verdict = cnf->solver.solve();
    }
    const SatSolver& solver = cnf->solver;
    clauses_ += cnf->clause_count;
    conflicts_ += solver.conflicts();
    propagations_ += solver.propagations();
    sat_.inprocess_runs += solver.stats().inprocess_runs;
    sat_.subsumed_clauses += solver.stats().subsumed_clauses;
    sat_.vivified_clauses += solver.stats().vivified_clauses;
    sat_.eliminated_vars += solver.stats().eliminated_vars;
    drat_steps_ += solver.proof().steps.size();
    if (verdict != SatResult::kUnsat) return std::nullopt;

    cert::Certificate out;
    out.kind = cert::CertKind::kLiftUnsat;
    cert::LiftUnsatCert& lift = out.lift;
    lift.problem = matching_;
    lift.big_delta = item.d;
    lift.big_r = item.d;
    lift.white_count = item.graph.white_count();
    lift.black_count = item.graph.black_count();
    for (const BiEdge& e : item.graph.edges()) lift.edges.emplace_back(e.white, e.black);
    lift.num_vars = solver.var_count();
    lift.proof.input_clauses = solver.proof().input_clauses;
    for (const SatProof::Step& step : solver.proof().steps) {
      lift.proof.steps.push_back(cert::DratStep{step.is_delete, step.lits});
    }
    lift.cnf_hash = cert::lift_cnf_hash(lift.num_vars, lift.proof.input_clauses);
    return out;
  }

  Args args_;
  Problem matching_;
  Problem mm3_;
  std::vector<Item> items_;
  std::vector<BipartiteGraph> supports_;
  std::vector<Verdict> expected_sweep_;
  std::vector<Result> results_;
  // Counters of the traced pass.
  std::uint64_t sweep_clauses_ = 0;
  std::uint64_t sweep_conflicts_ = 0;
  std::uint64_t clauses_ = 0;
  std::uint64_t conflicts_ = 0;
  std::uint64_t propagations_ = 0;
  std::uint64_t drat_steps_ = 0;
  SatStats sat_;
};

}  // namespace

std::unique_ptr<Workload> make_lift_cert(const Args& args) {
  return std::make_unique<LiftCert>(args);
}

}  // namespace perfbench
