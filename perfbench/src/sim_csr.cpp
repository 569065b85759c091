// sim-csr: `slocal_tool simulate` end to end — generate an instance, build
// the CSR graph, run the batched simulator. The only workload on the graph
// and sim layers.
//
// Items: Luby MIS on regular:300000x4 (generation dominates; the
// configuration-model generator is superlinear), Luby MIS on
// torus:2000x2000 (generation is trivial; CSR build and rounds carry it),
// and ring colouring on cycle:1000000. The split between the two large
// instances tells a generation gain from a CSR-build or rounds gain.
//
// Set-up runs the whole pipeline on copies of the three items a tenth of
// their size, at both thread counts, so a broken pipeline fails before the
// passes spend seconds on the full instances. (At a hundredth, set-up took
// ~60 ms and varied by a third from run to run.)
//
// Oracle: MIS outputs must be independent and maximal and colourings proper
// (checked here over the CSR graph), and each instance's output fingerprint
// must equal a 1-thread run's. The 1-thread runs rerun the rounds on the
// pass's own networks, once per process, outside the timed region; their
// round times give sim.rounds_speedup_4t.
#include <algorithm>
#include <memory>
#include <optional>

#include "src/graph/generators.hpp"
#include "src/sim/algorithms.hpp"
#include "src/sim/fast/csr_network.hpp"
#include "src/util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace slocal;

enum class Kind { kRegular, kTorus, kCycle };

struct Item {
  std::string id;
  std::string tag;  // per-instance metric suffix
  Kind kind = Kind::kRegular;
  std::size_t a = 0, b = 0;  // regular: n x d; torus: w x h; cycle: n
};

struct Result {
  double ms = 0.0;
  double generate_ms = 0.0;
  double csr_build_ms = 0.0;
  double rounds_ms = 0.0;
  std::string error;
  std::unique_ptr<CsrNetwork> net;  // released once judged
  std::size_t edges = 0, half_edges = 0;
  CsrRunResult run;
  std::uint64_t fingerprint = 0;
  std::vector<std::uint8_t> in_mis;     // Luby items
  std::vector<std::uint32_t> colors;    // ring colouring
};

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  return h ^ (x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

std::uint64_t fingerprint(const CsrNetwork& net, const Result& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::size_t round : net.halt_rounds()) h = mix(h, round);
  for (const std::uint8_t bit : r.in_mis) h = mix(h, bit);
  for (const std::uint32_t c : r.colors) h = mix(h, c);
  return h;
}

class SimCsr : public Workload {
 public:
  explicit SimCsr(const Args& args) : args_(args) {}

  void setup() override {
    items_ = args_.smoke
                 ? std::vector<Item>{{"luby-mis:regular:2000x4", "regular", Kind::kRegular, 2000, 4},
                                     {"luby-mis:torus:40x40", "torus", Kind::kTorus, 40, 40},
                                     {"ring-coloring:cycle:1000", "cycle", Kind::kCycle, 1000, 0}}
                 : std::vector<Item>{
                       {"luby-mis:regular:300000x4", "regular", Kind::kRegular, 300000, 4},
                       {"luby-mis:torus:2000x2000", "torus", Kind::kTorus, 2000, 2000},
                       {"ring-coloring:cycle:1000000", "cycle", Kind::kCycle, 1000000, 0}};
    single_thread_.assign(items_.size(), {});
    results_.clear();
    setup_error_.clear();
    for (const Item& item : items_) {
      const Item small = scaled_down(item);
      Result r;
      run_item(small, r, nullptr, args_.threads);
      std::string error = r.error.empty() ? check_output(small, r) : r.error;
      if (error.empty()) {
        Result single;
        simulate(small, *r.net, 1, single, nullptr);
        if (!single.error.empty() || single.fingerprint != r.fingerprint) {
          error = "output differs from the 1-thread run";
        }
      }
      if (!error.empty() && setup_error_.empty()) setup_error_ = small.id + ": " + error;
    }
  }

  void pass(Tracer* tracer) override {
    results_.clear();  // frees the previous pass's graphs before generating
    results_.resize(items_.size());
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (tracer != nullptr) tracer->set_item(items_[i].id);
      const auto t0 = Clock::now();
      run_item(items_[i], results_[i], tracer, args_.threads);
      results_[i].ms = ms_since(t0);
    }
  }

  std::vector<ItemOutcome> judge() override {
    std::vector<ItemOutcome> out;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Result& r = results_[i];
      ItemOutcome o{items_[i].id, r.ms, false, r.error};
      if (o.detail.empty()) o.detail = check_output(items_[i], r);
      if (o.detail.empty() && !setup_error_.empty()) o.detail = "set-up run: " + setup_error_;
      out.push_back(std::move(o));
    }
    // The 1-thread references run last item first, and each network is
    // freed once judged: a reference then holds no more memory than the pass
    // held when it ran that item, so peak_rss_mb stays the passes' own.
    for (std::size_t i = items_.size(); i-- > 0;) {
      Result& r = results_[i];
      ItemOutcome& o = out[i];
      if (o.detail.empty()) {
        SingleThread& s = single_thread_[i];
        if (!s.done) {
          Result reference;
          simulate(items_[i], *r.net, 1, reference, nullptr);
          s = {true, reference.fingerprint, reference.rounds_ms, reference.error};
        }
        if (!s.error.empty()) {
          o.detail = "1-thread run: " + s.error;
        } else if (s.fingerprint != r.fingerprint) {
          o.detail = "output differs from the 1-thread run";
        }
      }
      o.ok = o.detail.empty();
      r.net.reset();
    }
    return out;
  }

  void layer_metrics(const Tracer& tracer, std::map<std::string, double>& m) override {
    double edges = 0, rounds = 0, messages = 0, half_edge_rounds = 0, one_thread_ms = 0;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Result& r = results_[i];
      if (r.half_edges == 0) continue;
      edges += static_cast<double>(r.edges);
      rounds += static_cast<double>(r.run.rounds);
      messages += static_cast<double>(r.run.messages_sent);
      half_edge_rounds += static_cast<double>(r.run.rounds) * static_cast<double>(r.half_edges);
      one_thread_ms += single_thread_[i].rounds_ms;
      m["graph.generate_ms." + items_[i].tag] = r.generate_ms;
      m["sim.csr_build_ms." + items_[i].tag] = r.csr_build_ms;
      m["sim.rounds_ms." + items_[i].tag] = r.rounds_ms;
    }
    const double rounds_ms = tracer.self_ms("sim.rounds");
    m["graph.generate_ms"] = tracer.self_ms("graph.generate");
    m["graph.edges"] = edges;
    m["sim.csr_build_ms"] = tracer.self_ms("sim.csr_build");
    m["sim.rounds_ms"] = rounds_ms;
    m["sim.rounds"] = rounds;
    m["sim.messages"] = messages;
    m["sim.half_edge_rounds_per_s"] = rounds_ms > 0 ? half_edge_rounds / (rounds_ms / 1000.0) : 0;
    m["sim.rounds_speedup_4t"] = rounds_ms > 0 ? one_thread_ms / rounds_ms : 0;
  }

  double latency_limit_ms() const override { return 60'000.0; }

  std::vector<std::string> notes() const override {
    return {"luby_seed=" + std::to_string(args_.seed),
            "regular_generator_seed=" + std::to_string(args_.seed)};
  }

 private:
  struct SingleThread {
    bool done = false;
    std::uint64_t fingerprint = 0;
    double rounds_ms = 0.0;
    std::string error;
  };

  void run_item(const Item& item, Result& r, Tracer* tracer, std::size_t threads) const {
    std::optional<CsrStreamBuilder> builder;
    auto t = Clock::now();
    {
      Tracer::Scope span(tracer, "graph.generate");
      const std::size_t n = item.kind == Kind::kTorus ? item.a * item.b : item.a;
      builder.emplace(n);
      const auto sink = [&](NodeId u, NodeId v) { builder->add_edge(u, v); };
      if (item.kind == Kind::kRegular) {
        Rng rng(args_.seed);
        if (!stream_random_regular(item.a, item.b, rng, sink)) {
          r.error = "no simple regular graph generated";
          return;
        }
      } else if (item.kind == Kind::kTorus) {
        stream_torus(item.a, item.b, sink);
      } else {
        stream_cycle(item.a, sink);
      }
    }
    r.generate_ms = ms_since(t);
    t = Clock::now();
    {
      Tracer::Scope span(tracer, "sim.csr_build");
      CsrBuildError error;
      std::optional<CsrGraph> csr = builder->finish(&error);
      if (!csr) {
        r.error = "CSR build failed: " + error.message;
        return;
      }
      r.net = std::make_unique<CsrNetwork>(std::move(*csr));
    }
    r.csr_build_ms = ms_since(t);
    r.edges = r.net->graph().edge_count();
    r.half_edges = r.net->graph().half_edge_count();
    simulate(item, *r.net, threads, r, tracer);
  }

  /// Runs the item's algorithm on `net`: round time, outputs and fingerprint
  /// go to `r`.
  void simulate(const Item& item, CsrNetwork& net, std::size_t threads, Result& r,
                Tracer* tracer) const {
    std::unique_ptr<Algorithm> algorithm;
    if (item.kind == Kind::kCycle) {
      algorithm = std::make_unique<RingColoring>();
    } else {
      algorithm = std::make_unique<LubyMis>(args_.seed);
    }
    CsrRunOptions options;
    options.threads = threads;
    const auto t = Clock::now();
    {
      Tracer::Scope span(tracer, "sim.rounds");
      r.run = net.run(*algorithm, options);
    }
    r.rounds_ms = ms_since(t);
    if (!r.run.error.empty()) {
      r.error = "run error: " + r.run.error;
      return;
    }
    if (!r.run.completed) {
      r.error = "nodes still live at the round cap";
      return;
    }
    if (const auto* luby = dynamic_cast<const LubyMis*>(algorithm.get())) {
      const std::vector<bool> bits = luby->in_mis();
      r.in_mis.assign(bits.begin(), bits.end());
    } else {
      r.colors = static_cast<const RingColoring&>(*algorithm).colors();
    }
    r.fingerprint = fingerprint(net, r);
  }

  /// The item with a tenth of its nodes (a torus keeps its height).
  static Item scaled_down(const Item& item) {
    Item small = item;
    small.a = std::max<std::size_t>(item.kind == Kind::kTorus ? 4 : 100, item.a / 10);
    small.id = "copy of " + item.id + " with " +
               std::to_string(item.kind == Kind::kTorus ? small.a * small.b : small.a) +
               " nodes";
    return small;
  }

  /// Independence + maximality for MIS, properness (3 colours) for rings.
  static std::string check_output(const Item& item, const Result& r) {
    if (!r.net) return "no network";
    const CsrGraph& g = r.net->graph();
    const std::size_t n = g.node_count();
    if (item.kind == Kind::kCycle) {
      if (r.colors.size() != n) return "colour vector has the wrong size";
      for (const Edge& e : g.edges()) {
        if (r.colors[e.u] == r.colors[e.v]) return "colouring is not proper";
      }
      for (const std::uint32_t c : r.colors) {
        if (c >= 3) return "more than 3 colours";
      }
      return "";
    }
    if (r.in_mis.size() != n) return "MIS vector has the wrong size";
    for (const Edge& e : g.edges()) {
      if (r.in_mis[e.u] != 0 && r.in_mis[e.v] != 0) return "MIS is not independent";
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (r.in_mis[v] != 0) continue;
      bool dominated = false;
      for (const NodeId u : g.neighbors(static_cast<NodeId>(v))) {
        dominated = dominated || r.in_mis[u] != 0;
      }
      if (!dominated) return "MIS is not maximal";
    }
    return "";
  }

  Args args_;
  std::vector<Item> items_;
  std::vector<Result> results_;
  std::vector<SingleThread> single_thread_;
  std::string setup_error_;  // first failure of set-up's scaled-down runs
};

}  // namespace

std::unique_ptr<Workload> make_sim_csr(const Args& args) {
  return std::make_unique<SimCsr>(args);
}

}  // namespace perfbench
