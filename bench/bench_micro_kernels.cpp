/// \file bench_micro_kernels.cpp
/// \brief Microbenchmarks of the numeric kernels that dominate the
/// paper's complexity analysis (Section 5.3): the Sinkhorn sweep
/// (O(M n^2)), the Hungarian LAP (O(n^3)), the Jonker-Volgenant LAP,
/// the GW tensor product (O(n^3)), conditional gradient, the exact
/// searchers — and the branch-and-bound state machinery: the legacy
/// copy-and-recompute SearchState walk vs the structure-of-arrays
/// Push/Pop walk with the O(1) incremental heuristic, the cost of one
/// branch-and-bound expansion on a budget-exhausting power-law pair
/// (`bnb_expand_powerlaw`, ns per expansion), and the time to decide one
/// tau-thresholded range pair (`bnb_prove_threshold`, ns per decision).
///
/// The vectorized kernels are benchmarked through their public entry
/// points (which honor OTGED_SIMD) and next to their always-compiled
/// scalar twins (`*_scalar_*` kernels), so one record carries the
/// before/after of the SIMD layer. A correctness gate re-runs every
/// scalar/SIMD twin pair over a size sweep that straddles the lane
/// width: integer kernels (Hungarian, LAPJV, WL colors, degree bound)
/// must match bit for bit, reassociated float kernels (Sinkhorn, GW
/// tensor) to a bounded relative tolerance. Any gate failure makes the
/// run exit nonzero.
///
/// A plain executable (no google-benchmark dependency): each kernel is
/// timed until a minimum wall budget and reported as ns/op, and the run
/// is persisted as `BENCH_kernels.json` (schema in
/// tools/validate_bench_json.py) so the kernel-level perf trajectory
/// accumulates in git history next to BENCH_search.json.
///
/// Flags: --smoke  shrink sizes/iterations for CI smoke runs
///        --out P  write the record to P (default BENCH_kernels.json)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <limits>
#include <string>
#include <vector>

#include "assignment/hungarian.hpp"
#include "assignment/lapjv.hpp"
#include "core/random.hpp"
#include "core/simd.hpp"
#include "exact/astar.hpp"
#include "exact/branch_and_bound.hpp"
#include "exact/search_common.hpp"
#include "graph/generator.hpp"
#include "graph/wl_hash.hpp"
#include "heuristics/bipartite.hpp"
#include "models/gedgw.hpp"
#include "ot/gromov.hpp"
#include "ot/sinkhorn.hpp"
#include "search/graph_store.hpp"
#include "telemetry/bench_report.hpp"

using namespace otged;

namespace {

/// Keeps a computed value alive without printing it (DCE barrier).
template <class T>
inline void Keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

struct KernelTiming {
  std::string name;
  double ns_per_op = 0.0;
  long ops = 0;
};

/// Runs `body` repeatedly until `min_ms` of wall time (or an iteration
/// cap) and reports the mean ns per call. One untimed warmup call keeps
/// first-touch page faults and lazy allocations out of the figure.
template <class F>
KernelTiming TimeKernel(const std::string& name, F&& body, double min_ms) {
  body();
  const auto start = std::chrono::steady_clock::now();
  long iters = 0;
  double total_ns = 0.0;
  do {
    body();
    ++iters;
    total_ns = std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  } while (total_ns < min_ms * 1e6 && iters < 1'000'000);
  KernelTiming t;
  t.name = name;
  t.ns_per_op = total_ns / static_cast<double>(iters);
  t.ops = iters;
  return t;
}

Matrix RandomCost(int r, int c, uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (int i = 0; i < m.size(); ++i) m[i] = rng.Uniform(0, 1);
  return m;
}

/// Relative difference scaled to the larger magnitude (>= 1 so values
/// near zero are compared absolutely).
double RelDiff(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) / scale;
}

/// Entrywise RelDiff bound over two same-shape matrices.
bool MatricesClose(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int i = 0; i < a.size(); ++i)
    if (RelDiff(a[i], b[i]) > tol) return false;
  return true;
}

bool SameAssignment(const AssignmentResult& a, const AssignmentResult& b) {
  return a.cost == b.cost && a.row_to_col == b.row_to_col &&
         a.feasible == b.feasible;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_kernels.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) smoke = true;
    else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc)
      out_path = argv[++a];
  }
  const double min_ms = smoke ? 5.0 : 50.0;
  std::vector<KernelTiming> timings;
  const auto report = [&](const KernelTiming& t) {
    timings.push_back(t);
    std::printf("  %-28s %12.1f ns/op  (%ld ops)\n", t.name.c_str(),
                t.ns_per_op, t.ops);
  };

  std::printf("== numeric kernels ==\n");
  const std::vector<int> sizes = smoke ? std::vector<int>{10}
                                       : std::vector<int>{10, 50, 200};
  for (int n : sizes) {
    Matrix cost = RandomCost(n, n, 1);
    Matrix mu = Matrix::ColVec(n, 1.0), nu = Matrix::ColVec(n, 1.0);
    SinkhornOptions sopt;
    sopt.max_iters = 20;
    report(TimeKernel(
        "sinkhorn_n" + std::to_string(n),
        [&] { Keep(Sinkhorn(cost, mu, nu, sopt).cost); }, min_ms));
    report(TimeKernel(
        "sinkhorn_scalar_n" + std::to_string(n),
        [&] { Keep(detail::SinkhornPlainScalar(cost, mu, nu, sopt).cost); },
        min_ms));
    Matrix hcost = RandomCost(n, n, 2);
    report(TimeKernel("hungarian_n" + std::to_string(n),
                      [&] { Keep(SolveAssignment(hcost).cost); }, min_ms));
    report(TimeKernel(
        "hungarian_scalar_n" + std::to_string(n),
        [&] { Keep(detail::SolveAssignmentScalar(hcost).cost); }, min_ms));
    Matrix jcost = RandomCost(n, n, 3);
    report(TimeKernel("lapjv_n" + std::to_string(n),
                      [&] { Keep(SolveAssignmentJV(jcost).cost); },
                      min_ms));
    report(TimeKernel(
        "lapjv_scalar_n" + std::to_string(n),
        [&] { Keep(detail::SolveAssignmentJVScalar(jcost).cost); }, min_ms));
    Rng grng(4);
    Graph pg1 = PowerLawGraph(n, 2, &grng), pg2 = PowerLawGraph(n, 2, &grng);
    Matrix a1 = pg1.AdjacencyMatrix(), a2 = pg2.AdjacencyMatrix();
    Matrix pi(n, n, 1.0 / n);
    report(TimeKernel("gw_tensor_n" + std::to_string(n),
                      [&] { Keep(GwTensorProduct(a1, a2, pi).Sum()); },
                      min_ms));
    report(TimeKernel(
        "gw_tensor_scalar_n" + std::to_string(n),
        [&] { Keep(detail::GwTensorProductScalar(a1, a2, pi).Sum()); },
        min_ms));
  }
  {
    const int n = smoke ? 10 : 30;
    Rng rng(5);
    Graph g = PowerLawGraph(n, 2, &rng);
    SyntheticEditOptions eopt;
    eopt.num_edits = 5;
    eopt.num_labels = 1;
    eopt.allow_relabel = false;
    GedPair pair = SyntheticEditPair(g, eopt, &rng);
    GedgwSolver solver;
    report(TimeKernel("gedgw_solve_n" + std::to_string(n),
                      [&] { Keep(solver.Predict(pair.g1, pair.g2).ged); },
                      min_ms));
  }

  // Scalar/SIMD twin gate: the same inputs through both paths of every
  // vectorized kernel, over sizes that straddle the lane width (odd,
  // prime, sub-lane and multi-block). Integer kernels must agree bit for
  // bit; the reassociated float kernels to a bounded relative tolerance.
  std::printf("== scalar vs simd twin gate (lanes=%d, isa=%s) ==\n",
              simd::kDoubleLanes, simd::kIsaName);
  bool twins_ok = true;
  {
    constexpr double kUlpTol = 1e-9;
    bool ok_hung = true, ok_lapjv = true, ok_sink = true, ok_gw = true,
         ok_wl = true, ok_deg = true;
    for (int n : {3, 5, 8, 13, 33}) {
      const uint64_t s = static_cast<uint64_t>(n);
      Matrix c = RandomCost(n, n, 100 + s);
      ok_hung = ok_hung && SameAssignment(detail::SolveAssignmentScalar(c),
                                          detail::SolveAssignmentSimd(c));
      ok_lapjv = ok_lapjv &&
                 SameAssignment(detail::SolveAssignmentJVScalar(c),
                                detail::SolveAssignmentJVSimd(c));
      Matrix mu = Matrix::ColVec(n, 1.0), nu = Matrix::ColVec(n, 1.0);
      SinkhornOptions sopt;
      sopt.max_iters = 20;
      const SinkhornResult ps = detail::SinkhornPlainScalar(c, mu, nu, sopt);
      const SinkhornResult pv = detail::SinkhornPlainSimd(c, mu, nu, sopt);
      ok_sink = ok_sink && RelDiff(ps.cost, pv.cost) <= kUlpTol &&
                MatricesClose(ps.coupling, pv.coupling, kUlpTol);
      sopt.log_domain = true;
      const SinkhornResult ls = detail::SinkhornLogScalar(c, mu, nu, sopt);
      const SinkhornResult lv = detail::SinkhornLogSimd(c, mu, nu, sopt);
      ok_sink = ok_sink && RelDiff(ls.cost, lv.cost) <= kUlpTol &&
                MatricesClose(ls.coupling, lv.coupling, kUlpTol);
      Rng grng(200 + s);
      Graph tg1 = PowerLawGraph(n, 2, &grng);
      Graph tg2 = PowerLawGraph(n, 2, &grng);
      Matrix a1 = tg1.AdjacencyMatrix(), a2 = tg2.AdjacencyMatrix();
      Matrix pi(n, n, 1.0 / n);
      ok_gw = ok_gw && MatricesClose(detail::GwTensorProductScalar(a1, a2, pi),
                                     detail::GwTensorProductSimd(a1, a2, pi),
                                     kUlpTol);
      ok_wl = ok_wl && detail::RefinedColorsScalar(tg1, 3) ==
                           detail::RefinedColorsSimd(tg1, 3);
      Rng drng(300 + s);
      std::vector<int> da(static_cast<size_t>(n)),
          db(static_cast<size_t>(n) + 3);
      for (int& d : da) d = static_cast<int>(drng.Uniform(0, 9));
      for (int& d : db) d = static_cast<int>(drng.Uniform(0, 9));
      std::sort(da.begin(), da.end());
      std::sort(db.begin(), db.end());
      ok_deg = ok_deg && detail::DegreeSequenceEdgeBoundScalar(da, db) ==
                             detail::DegreeSequenceEdgeBoundSimd(da, db);
    }
    const auto gate = [&](const char* name, bool ok) {
      std::printf("  %-28s [%s]\n", name, ok ? "PASS" : "FAIL");
      twins_ok = twins_ok && ok;
    };
    gate("hungarian (bit-equal)", ok_hung);
    gate("lapjv (bit-equal)", ok_lapjv);
    gate("sinkhorn (<=1e-9 rel)", ok_sink);
    gate("gw_tensor (<=1e-9 rel)", ok_gw);
    gate("wl_colors (bit-equal)", ok_wl);
    gate("degree_bound (bit-equal)", ok_deg);
  }

  std::printf("== exact searchers ==\n");
  {
    Rng rng(6);
    Graph g = AidsLikeGraph(&rng, 6, 8);
    SyntheticEditOptions eopt;
    eopt.num_edits = 3;
    eopt.num_labels = 29;
    GedPair pair = SyntheticEditPair(g, eopt, &rng);
    report(TimeKernel("astar_exact_small",
                      [&] { Keep(AstarGed(pair.g1, pair.g2)->ged); },
                      min_ms));
  }
  {
    Rng rng(7);
    Graph g = ImdbLikeGraph(&rng, 12, 16);
    SyntheticEditOptions eopt;
    eopt.num_edits = 5;
    eopt.num_labels = 1;
    eopt.allow_relabel = false;
    GedPair pair = SyntheticEditPair(g, eopt, &rng);
    report(TimeKernel("beam_search_w16",
                      [&] { Keep(BeamGed(pair.g1, pair.g2, 16).ged); },
                      min_ms));
  }

  // One root-to-leaf walk, legacy vs SoA: Child copies the state and
  // recomputes the O(n + m) heuristic at every depth; Push/Pop maintain
  // everything incrementally with an O(1) heuristic read. The ratio is
  // the per-node saving the branch-and-bound rewrite banks.
  std::printf("== branch-and-bound state machinery ==\n");
  {
    Rng rng(8);
    Graph a = AidsLikeGraph(&rng, 8, 10);
    Graph b = AidsLikeGraph(&rng, 10, 12);
    if (a.NumNodes() > b.NumNodes()) std::swap(a, b);
    internal::Searcher searcher(a, b);
    const int n1 = searcher.ctx().n1;
    // Fixed cheapest-first path, chosen once so both walks are identical.
    std::vector<int> path;
    {
      internal::DfsState d = searcher.MakeDfs();
      std::vector<int> kids;
      for (int depth = 0; depth < n1; ++depth) {
        searcher.RankChildren(d, std::numeric_limits<int>::max(), &kids);
        const int v = internal::Searcher::KeyNode(kids.front());
        path.push_back(v);
        searcher.Push(&d, v, internal::Searcher::KeyDelta(kids.front()));
      }
    }
    report(TimeKernel(
        "state_walk_legacy_child",
        [&] {
          internal::SearchState s = searcher.Root();
          for (int v : path) s = searcher.Child(s, v);
          Keep(s.f());
        },
        min_ms));
    report(TimeKernel(
        "state_walk_soa_push_pop",
        [&] {
          internal::DfsState d = searcher.MakeDfs();
          int f = 0;
          for (int v : path) {
            searcher.Push(&d, v, searcher.DeltaFast(d, v));
            f = d.g + searcher.HeuristicOf(d);
          }
          for (int depth = 0; depth < n1; ++depth) searcher.Pop(&d);
          Keep(f);
        },
        min_ms));
  }

  // ns per expansion of the sequential branch and bound, child ranking
  // included: one fixed unlabeled power-law pair whose tree outlasts the
  // budget, so every call expands exactly `budget` nodes (gated).
  bool bnb_exhausted = true;
  {
    Rng rng(10);
    const Graph a = PowerLawGraph(20, 2, &rng);
    const Graph b = PowerLawGraph(24, 2, &rng);
    BnbOptions opt;
    opt.max_visits = smoke ? 20'000 : 200'000;
    KernelTiming t = TimeKernel(
        "bnb_expand_powerlaw",
        [&] {
          const GedSearchResult r = BranchAndBoundGed(a, b, opt);
          bnb_exhausted = bnb_exhausted && !r.exact &&
                          r.expansions == opt.max_visits;
          Keep(r.ged);
        },
        min_ms);
    t.ns_per_op /= static_cast<double>(opt.max_visits);
    t.ops *= opt.max_visits;
    report(t);
    std::printf("  bnb_expand_powerlaw exhausts its budget: [%s]\n",
                bnb_exhausted ? "PASS" : "FAIL");
  }

  // Time to decide one range-read pair at tier 4: a fixed 5-edit
  // perturbation of a 22-node power-law graph, seeded with its Classic
  // bound and thresholded at tau = 4 under the serving budget, the way a
  // hard-range read calls the solver. The search must finish — prove
  // GED <= tau or GED > tau — within the budget (gated).
  bool bnb_proved = true;
  {
    Rng rng(1);
    const Graph a = PowerLawGraph(22, 2, &rng);
    SyntheticEditOptions eopt;
    eopt.num_edits = 5;
    eopt.allow_relabel = false;
    const GedPair pair = SyntheticEditPair(a, eopt, &rng);
    BnbOptions opt;
    opt.max_visits = 200'000;
    opt.initial_upper_bound = ClassicGed(pair.g1, pair.g2).ged;
    opt.threshold = 4;
    report(TimeKernel(
        "bnb_prove_threshold",
        [&] {
          const GedSearchResult r = BranchAndBoundGed(pair.g1, pair.g2, opt);
          bnb_proved = bnb_proved && (r.exact || r.above_threshold);
          Keep(r.ged);
        },
        min_ms));
    std::printf("  bnb_prove_threshold completes within its budget: [%s]\n",
                bnb_proved ? "PASS" : "FAIL");
  }

  // ---------------------------------------------------------- the record
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("FAILED to open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_micro_kernels\",\n");
  std::fprintf(f, "  \"git_rev\": \"%s\",\n",
               JsonEscape(telemetry::GitRevision()).c_str());
  std::fprintf(f, "  \"timestamp\": %lld,\n",
               static_cast<long long>(std::time(nullptr)));
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"simd_isa\": \"%s\",\n", simd::kIsaName);
  std::fprintf(f, "  \"simd_lanes\": %d,\n", simd::ActiveDoubleLanes());
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < timings.size(); ++i)
    std::fprintf(f, "    {\"name\": \"%s\", \"ns_per_op\": %.1f, "
                 "\"ops\": %ld}%s\n",
                 JsonEscape(timings[i].name).c_str(), timings[i].ns_per_op,
                 timings[i].ops, i + 1 < timings.size() ? "," : "");
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"twins_equal\": %s\n", twins_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("kernel record written to %s\n", out_path.c_str());
  return twins_ok && bnb_exhausted && bnb_proved ? 0 : 1;
}
