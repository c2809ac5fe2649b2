/// \file simd_kernels_test.cpp
/// \brief Scalar/SIMD twin equivalence for every vectorized kernel, swept
/// over sizes 3..64 so lane remainders (non-multiples of the vector
/// width) are exercised on both sides of every block boundary.
///
/// The public entry points always run the SIMD twin; the scalar twin is
/// the reference. The contract split mirrors src/core/simd.hpp: LAPJV
/// (whose vector body preserves the scalar association and first-index
/// tie-breaks) must match BIT FOR BIT; the reassociated float kernels
/// (Sinkhorn plain/log, GW tensor product) to a bounded relative
/// tolerance. The degree-sequence bound, which has one implementation,
/// is checked against the zero-padded formula it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "assignment/hungarian.hpp"
#include "assignment/lapjv.hpp"
#include "core/random.hpp"
#include "graph/generator.hpp"
#include "ot/gromov.hpp"
#include "ot/sinkhorn.hpp"
#include "search/graph_store.hpp"

namespace otged {
namespace {

/// Bounded-ulp tolerance for the reassociated float kernels (vector
/// HSum order + the ~1 ulp vector exp, accumulated over <= 64 lanes).
constexpr double kUlpTol = 1e-9;

Matrix RandomCost(int r, int c, uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (int i = 0; i < m.size(); ++i) m[i] = rng.Uniform(0, 1);
  return m;
}

/// Relative difference scaled to the larger magnitude (>= 1, so values
/// near zero are compared absolutely).
double RelDiff(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) / scale;
}

void ExpectClose(const Matrix& a, const Matrix& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int i = 0; i < a.size(); ++i)
    ASSERT_LE(RelDiff(a[i], b[i]), kUlpTol) << what << " entry " << i;
}

void ExpectSameMatrix(const Matrix& a, const Matrix& b,
                      const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << what << " entry " << i;  // bit-equal
}

void ExpectSameAssignment(const AssignmentResult& a, const AssignmentResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.cost, b.cost) << what;          // bit-equal, not near
  EXPECT_EQ(a.row_to_col, b.row_to_col) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
}

TEST(SimdTwinTest, LapjvTwinsBitIdentical) {
  for (int n = 3; n <= 64; ++n) {
    const uint64_t s = static_cast<uint64_t>(n);
    Matrix cost = RandomCost(n, n, 10 + s);
    ExpectSameAssignment(detail::SolveAssignmentJVScalar(cost),
                         detail::SolveAssignmentJVSimd(cost),
                         "lapjv n=" + std::to_string(n));
    // Ties force the first-index tie-break through the vector min scans.
    Matrix tied(n, n);
    Rng trng(70 + s);
    for (int i = 0; i < tied.size(); ++i)
      tied[i] = static_cast<double>(trng.UniformInt(0, 3));
    ExpectSameAssignment(detail::SolveAssignmentJVScalar(tied),
                         detail::SolveAssignmentJVSimd(tied),
                         "lapjv tied n=" + std::to_string(n));
    // Forbidden entries exercise the masked scans.
    Matrix masked = RandomCost(n, n, 40 + s);
    Rng mrng(50 + s);
    for (int i = 0; i < masked.size(); ++i)
      if (mrng.UniformInt(0, 4) == 0) masked[i] = kAssignInf;
    ExpectSameAssignment(detail::SolveAssignmentJVScalar(masked),
                         detail::SolveAssignmentJVSimd(masked),
                         "lapjv masked n=" + std::to_string(n));
  }
}

TEST(SimdTwinTest, SinkhornTwinsBoundedUlp) {
  for (int n = 3; n <= 64; ++n) {
    const uint64_t s = static_cast<uint64_t>(n);
    Matrix cost = RandomCost(n, n, 100 + s);
    Matrix mu = Matrix::ColVec(n, 1.0), nu = Matrix::ColVec(n, 1.0);
    SinkhornOptions opt;
    opt.max_iters = 25;
    const SinkhornResult ps = detail::SinkhornPlainScalar(cost, mu, nu, opt);
    const SinkhornResult pv = detail::SinkhornPlainSimd(cost, mu, nu, opt);
    ASSERT_LE(RelDiff(ps.cost, pv.cost), kUlpTol) << "plain n=" << n;
    ExpectClose(ps.coupling, pv.coupling, "plain n=" + std::to_string(n));
    opt.log_domain = true;
    const SinkhornResult ls = detail::SinkhornLogScalar(cost, mu, nu, opt);
    const SinkhornResult lv = detail::SinkhornLogSimd(cost, mu, nu, opt);
    ASSERT_LE(RelDiff(ls.cost, lv.cost), kUlpTol) << "log n=" << n;
    ExpectClose(ls.coupling, lv.coupling, "log n=" + std::to_string(n));
  }
}

TEST(SimdTwinTest, GwTensorTwinsBoundedUlp) {
  for (int n = 3; n <= 64; n += (n < 16 ? 1 : 7)) {
    const uint64_t s = static_cast<uint64_t>(n);
    Rng rng(200 + s);
    Graph g1 = PowerLawGraph(n, 2, &rng);
    Graph g2 = PowerLawGraph(n, 2, &rng);
    Matrix a1 = g1.AdjacencyMatrix(), a2 = g2.AdjacencyMatrix();
    Matrix pi = RandomCost(n, n, 300 + s);
    ExpectClose(detail::GwTensorProductScalar(a1, a2, pi),
                detail::GwTensorProductSimd(a1, a2, pi),
                "gw n=" + std::to_string(n));
    // Edge-labeled variant: per-class indicators from labeled graphs.
    Graph l1 = AidsLikeGraph(&rng, std::max(3, n / 2), n);
    Graph l2 = AidsLikeGraph(&rng, std::max(3, n / 2), n);
    const int padded = std::max(l1.NumNodes(), l2.NumNodes());
    std::vector<Label> alphabet = l1.EdgeLabelAlphabet();
    for (Label l : l2.EdgeLabelAlphabet()) alphabet.push_back(l);
    std::sort(alphabet.begin(), alphabet.end());
    alphabet.erase(std::unique(alphabet.begin(), alphabet.end()),
                   alphabet.end());
    const std::vector<Matrix> c1 = EdgeClassMatrices(l1, padded, alphabet);
    const std::vector<Matrix> c2 = EdgeClassMatrices(l2, padded, alphabet);
    Matrix lpi = RandomCost(padded, padded, 400 + s);
    ExpectClose(detail::GwTensorProductClassesScalar(c1, c2, lpi),
                detail::GwTensorProductClassesSimd(c1, c2, lpi),
                "gw classes n=" + std::to_string(n));
  }
}

/// The zero-padded formula DegreeSequenceEdgeBound replaced: both
/// ascending sequences padded with zeros at the front to equal length,
/// then ceil(L1 / 2).
int PaddedDegreeBound(const std::vector<int>& a, const std::vector<int>& b) {
  const size_t n = std::max(a.size(), b.size());
  const size_t pad_a = n - a.size(), pad_b = n - b.size();
  long l1 = 0;
  for (size_t i = 0; i < n; ++i) {
    const int da = i < pad_a ? 0 : a[i - pad_a];
    const int db = i < pad_b ? 0 : b[i - pad_b];
    l1 += std::abs(da - db);
  }
  return static_cast<int>((l1 + 1) / 2);
}

TEST(DegreeBoundTest, MatchesZeroPaddedReference) {
  for (int n = 0; n <= 64; ++n) {
    const uint64_t s = static_cast<uint64_t>(n);
    Rng rng(600 + s);
    std::vector<int> a(static_cast<size_t>(n));
    std::vector<int> b(static_cast<size_t>(rng.UniformInt(0, n + 5)));
    for (int& d : a) d = rng.UniformInt(0, 12);
    for (int& d : b) d = rng.UniformInt(0, 12);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(DegreeSequenceEdgeBound(a, b), PaddedDegreeBound(a, b))
        << "n=" << n;
    // Either argument may be the shorter one.
    EXPECT_EQ(DegreeSequenceEdgeBound(b, a), PaddedDegreeBound(a, b))
        << "swapped n=" << n;
  }
}

TEST(SimdTwinTest, PublicEntryPointsRunVectorKernels) {
  const int n = 17;
  Matrix cost = RandomCost(n, n, 7);
  ExpectSameAssignment(SolveAssignmentJV(cost),
                       detail::SolveAssignmentJVSimd(cost), "lapjv");

  Matrix mu = Matrix::ColVec(n, 1.0), nu = Matrix::ColVec(n, 1.0);
  SinkhornOptions sopt;
  sopt.max_iters = 15;
  for (bool log_domain : {false, true}) {
    sopt.log_domain = log_domain;
    const SinkhornResult twin =
        log_domain ? detail::SinkhornLogSimd(cost, mu, nu, sopt)
                   : detail::SinkhornPlainSimd(cost, mu, nu, sopt);
    const SinkhornResult pub = Sinkhorn(cost, mu, nu, sopt);
    EXPECT_EQ(pub.cost, twin.cost) << "log_domain=" << log_domain;
    EXPECT_EQ(pub.iters, twin.iters) << "log_domain=" << log_domain;
    ExpectSameMatrix(pub.coupling, twin.coupling, "sinkhorn coupling");
  }

  Rng rng(8);
  const Matrix a1 = PowerLawGraph(n, 2, &rng).AdjacencyMatrix();
  const Matrix a2 = PowerLawGraph(n, 2, &rng).AdjacencyMatrix();
  const Matrix pi = RandomCost(n, n, 9);
  ExpectSameMatrix(GwTensorProduct(a1, a2, pi),
                   detail::GwTensorProductSimd(a1, a2, pi), "gw");
  const std::vector<Matrix> c1 = {a1}, c2 = {a2};
  ExpectSameMatrix(GwTensorProductClasses(c1, c2, pi),
                   detail::GwTensorProductClassesSimd(c1, c2, pi),
                   "gw classes");
}

}  // namespace
}  // namespace otged
