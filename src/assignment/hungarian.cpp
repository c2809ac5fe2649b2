#include "assignment/hungarian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace otged {

AssignmentResult SolveAssignment(const Matrix& cost) {
  OTGED_CHECK(cost.rows() == cost.cols());
  const int n = cost.rows();
  AssignmentResult res;
  res.row_to_col.assign(n, -1);
  if (n == 0) return res;

  // Shortest augmenting path with potentials (a.k.a. the "JV/Hungarian"
  // O(n^3) algorithm); 1-based sentinel formulation.
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<int> p(n + 1, 0);    // p[j]: row matched to column j (1-based)
  std::vector<int> way(n + 1, 0);
  const double inf = std::numeric_limits<double>::infinity();

  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::vector<double> minv(n + 1, inf);
    std::vector<char> used(n + 1, false);
    do {
      used[j0] = true;
      int i0 = p[j0], j1 = -1;
      double delta = inf;
      for (int j = 1; j <= n; ++j) {
        if (used[j]) continue;
        double cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      OTGED_CHECK(j1 != -1);
      for (int j = 0; j <= n; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    // Augment along the alternating path.
    do {
      int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  res.cost = 0.0;
  for (int j = 1; j <= n; ++j) {
    if (p[j] == 0) continue;
    res.row_to_col[p[j] - 1] = j - 1;
    double c = cost(p[j] - 1, j - 1);
    res.cost += c;
    if (c >= kAssignInf / 2) res.feasible = false;
  }
  return res;
}

AssignmentResult SolveAssignmentRect(const Matrix& cost) {
  const int n1 = cost.rows(), n2 = cost.cols();
  OTGED_CHECK(n1 <= n2);
  Matrix sq(n2, n2, 0.0);
  for (int i = 0; i < n1; ++i)
    for (int j = 0; j < n2; ++j) sq(i, j) = cost(i, j);
  AssignmentResult full = SolveAssignment(sq);
  AssignmentResult res;
  res.feasible = true;
  res.cost = 0.0;
  res.row_to_col.assign(n1, -1);
  for (int i = 0; i < n1; ++i) {
    res.row_to_col[i] = full.row_to_col[i];
    double c = cost(i, full.row_to_col[i]);
    res.cost += c;
    if (c >= kAssignInf / 2) res.feasible = false;
  }
  return res;
}

AssignmentResult SolveMaxWeightAssignment(const Matrix& weight) {
  // Negate and shift so all entries are finite and non-forbidden unless
  // the caller marked them with -kAssignInf.
  const int n1 = weight.rows(), n2 = weight.cols();
  Matrix cost(n1, n2);
  for (int i = 0; i < n1; ++i)
    for (int j = 0; j < n2; ++j) {
      double w = weight(i, j);
      cost(i, j) = (w <= -kAssignInf / 2) ? kAssignInf : -w;
    }
  AssignmentResult res =
      (n1 == n2) ? SolveAssignment(cost) : SolveAssignmentRect(cost);
  // Report the achieved weight.
  double total = 0.0;
  for (int i = 0; i < n1; ++i) total += weight(i, res.row_to_col[i]);
  res.cost = total;
  return res;
}

}  // namespace otged
