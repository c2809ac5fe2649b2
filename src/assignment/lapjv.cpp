#include "assignment/lapjv.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/simd.hpp"

namespace otged {

namespace detail {

AssignmentResult SolveAssignmentJVScalar(const Matrix& cost) {
  OTGED_CHECK(cost.rows() == cost.cols());
  const int n = cost.rows();
  AssignmentResult res;
  res.row_to_col.assign(n, -1);
  if (n == 0) return res;

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<int> rowsol(n, -1), colsol(n, -1);
  std::vector<double> v(n, 0.0);

  // --- Column reduction (scan columns right-to-left). ---
  for (int j = n - 1; j >= 0; --j) {
    double minc = cost(0, j);
    int imin = 0;
    for (int i = 1; i < n; ++i) {
      if (cost(i, j) < minc) {
        minc = cost(i, j);
        imin = i;
      }
    }
    v[j] = minc;
    if (rowsol[imin] == -1) {
      rowsol[imin] = j;
      colsol[j] = imin;
    }
  }

  // --- Reduction transfer for assigned rows. ---
  std::vector<int> free_rows;
  for (int i = 0; i < n; ++i) {
    if (rowsol[i] == -1) {
      free_rows.push_back(i);
    } else {
      int j1 = rowsol[i];
      double minv = inf;
      for (int j = 0; j < n; ++j) {
        if (j != j1) minv = std::min(minv, cost(i, j) - v[j]);
      }
      if (minv < inf) v[j1] -= minv;
    }
  }

  // --- Augmenting row reduction (two passes). ---
  for (int pass = 0; pass < 2 && !free_rows.empty(); ++pass) {
    std::vector<int> next_free;
    size_t k = 0;
    while (k < free_rows.size()) {
      int i = free_rows[k++];
      // Find the two smallest reduced costs in row i.
      double u1 = inf, u2 = inf;
      int j1 = -1, j2 = -1;
      for (int j = 0; j < n; ++j) {
        double h = cost(i, j) - v[j];
        if (h < u1) {
          u2 = u1;
          j2 = j1;
          u1 = h;
          j1 = j;
        } else if (h < u2) {
          u2 = h;
          j2 = j;
        }
      }
      int i0 = colsol[j1];
      if (u1 < u2) {
        v[j1] -= u2 - u1;
      } else if (i0 >= 0 && j2 >= 0) {
        j1 = j2;
        i0 = colsol[j1];
      }
      rowsol[i] = j1;
      colsol[j1] = i;
      if (i0 >= 0) {
        rowsol[i0] = -1;
        if (u1 < u2) {
          // i0 goes to the head of the queue (retry immediately).
          free_rows[--k] = i0;
        } else {
          next_free.push_back(i0);
        }
      }
    }
    free_rows = next_free;
  }

  // --- Augmentation: Dijkstra-like shortest alternating paths. ---
  for (int f : free_rows) {
    std::vector<double> d(n);
    std::vector<int> pred(n, f);
    std::vector<char> done(n, false);
    for (int j = 0; j < n; ++j) d[j] = cost(f, j) - v[j];
    int endofpath = -1;
    double mind = 0.0;
    std::vector<int> scanned;
    while (endofpath == -1) {
      // Pick the unscanned column with minimal d.
      mind = inf;
      int jmin = -1;
      for (int j = 0; j < n; ++j) {
        if (!done[j] && d[j] < mind) {
          mind = d[j];
          jmin = j;
        }
      }
      OTGED_CHECK(jmin != -1);
      done[jmin] = true;
      scanned.push_back(jmin);
      if (colsol[jmin] == -1) {
        endofpath = jmin;
      } else {
        int i = colsol[jmin];
        for (int j = 0; j < n; ++j) {
          if (done[j]) continue;
          double alt = mind + cost(i, j) - v[j] - (cost(i, jmin) - v[jmin]);
          if (alt < d[j]) {
            d[j] = alt;
            pred[j] = i;
          }
        }
      }
    }
    for (int j : scanned) v[j] += d[j] - mind;
    // Backtrack the augmenting path.
    int j = endofpath;
    while (true) {
      int i = pred[j];
      colsol[j] = i;
      std::swap(rowsol[i], j);
      if (i == f) break;
    }
  }

  res.cost = 0.0;
  for (int i = 0; i < n; ++i) {
    res.row_to_col[i] = rowsol[i];
    double c = cost(i, rowsol[i]);
    res.cost += c;
    if (c >= kAssignInf / 2) res.feasible = false;
  }
  return res;
}

// Same four phases with every O(n) scan vectorized; all lane arithmetic
// keeps the scalar association (cost - v, then ((mind + c) - v) - h0), so
// reduced costs are bit-equal and every tie resolves to the same index
// the sequential scan keeps (see MinFirstIndexMasked). Column-"done"
// state for masked scans lives in +inf/0.0 `excl` arrays, whose exact
// adds leave live values untouched.
AssignmentResult SolveAssignmentJVSimd(const Matrix& cost) {
  OTGED_CHECK(cost.rows() == cost.cols());
  const int n = cost.rows();
  AssignmentResult res;
  res.row_to_col.assign(n, -1);
  if (n == 0) return res;

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<int> rowsol(n, -1), colsol(n, -1);
  std::vector<double> v(n, 0.0);
  std::vector<double> hbuf(n);
  const double* cdata = cost.data();
  constexpr int L = simd::kDoubleLanes;

  // Reduced costs of row i into hbuf (exact scalar association), folding
  // the two smallest values of the row (counting duplicate minima) in the
  // same pass. Two independent accumulator pairs break the loop-carried
  // blend chain. Per-lane (min, second-min) pairs combine associatively,
  // so (u1, u2) match the sequential scan's values exactly.
  auto reduce_row_two_min = [&](int i, double& u1, double& u2) {
    const double* row = cdata + static_cast<size_t>(i) * n;
    u1 = inf;
    u2 = inf;
    int t = 0;
    if constexpr (L > 1) {
      if (n >= 2 * L) {
        simd::VecD b1a = simd::VecD::Broadcast(inf), b2a = b1a;
        simd::VecD b1b = b1a, b2b = b1a;
        for (; t + 2 * L <= n; t += 2 * L) {
          simd::VecD ha =
              simd::VecD::Load(row + t) - simd::VecD::Load(v.data() + t);
          simd::VecD hb = simd::VecD::Load(row + t + L) -
                          simd::VecD::Load(v.data() + t + L);
          ha.Store(hbuf.data() + t);
          hb.Store(hbuf.data() + t + L);
          simd::MaskD ma = simd::CmpLt(ha, b1a);
          simd::MaskD mb = simd::CmpLt(hb, b1b);
          b2a = simd::Min(b2a, simd::Blend(ma, b1a, ha));
          b2b = simd::Min(b2b, simd::Blend(mb, b1b, hb));
          b1a = simd::Blend(ma, ha, b1a);
          b1b = simd::Blend(mb, hb, b1b);
        }
        double l1[2 * L], l2[2 * L];
        b1a.Store(l1);
        b1b.Store(l1 + L);
        b2a.Store(l2);
        b2b.Store(l2 + L);
        for (int l = 0; l < 2 * L; ++l) {
          if (l1[l] < u1) {
            u2 = u1;
            u1 = l1[l];
          } else if (l1[l] < u2) {
            u2 = l1[l];
          }
          if (l2[l] < u2) u2 = l2[l];
        }
      }
    }
    for (; t < n; ++t) {
      const double h = row[t] - v[t];
      hbuf[t] = h;
      if (h < u1) {
        u2 = u1;
        u1 = h;
      } else if (h < u2) {
        u2 = h;
      }
    }
  };

  // --- Column reduction. Per-column (min, first argmin over ascending
  // rows) is order-independent, so it is computed lane-parallel first;
  // the right-to-left assignment sweep then replays the scalar order.
  {
    std::vector<double> minc(n), imind(n);
    int jb = 0;
    for (; jb + L <= n; jb += L) {
      simd::VecD best = simd::VecD::Load(cdata + jb);
      simd::VecD bidx = simd::VecD::Zero();
      for (int i = 1; i < n; ++i) {
        simd::VecD cur =
            simd::VecD::Load(cdata + static_cast<size_t>(i) * n + jb);
        simd::MaskD m = simd::CmpLt(cur, best);
        best = simd::Blend(m, cur, best);
        bidx = simd::Blend(m, simd::VecD::Broadcast(static_cast<double>(i)),
                           bidx);
      }
      best.Store(minc.data() + jb);
      bidx.Store(imind.data() + jb);
    }
    for (; jb < n; ++jb) {
      double best = cost(0, jb);
      int imin = 0;
      for (int i = 1; i < n; ++i) {
        if (cost(i, jb) < best) {
          best = cost(i, jb);
          imin = i;
        }
      }
      minc[jb] = best;
      imind[jb] = static_cast<double>(imin);
    }
    for (int j = n - 1; j >= 0; --j) {
      v[j] = minc[j];
      const int imin = static_cast<int>(imind[j]);
      if (rowsol[imin] == -1) {
        rowsol[imin] = j;
        colsol[j] = imin;
      }
    }
  }

  // --- Reduction transfer. ---
  std::vector<int> free_rows;
  for (int i = 0; i < n; ++i) {
    if (rowsol[i] == -1) {
      free_rows.push_back(i);
    } else {
      const int j1 = rowsol[i];
      double u1, u2;
      reduce_row_two_min(i, u1, u2);
      // min over j != j1: u1 unless the min's sole first occurrence IS
      // column j1, in which case the runner-up u2 is the answer (exact:
      // duplicated minima make u1 == u2 anyway).
      const double minv =
          (u1 < inf && simd::FirstEqIndex(hbuf.data(), n, u1) != j1) ? u1
                                                                     : u2;
      if (minv < inf) v[j1] -= minv;
    }
  }

  // --- Augmenting row reduction (two passes). ---
  for (int pass = 0; pass < 2 && !free_rows.empty(); ++pass) {
    std::vector<int> next_free;
    size_t k = 0;
    while (k < free_rows.size()) {
      const int i = free_rows[k++];
      // Two smallest reduced costs in one pass; argmins recovered by
      // first-equality scans (j1 poked out before locating j2), which
      // replays the sequential single-pass (u1, j1, u2, j2) exactly.
      double u1, u2;
      reduce_row_two_min(i, u1, u2);
      int j1 = simd::FirstEqIndex(hbuf.data(), n, u1);
      int j2 = -1;
      if (u2 < inf) {
        hbuf[j1] = inf;
        j2 = simd::FirstEqIndex(hbuf.data(), n, u2);
      }
      int i0 = colsol[j1];
      if (u1 < u2) {
        v[j1] -= u2 - u1;
      } else if (i0 >= 0 && j2 >= 0) {
        j1 = j2;
        i0 = colsol[j1];
      }
      rowsol[i] = j1;
      colsol[j1] = i;
      if (i0 >= 0) {
        rowsol[i0] = -1;
        if (u1 < u2) {
          free_rows[--k] = i0;
        } else {
          next_free.push_back(i0);
        }
      }
    }
    free_rows = next_free;
  }

  // --- Augmentation. ---
  std::vector<double> d(n), dmask(n);
  std::vector<int> pred(n);
  for (int f : free_rows) {
    std::fill(dmask.begin(), dmask.end(), 0.0);  // 0 live, +inf scanned
    std::fill(pred.begin(), pred.end(), f);
    const double* rowf = cdata + static_cast<size_t>(f) * n;
    int t = 0;
    for (; t + L <= n; t += L)
      (simd::VecD::Load(rowf + t) - simd::VecD::Load(v.data() + t))
          .Store(d.data() + t);
    for (; t < n; ++t) d[t] = rowf[t] - v[t];
    int endofpath = -1;
    double mind = 0.0;
    std::vector<int> scanned;
    while (endofpath == -1) {
      const simd::MinLoc ml =
          simd::MinFirstIndexMasked(d.data(), dmask.data(), n);
      OTGED_CHECK(ml.index != -1);
      mind = ml.value;
      const int jmin = ml.index;
      dmask[jmin] = inf;
      scanned.push_back(jmin);
      if (colsol[jmin] == -1) {
        endofpath = jmin;
      } else {
        const int i = colsol[jmin];
        const double* row = cdata + static_cast<size_t>(i) * n;
        const double h0 = cost(i, jmin) - v[jmin];
        const simd::VecD mindv = simd::VecD::Broadcast(mind);
        const simd::VecD h0v = simd::VecD::Broadcast(h0);
        t = 0;
        for (; t + L <= n; t += L) {
          // + dmask folds the "done" exclusion into the value itself:
          // alt + 0.0 is exact for live lanes, scanned lanes go to +inf
          // and can never beat their (finite) d.
          simd::VecD alt = (((mindv + simd::VecD::Load(row + t)) -
                             simd::VecD::Load(v.data() + t)) -
                            h0v) +
                           simd::VecD::Load(dmask.data() + t);
          simd::VecD dv = simd::VecD::Load(d.data() + t);
          simd::MaskD m = simd::CmpLt(alt, dv);
          simd::Blend(m, alt, dv).Store(d.data() + t);
          int bits = m.MoveMask();
          while (bits != 0) {
            const int l = __builtin_ctz(static_cast<unsigned>(bits));
            pred[t + l] = i;
            bits &= bits - 1;
          }
        }
        for (; t < n; ++t) {
          if (dmask[t] != 0.0) continue;
          const double alt = ((mind + row[t]) - v[t]) - h0;
          if (alt < d[t]) {
            d[t] = alt;
            pred[t] = i;
          }
        }
      }
    }
    for (int j : scanned) v[j] += d[j] - mind;
    int j = endofpath;
    while (true) {
      const int i = pred[j];
      colsol[j] = i;
      std::swap(rowsol[i], j);
      if (i == f) break;
    }
  }

  res.cost = 0.0;
  for (int i = 0; i < n; ++i) {
    res.row_to_col[i] = rowsol[i];
    double c = cost(i, rowsol[i]);
    res.cost += c;
    if (c >= kAssignInf / 2) res.feasible = false;
  }
  return res;
}

}  // namespace detail

AssignmentResult SolveAssignmentJV(const Matrix& cost) {
  return detail::SolveAssignmentJVSimd(cost);
}

}  // namespace otged
