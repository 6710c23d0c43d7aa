#include "tensor/svd.h"

#include <algorithm>
#include <cmath>

#include "tensor/check.h"
#include "tensor/ops.h"

namespace actcomp::tensor {

std::vector<float> singular_values(const Tensor& a, float tol, int max_sweeps) {
  ACTCOMP_CHECK(a.rank() == 2, "singular_values needs a matrix, got " << a.shape().str());
  // Work on the orientation with fewer columns: sv(A) == sv(A^T). Element
  // (i, j) of that orientation is a[i * rs + j * cs].
  const bool tall = a.dim(0) >= a.dim(1);
  const int64_t rows = tall ? a.dim(0) : a.dim(1);
  const int64_t cols = tall ? a.dim(1) : a.dim(0);
  if (rows == 0 || cols == 0) return {};
  const int64_t rs = tall ? cols : 1;
  const int64_t cs = tall ? 1 : rows;

  // Column-major working copy for cache-friendly column rotations.
  std::vector<double> col(static_cast<size_t>(rows * cols));
  {
    const auto d = a.data();
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        col[static_cast<size_t>(j * rows + i)] = d[static_cast<size_t>(i * rs + j * cs)];
      }
    }
  }
  auto column = [&](int64_t j) { return col.data() + j * rows; };

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool converged = true;
    for (int64_t p = 0; p < cols - 1; ++p) {
      for (int64_t q = p + 1; q < cols; ++q) {
        double app = 0.0, aqq = 0.0, apq = 0.0;
        const double* cp = column(p);
        const double* cq = column(q);
        for (int64_t i = 0; i < rows; ++i) {
          app += cp[i] * cp[i];
          aqq += cq[i] * cq[i];
          apq += cp[i] * cq[i];
        }
        if (std::fabs(apq) <= tol * std::sqrt(app * aqq) || apq == 0.0) continue;
        converged = false;
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        double* mp = column(p);
        double* mq = column(q);
        for (int64_t i = 0; i < rows; ++i) {
          const double vp = mp[i];
          const double vq = mq[i];
          mp[i] = c * vp - s * vq;
          mq[i] = s * vp + c * vq;
        }
      }
    }
    if (converged) break;
  }

  std::vector<float> sv(static_cast<size_t>(cols));
  for (int64_t j = 0; j < cols; ++j) {
    double n2 = 0.0;
    const double* cj = column(j);
    for (int64_t i = 0; i < rows; ++i) n2 += cj[i] * cj[i];
    sv[static_cast<size_t>(j)] = static_cast<float>(std::sqrt(n2));
  }
  std::sort(sv.begin(), sv.end(), std::greater<float>());
  return sv;
}

std::vector<float> cumulative_sigma_fraction(const std::vector<float>& sv) {
  std::vector<float> out(sv.size());
  double total = 0.0;
  for (float v : sv) total += v;
  if (total == 0.0) {
    std::fill(out.begin(), out.end(), 0.0f);
    return out;
  }
  double run = 0.0;
  for (size_t i = 0; i < sv.size(); ++i) {
    run += sv[i];
    out[i] = static_cast<float>(run / total);
  }
  return out;
}

int effective_rank(const std::vector<float>& sv, float fraction) {
  ACTCOMP_CHECK(fraction > 0.0f && fraction <= 1.0f,
                "fraction must be in (0, 1], got " << fraction);
  const auto cum = cumulative_sigma_fraction(sv);
  for (size_t i = 0; i < cum.size(); ++i) {
    if (cum[i] >= fraction) return static_cast<int>(i) + 1;
  }
  return static_cast<int>(cum.size());
}

}  // namespace actcomp::tensor
