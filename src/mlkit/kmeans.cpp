#include "mlkit/kmeans.h"

#include <limits>

#include "common/status.h"

namespace upa::ml {
namespace {

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  UPA_CHECK_MSG(a.size() == b.size(), "dimension mismatch");
  double ss = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    ss += d * d;
  }
  return ss;
}

}  // namespace

size_t NearestCentroid(const Centroids& centroids,
                       const std::vector<double>& x) {
  UPA_CHECK_MSG(!centroids.empty(), "no centroids");
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centroids.size(); ++c) {
    double d = SquaredDistance(centroids[c], x);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

core::Vec KMeansMap(const KMeansSpec& spec, const MlPoint& p) {
  const size_t k = spec.centroids.size();
  const size_t d = spec.centroids[0].size();
  core::Vec out(k * d + k, 0.0);
  size_t c = NearestCentroid(spec.centroids, p.x);
  for (size_t j = 0; j < d; ++j) out[c * d + j] = p.x[j];
  out[k * d + c] = 1.0;
  return out;
}

core::Vec KMeansPost(const KMeansSpec& spec, const core::Vec& reduced) {
  const size_t k = spec.centroids.size();
  const size_t d = spec.centroids[0].size();
  core::Vec updated(k * d);
  if (reduced.empty()) {
    for (size_t c = 0; c < k; ++c) {
      for (size_t j = 0; j < d; ++j) updated[c * d + j] = spec.centroids[c][j];
    }
    return updated;
  }
  UPA_CHECK_MSG(reduced.size() == k * d + k, "reduced dimension mismatch");
  for (size_t c = 0; c < k; ++c) {
    double count = reduced[k * d + c];
    for (size_t j = 0; j < d; ++j) {
      updated[c * d + j] = count > 0.0 ? reduced[c * d + j] / count
                                       : spec.centroids[c][j];
    }
  }
  return updated;
}

core::SimpleQuerySpec<MlPoint> MakeKMeansSpec(
    engine::ExecContext* ctx, const MlDataset& data, KMeansSpec spec,
    std::shared_ptr<const std::vector<MlPoint>> records_override) {
  UPA_CHECK_MSG(!spec.centroids.empty(), "KMeans needs centroids");
  for (const auto& c : spec.centroids) {
    UPA_CHECK_MSG(c.size() == data.config().dims,
                  "centroid dimension must match dataset dims");
  }
  core::SimpleQuerySpec<MlPoint> q;
  q.name = "KMeans";
  q.ctx = ctx;
  q.records = records_override != nullptr ? records_override : data.points();
  q.map_record = [spec](const MlPoint& p) { return KMeansMap(spec, p); };
  q.sample_domain = [&data](Rng& rng) { return data.SamplePoint(rng); };
  q.post = [spec](const core::Vec& reduced) {
    return KMeansPost(spec, reduced);
  };
  q.scalarize = [](const core::Vec& v) { return core::L2Norm(v); };
  return q;
}

Centroids LloydIterations(const std::vector<MlPoint>& points, Centroids init,
                          size_t iterations) {
  Centroids current = std::move(init);
  for (size_t it = 0; it < iterations; ++it) {
    KMeansSpec spec{current};
    core::Vec reduced = core::VecSum::Identity();
    for (const MlPoint& p : points) {
      reduced = core::VecSum::Combine(std::move(reduced), KMeansMap(spec, p));
    }
    core::Vec flat = KMeansPost(spec, reduced);
    const size_t k = current.size();
    const size_t d = current[0].size();
    for (size_t c = 0; c < k; ++c) {
      for (size_t j = 0; j < d; ++j) current[c][j] = flat[c * d + j];
    }
  }
  return current;
}

Centroids InitCentroids(const std::vector<MlPoint>& points, size_t k) {
  UPA_CHECK_MSG(points.size() >= k, "fewer points than clusters");
  Centroids init;
  init.reserve(k);
  for (const MlPoint& p : points) {
    bool duplicate = false;
    for (const auto& c : init) {
      if (c == p.x) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) init.push_back(p.x);
    if (init.size() == k) break;
  }
  UPA_CHECK_MSG(init.size() == k, "not enough distinct points for k clusters");
  return init;
}

}  // namespace upa::ml
