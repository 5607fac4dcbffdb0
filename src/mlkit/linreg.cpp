#include "mlkit/linreg.h"

#include "common/status.h"

namespace upa::ml {

core::Vec LinRegMap(const LinRegSpec& spec, const MlPoint& p) {
  const size_t d = spec.w0.size();
  UPA_CHECK_MSG(p.x.size() == d, "point dimension mismatch");
  double pred = spec.b0;
  for (size_t j = 0; j < d; ++j) pred += spec.w0[j] * p.x[j];
  double err = pred - p.y;
  core::Vec out(d + 2);
  for (size_t j = 0; j < d; ++j) out[j] = err * p.x[j];
  out[d] = err;       // bias gradient
  out[d + 1] = 1.0;   // count
  return out;
}

core::Vec LinRegPost(const LinRegSpec& spec, const core::Vec& reduced) {
  const size_t d = spec.w0.size();
  core::Vec updated(d + 1);
  if (reduced.empty()) {
    // Identity reduce value = empty dataset: no update.
    for (size_t j = 0; j < d; ++j) updated[j] = spec.w0[j];
    updated[d] = spec.b0;
    return updated;
  }
  UPA_CHECK_MSG(reduced.size() == d + 2, "reduced dimension mismatch");
  double count = reduced[d + 1];
  double scale = count > 0.0 ? spec.learning_rate / count : 0.0;
  for (size_t j = 0; j < d; ++j) updated[j] = spec.w0[j] - scale * reduced[j];
  updated[d] = spec.b0 - scale * reduced[d];
  return updated;
}

core::SimpleQuerySpec<MlPoint> MakeLinRegSpec(
    engine::ExecContext* ctx, const MlDataset& data, LinRegSpec spec,
    std::shared_ptr<const std::vector<MlPoint>> records_override) {
  UPA_CHECK_MSG(spec.w0.size() == data.config().dims,
                "w0 dimension must match dataset dims");
  core::SimpleQuerySpec<MlPoint> q;
  q.name = "LinearRegression";
  q.ctx = ctx;
  q.records = records_override != nullptr ? records_override : data.points();
  q.map_record = [spec](const MlPoint& p) { return LinRegMap(spec, p); };
  q.sample_domain = [&data](Rng& rng) { return data.SamplePoint(rng); };
  q.post = [spec](const core::Vec& reduced) {
    return LinRegPost(spec, reduced);
  };
  q.scalarize = [](const core::Vec& v) { return core::L2Norm(v); };
  return q;
}

std::vector<double> LinRegStep(const LinRegSpec& spec,
                               const std::vector<MlPoint>& points) {
  core::Vec reduced = core::VecSum::Identity();
  for (const MlPoint& p : points) {
    reduced = core::VecSum::Combine(std::move(reduced), LinRegMap(spec, p));
  }
  return LinRegPost(spec, reduced);
}

}  // namespace upa::ml
