#include "core/pq_db_sky.h"

#include <algorithm>
#include <numeric>

#include "core/pq_2dsub_sky.h"

namespace hdsky {
namespace core {

using common::Result;
using common::Status;
using data::Schema;
using data::Value;
using interface::QueryResult;
using interface::HiddenDatabase;

Result<DiscoveryResult> PqDbSky(HiddenDatabase* iface,
                                const PqDbSkyOptions& options) {
  const Schema& schema = iface->schema();
  const std::vector<int>& ranking = schema.ranking_attributes();
  if (ranking.size() < 2) {
    return Status::InvalidArgument(
        "PQ-DB-SKY needs at least two ranking attributes");
  }
  if (options.common.base_filter.has_value()) {
    HDSKY_RETURN_IF_ERROR(
        iface->ValidateQuery(*options.common.base_filter));
  }

  // Plane attributes: the two largest domains (additive cost), unless the
  // caller forces a pair (ablation).
  int ax = options.force_ax;
  int ay = options.force_ay;
  if (ax < 0 || ay < 0) {
    std::vector<int> by_domain = ranking;
    std::stable_sort(by_domain.begin(), by_domain.end(), [&](int a, int b) {
      return schema.attribute(a).DomainSize() >
             schema.attribute(b).DomainSize();
    });
    ax = by_domain[0];
    ay = by_domain[1];
  } else {
    const bool ax_ok =
        std::find(ranking.begin(), ranking.end(), ax) != ranking.end();
    const bool ay_ok =
        std::find(ranking.begin(), ranking.end(), ay) != ranking.end();
    if (!ax_ok || !ay_ok || ax == ay) {
      return Status::InvalidArgument(
          "forced plane attributes must be two distinct ranking "
          "attributes");
    }
  }
  std::vector<int> others;
  for (int attr : ranking) {
    if (attr != ax && attr != ay) others.push_back(attr);
  }

  // The non-plane combination space must be enumerable.
  constexpr int64_t kMaxPlanes = int64_t{1} << 22;
  int64_t num_planes = 1;
  for (int attr : others) {
    const int64_t d = schema.attribute(attr).DomainSize();
    if (num_planes > kMaxPlanes / d) {
      return Status::Unsupported(
          "non-plane attribute domains multiply beyond the supported "
          "plane count");
    }
    num_planes *= d;
  }

  DiscoveryRun run(iface, options.common);

  // Root query: prunes every plane and seeds the skyline.
  Result<QueryResult> root = run.Execute(run.MakeBaseQuery());
  if (!root.ok()) {
    if (run.exhausted()) return run.Finish();
    return root.status();
  }
  if (root->empty()) return run.Finish();
  // SELECT * is downward-closed: observe the full answer.
  for (int i = 0; i < root->size(); ++i) {
    run.Observe(root->ids[static_cast<size_t>(i)],
                root->tuples[static_cast<size_t>(i)]);
  }
  if (root->size() < iface->k()) {
    // Underflow: the entire (filtered) database was returned.
    return run.Finish();
  }
  std::vector<CoveringObservation> observations;
  observations.push_back({run.MakeBaseQuery(), root->tuples[0]});

  // Enumerate non-plane value combinations in ascending (sum, lex): a
  // linear extension of dominance, so every plane sees all its potential
  // dominators confirmed (see pq_2dsub_sky.h).
  std::vector<std::vector<Value>> combos;
  combos.reserve(static_cast<size_t>(num_planes));
  std::vector<Value> current(others.size());
  for (size_t i = 0; i < others.size(); ++i) {
    current[i] = schema.attribute(others[i]).domain_min;
  }
  for (int64_t c = 0; c < num_planes; ++c) {
    combos.push_back(current);
    for (int64_t i = static_cast<int64_t>(others.size()) - 1; i >= 0;
         --i) {
      const auto& spec = schema.attribute(others[static_cast<size_t>(i)]);
      if (current[static_cast<size_t>(i)] < spec.domain_max) {
        ++current[static_cast<size_t>(i)];
        break;
      }
      current[static_cast<size_t>(i)] = spec.domain_min;
    }
  }
  std::stable_sort(combos.begin(), combos.end(),
                   [](const std::vector<Value>& a,
                      const std::vector<Value>& b) {
                     const Value sa =
                         std::accumulate(a.begin(), a.end(), Value{0});
                     const Value sb =
                         std::accumulate(b.begin(), b.end(), Value{0});
                     if (sa != sb) return sa < sb;
                     return a < b;
                   });

  for (int64_t c = 0; c < num_planes; ++c) {
    PlaneSpec plane;
    plane.ax = ax;
    plane.ay = ay;
    plane.other_attrs = others;
    plane.plane_values = combos[static_cast<size_t>(c)];
    HDSKY_RETURN_IF_ERROR(Pq2dSubSky(&run, plane, observations));
    if (run.exhausted()) break;
  }
  return run.Finish();
}

}  // namespace core
}  // namespace hdsky
