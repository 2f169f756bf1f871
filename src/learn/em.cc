#include "learn/em.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace rfid {

EmCalibrator::EmCalibrator(WorldModel initial, const EmConfig& config)
    : initial_(std::move(initial)), config_(config) {}

void EmCalibrator::EStep(const WorldModel& model,
                         const std::vector<SyncedEpoch>& trace,
                         std::vector<LogisticExample>* examples,
                         std::vector<Vec3>* reader_means,
                         std::vector<Vec3>* reported) const {
  FactoredFilterConfig fc = config_.filter;
  fc.seed = config_.seed;
  FactoredParticleFilter filter(model, fc);

  const double neg_range =
      model.sensor().MaxRange() * config_.negative_example_range_factor;
  const double neg_range_sq = neg_range * neg_range;
  std::vector<double> reader_weights;

  for (const SyncedEpoch& epoch : trace) {
    filter.ObserveEpoch(epoch);
    const ReaderEstimate reader = filter.EstimateReader();
    const Pose mean_pose(reader.mean, reader.heading);
    reader_means->push_back(reader.mean);
    reported->push_back(epoch.has_location ? epoch.reported_location
                                           : reader.mean);

    std::unordered_set<TagId> observed(epoch.tags.begin(), epoch.tags.end());

    // Shelf tags: locations are known, so (d, theta) is observed up to the
    // reader posterior; we plug in the posterior mean pose.
    for (const ShelfTag& s : model.shelf_tags()) {
      const bool read = observed.count(s.tag) > 0;
      if (!read && (s.location - reader.mean).NormSq() > neg_range_sq) {
        continue;  // Uninformative far-away miss.
      }
      const RangeBearing rb = ComputeRangeBearing(mean_pose, s.location);
      examples->push_back({rb.distance, rb.angle, read, 1.0});
    }

    // Object tags: marginalize over the coupled (object particle, reader
    // particle) pairs the factored filter maintains. Both reads (positive
    // examples) and misses of nearby objects (negative examples) carry
    // information, but only once the object's posterior has concentrated —
    // a freshly initialized cone-wide posterior would feed the fit
    // mislabeled geometry. Reading never advances attachments: a slot with
    // reader remaps pending is read through the expected weight of the
    // reader each attachment resolves to, and — its reader unresolved —
    // against the posterior mean pose, as the shelf tags are.
    for (const auto& state : filter.object_states()) {
      if (state.particles.empty()) continue;
      const bool read = observed.count(state.tag) > 0;
      filter.AttachedReaderWeights(state, &reader_weights);
      const bool lagging = filter.RemapLag(state) > 0;

      // Posterior mean / spread under the combined factored weights. The
      // particle store is SoA; stream the component arrays directly.
      const ParticleSoa& particles = state.particles;
      const size_t n = particles.size();
      const double* weights = particles.weights();
      const uint32_t* reader_idx = particles.reader_indices();
      Vec3 mean;
      double weight_total = 0.0;
      for (size_t k = 0; k < n; ++k) {
        const double w = weights[k] * reader_weights[reader_idx[k]];
        mean += particles.PositionAt(k) * w;
        weight_total += w;
      }
      if (weight_total <= 0.0) continue;
      mean = mean / weight_total;
      double spread = 0.0;
      for (size_t k = 0; k < n; ++k) {
        const double w = weights[k] * reader_weights[reader_idx[k]];
        spread += (w / weight_total) * (particles.PositionAt(k) - mean).NormSq();
      }
      if (spread > config_.max_object_posterior_spread) continue;
      if (!read && (mean - reader.mean).NormSq() > neg_range_sq) continue;

      const size_t stride = std::max<size_t>(
          1, n / static_cast<size_t>(config_.object_samples_per_epoch));
      double weight_scale = 0.0;
      for (size_t k = 0; k < n; k += stride) {
        weight_scale += weights[k] * reader_weights[reader_idx[k]];
      }
      if (weight_scale <= 0.0) continue;
      for (size_t k = 0; k < n; k += stride) {
        const Pose& pose =
            lagging ? mean_pose
                    : filter.reader_particles()[reader_idx[k]].pose;
        const RangeBearing rb =
            ComputeRangeBearing(pose, particles.PositionAt(k));
        const double w =
            weights[k] * reader_weights[reader_idx[k]] / weight_scale;
        if (w <= 0.0) continue;
        examples->push_back({rb.distance, rb.angle, read, w});
      }
    }
  }
}

Result<EmResult> EmCalibrator::Calibrate(
    const std::vector<SyncedEpoch>& trace) {
  if (trace.empty()) {
    return Status::Invalid("empty training trace");
  }

  WorldModel model = initial_;
  std::vector<EmIterationStats> stats;

  for (int iter = 0; iter < config_.iterations; ++iter) {
    std::vector<LogisticExample> examples;
    std::vector<Vec3> reader_means;
    std::vector<Vec3> reported;
    EStep(model, trace, &examples, &reader_means, &reported);

    EmIterationStats it_stats;
    it_stats.iteration = iter;
    it_stats.num_examples = examples.size();

    if (config_.learn_sensor) {
      auto fit = FitLogisticSensorModel(examples, config_.logistic);
      if (fit.ok()) {
        it_stats.sensor_log_likelihood = fit.value().final_log_likelihood;
        it_stats.sensor_weights = fit.value().model.AsWeightVector();
        model.SetSensor(
            std::make_unique<LogisticSensorModel>(fit.value().model));
      } else if (iter == 0) {
        // No usable data at all is a hard error; later iterations keep the
        // previous estimate.
        return fit.status();
      }
    }

    if (config_.learn_motion && reader_means.size() >= 3) {
      Vec3 delta_sum, delta_sq;
      const size_t n = reader_means.size() - 1;
      for (size_t t = 1; t < reader_means.size(); ++t) {
        const Vec3 d = reader_means[t] - reader_means[t - 1];
        delta_sum += d;
        delta_sq += {d.x * d.x, d.y * d.y, d.z * d.z};
      }
      MotionModelParams mp = model.motion().params();
      mp.delta = delta_sum / static_cast<double>(n);
      auto dev = [&](double sq_sum, double mean) {
        const double var = std::max(sq_sum / static_cast<double>(n) -
                                        mean * mean, 0.0);
        return std::sqrt(var);
      };
      // Floor the learned noise: a zero floor would make the filter unable
      // to deviate from the learned straight line.
      mp.sigma = {std::max(dev(delta_sq.x, mp.delta.x), 0.005),
                  std::max(dev(delta_sq.y, mp.delta.y), 0.005),
                  dev(delta_sq.z, mp.delta.z)};
      model.SetMotion(MotionModel(mp));
    }

    if (config_.learn_location_sensing && reader_means.size() >= 3) {
      Vec3 res_sum, res_sq;
      const auto n = static_cast<double>(reader_means.size());
      for (size_t t = 0; t < reader_means.size(); ++t) {
        const Vec3 r = reported[t] - reader_means[t];
        res_sum += r;
        res_sq += {r.x * r.x, r.y * r.y, r.z * r.z};
      }
      LocationSensingParams sp = model.location_sensing().params();
      sp.mu = res_sum / n;
      auto dev = [&](double sq_sum, double mean) {
        return std::sqrt(std::max(sq_sum / n - mean * mean, 0.0));
      };
      sp.sigma = {std::max(dev(res_sq.x, sp.mu.x), 0.01),
                  std::max(dev(res_sq.y, sp.mu.y), 0.01),
                  dev(res_sq.z, sp.mu.z)};
      model.SetLocationSensing(LocationSensingModel(sp));
    }

    stats.push_back(it_stats);
  }

  EmResult result{std::move(model), std::move(stats)};
  return result;
}

}  // namespace rfid
