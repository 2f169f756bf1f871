// Adaptive inference scheduling on an idle-heavy site: a 10,000-tag
// warehouse where only ~5% of tags see reader traffic in steady state —
// the workload the elastic budgets + hibernation tier exist for.
//
// Shape: a priming sweep walks the whole warehouse once so every tag is
// tracked, then the reader loiters over the first ~5% of shelves (the
// "active" set) and the loiter phase is timed. Three configurations run on
// a bit-identical reading stream:
//   fixed             — num_object_particles on every tracked tag (the
//                       seed's engine default: factored + spatial index),
//   elastic           — budgets resize in [min, num] with posterior spread,
//   elastic+hibernate — plus the idle-tag hibernation tier.
// The three filters loiter side by side in kLoiterRepetitions interleaved
// repetitions: each row runs its share of the loiter epochs in turn, and
// the speed gate takes the median of the per-repetition ratios. Host drift
// then hits the rows of a repetition alike, and one disturbed repetition
// cannot decide the gate. Timing the rows one after another compared two
// moments of the host: on a shared 4-vCPU host the fixed row alone read
// 69-125 epochs/s from run to run. Shorter turns cost the rows their warm
// caches: turns of 8 epochs read the ratio ~8% below whole-loiter turns.
//
// Gates (exit 1 on violation — wired into CI like bench_queries):
//   * loiter epochs/sec of elastic+hibernate >= 5x fixed (the median of
//     the repetitions' ratios);
//   * mean XY error on the active tags within 5% (+0.05 ft noise floor)
//     of the fixed-budget baseline;
//   * the idle tail actually hibernates;
//   * the elastic rows hold < 0.3x the fixed row's particle storage, both
//     at the end and at the peak of the priming sweep (sampled after every
//     epoch): storage follows the budgets down as they shrink, not later.
// Results land in BENCH_elastic.json.
#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "model/spherical_sensor.h"
#include "pf/factored_filter.h"
#include "util/stopwatch.h"

namespace rfid {
namespace {

/// The priming sweep reads deterministically (every tag above this read
/// probability at the parked pose), so all configurations track the full
/// site without spending thousands of epochs on Bernoulli coverage.
constexpr double kPrimeReadThreshold = 0.1;
constexpr double kPrimeStepFeet = 3.0;
constexpr double kLoiterStepFeet = 2.0;
/// Interleaved repetitions of the loiter phase (see the header).
constexpr int kLoiterRepetitions = 3;

SphericalSensorParams TrueSensorParams() {
  SphericalSensorParams p;
  p.peak_read_rate = 0.9;
  p.range = 3.0;  // Omnidirectional, ~5.7 ft usable reach.
  return p;
}

struct Scenario {
  WarehouseLayout layout;
  double active_span = 0.0;       ///< y extent the loiter phase covers.
  std::vector<size_t> by_y;       ///< Object indices sorted by y.
  std::vector<TagId> active_tags;
  std::unordered_map<TagId, Vec3> truth;
};

Scenario MakeScenario(int num_tags) {
  WarehouseConfig wc;
  wc.objects_per_shelf = 100;  // Dense shelves: ~10 tags per foot of aisle.
  wc.num_shelves = std::max(1, num_tags / wc.objects_per_shelf);
  wc.shelf_tags_per_shelf = 1;
  auto layout = BuildWarehouse(wc);
  Scenario s;
  s.layout = layout.value();
  // First ~5% of shelves host the active set.
  const double extent = s.layout.TotalYExtent();
  s.active_span = extent * 0.05;
  s.by_y.resize(s.layout.objects.size());
  for (size_t i = 0; i < s.by_y.size(); ++i) s.by_y[i] = i;
  std::sort(s.by_y.begin(), s.by_y.end(), [&](size_t a, size_t b) {
    return s.layout.objects[a].position.y < s.layout.objects[b].position.y;
  });
  for (const ObjectPlacement& o : s.layout.objects) {
    if (o.position.y <= s.active_span) s.active_tags.push_back(o.tag);
    s.truth[o.tag] = o.position;
  }
  return s;
}

SyncedEpoch EpochAt(int64_t step, double y, std::vector<TagId> tags) {
  SyncedEpoch e;
  e.step = step;
  e.time = static_cast<double>(step);
  e.tags = std::move(tags);
  e.has_location = true;
  e.reported_location = {0.0, y, 0.0};
  return e;
}

/// Tags read from aisle position y. With `rng`, every in-reach object rolls
/// its true read probability (the steady-state stream; identical across
/// configurations from the same seed). Without, the read is deterministic
/// above kPrimeReadThreshold (the priming inventory scan).
std::vector<TagId> ReadingsAt(const Scenario& s, const SensorModel& sensor,
                              double y, Rng* rng) {
  std::vector<TagId> tags;
  const double reach = sensor.MaxRange();
  const Pose pose({0.0, y, 0.0}, 0.0);
  auto lo = std::lower_bound(
      s.by_y.begin(), s.by_y.end(), y - reach, [&](size_t i, double v) {
        return s.layout.objects[i].position.y < v;
      });
  for (auto it = lo; it != s.by_y.end(); ++it) {
    const ObjectPlacement& o = s.layout.objects[*it];
    if (o.position.y > y + reach) break;
    const double pr = sensor.ProbReadAt(pose, o.position);
    const bool read = rng != nullptr ? rng->Bernoulli(pr)
                                     : pr >= kPrimeReadThreshold;
    if (read) tags.push_back(o.tag);
  }
  return tags;
}

struct RunResult {
  double loiter_seconds = 0.0;
  double epochs_per_sec = 0.0;
  double particles_per_sec = 0.0;
  double mean_xy_active = 0.0;
  size_t active_evaluated = 0;
  size_t tracked = 0;
  size_t active_objects = 0;
  size_t compressed_objects = 0;
  size_t hibernated_objects = 0;
  double memory_mb = 0.0;
  double peak_memory_mb = 0.0;  ///< Largest after any priming epoch.
};

double ToMb(size_t bytes) { return bytes / (1024.0 * 1024.0); }

/// One configuration's filter and its place in the scenario. Its loiter
/// stream (reader path and read rolls) is its own, so interleaving rows
/// leaves each row's readings identical to running it alone.
class ConfigRun {
 public:
  ConfigRun(const Scenario& s, bool elastic, bool hibernate)
      : s_(s),
        true_sensor_(TrueSensorParams()),
        filter_(MakeWorldModel(s.layout,
                               std::make_unique<SphericalSensorModel>(
                                   TrueSensorParams()),
                               ModelOptions()),
                FilterConfig(elastic, hibernate)) {}

  /// Priming sweep: one deterministic inventory pass over the whole site so
  /// every tag is tracked (identical for all configurations; untimed).
  /// Samples the filter's particle storage after every epoch.
  void Prime() {
    const double extent = s_.layout.TotalYExtent();
    for (double y = 0.0; y <= extent; y += kPrimeStepFeet, ++step_) {
      filter_.ObserveEpoch(
          EpochAt(step_, y, ReadingsAt(s_, true_sensor_, y, nullptr)));
      peak_bytes_ = std::max(peak_bytes_, filter_.ApproxMemoryBytes());
    }
    updates_before_loiter_ = filter_.particle_updates();
  }

  /// Steady state: `epochs` more epochs loitering over the active span —
  /// the measured phase. Returns their wall time.
  double Loiter(int epochs) {
    Stopwatch watch;
    for (int k = 0; k < epochs; ++k, ++step_) {
      y_ += kLoiterStepFeet * direction_;
      if (y_ > s_.active_span) {
        y_ = s_.active_span;
        direction_ = -1.0;
      } else if (y_ < 0.0) {
        y_ = 0.0;
        direction_ = 1.0;
      }
      filter_.ObserveEpoch(
          EpochAt(step_, y_, ReadingsAt(s_, true_sensor_, y_, &rng_)));
    }
    const double seconds = watch.ElapsedSeconds();
    loiter_seconds_ += seconds;
    loiter_epochs_ += epochs;
    return seconds;
  }

  RunResult Result() const {
    RunResult result;
    result.loiter_seconds = loiter_seconds_;
    result.epochs_per_sec =
        loiter_seconds_ > 0 ? loiter_epochs_ / loiter_seconds_ : 0.0;
    result.particles_per_sec =
        loiter_seconds_ > 0
            ? static_cast<double>(filter_.particle_updates() -
                                  updates_before_loiter_) /
                  loiter_seconds_
            : 0.0;
    ErrorStats err;
    for (TagId tag : s_.active_tags) {
      const auto est = filter_.EstimateObject(tag);
      if (!est.has_value()) continue;
      err.Add(est->mean, s_.truth.at(tag));
    }
    result.mean_xy_active = err.MeanXY();
    result.active_evaluated = err.count();
    result.tracked = filter_.NumTrackedObjects();
    result.active_objects = filter_.NumActiveObjects();
    result.compressed_objects = filter_.NumCompressedObjects();
    result.hibernated_objects = filter_.NumHibernatedObjects();
    result.memory_mb = ToMb(filter_.ApproxMemoryBytes());
    result.peak_memory_mb = ToMb(peak_bytes_);
    return result;
  }

 private:
  static ExperimentModelOptions ModelOptions() {
    ExperimentModelOptions options;
    options.motion.delta = {};
    options.motion.sigma = {0.05, 0.15, 0.0};
    return options;
  }

  static FactoredFilterConfig FilterConfig(bool elastic, bool hibernate) {
    FactoredFilterConfig config;
    config.num_reader_particles = 60;
    config.num_object_particles = 1000;
    config.seed = 71;
    if (elastic) config.min_object_particles = 50;
    if (hibernate) {
      // The horizon sits above the loiter's ~55-epoch revisit period: tags
      // the reader keeps coming back to stay awake, only the genuinely idle
      // tail parks. Revivals restart at the elastic floor rather than the
      // paper's 10 — duplicating 10 ancestors up to a 50-particle budget
      // costs diversity exactly where the posterior was just a summary.
      config.compression.hibernate_after_epochs = 60;
      config.num_decompress_particles = 50;
    }
    return config;
  }

  const Scenario& s_;
  SphericalSensorModel true_sensor_;
  FactoredParticleFilter filter_;
  int64_t step_ = 0;
  size_t peak_bytes_ = 0;
  uint64_t updates_before_loiter_ = 0;
  Rng rng_{99};
  double y_ = 0.0;
  double direction_ = 1.0;
  double loiter_seconds_ = 0.0;
  int loiter_epochs_ = 0;
};

}  // namespace
}  // namespace rfid

int main() {
  using namespace rfid;
  bench::PrintHeader(
      "Elastic budgets + hibernation: idle-heavy site steady state",
      "ISSUE 5 acceptance (10k tags, <=5% active; >=5x epochs/s, "
      "accuracy within 5%)");

  const int num_tags = 10000;
  const int loiter_epochs = bench::FullScale() ? 1000 : 240;
  const Scenario scenario = MakeScenario(num_tags);
  std::printf("tags: %zu, active set: %zu (%.1f%%), loiter epochs: %d\n",
              scenario.layout.objects.size(), scenario.active_tags.size(),
              100.0 * scenario.active_tags.size() /
                  scenario.layout.objects.size(),
              loiter_epochs);

  TableWriter table({"configuration", "epochs_per_sec", "particles_per_sec",
                     "mean_xy_active_ft", "active", "compressed",
                     "hibernated", "memory_mb", "peak_memory_mb"});
  bench::BenchJson json("elastic");

  struct Config {
    const char* name;
    bool elastic;
    bool hibernate;
  };
  const Config configs[] = {
      {"fixed", false, false},
      {"elastic", true, false},
      {"elastic+hibernate", true, true},
  };
  std::vector<std::unique_ptr<ConfigRun>> runs;
  for (const Config& c : configs) {
    runs.push_back(
        std::make_unique<ConfigRun>(scenario, c.elastic, c.hibernate));
    runs.back()->Prime();
  }
  // Every row runs the same epochs in a repetition, so the ratio of its
  // times is the ratio of its epochs/sec.
  std::vector<double> speedups;
  for (int rep = 0; rep < kLoiterRepetitions; ++rep) {
    const int epochs = loiter_epochs * (rep + 1) / kLoiterRepetitions -
                       loiter_epochs * rep / kLoiterRepetitions;
    const double fixed_s = runs[0]->Loiter(epochs);
    runs[1]->Loiter(epochs);
    const double hibernate_s = runs[2]->Loiter(epochs);
    speedups.push_back(hibernate_s > 0 ? fixed_s / hibernate_s : 0.0);
  }
  RunResult results[3];
  for (int i = 0; i < 3; ++i) {
    results[i] = runs[i]->Result();
    const RunResult& r = results[i];
    (void)table.AddRow({configs[i].name, FormatDouble(r.epochs_per_sec, 1),
                        FormatDouble(r.particles_per_sec, 0),
                        FormatDouble(r.mean_xy_active, 3),
                        std::to_string(r.active_objects),
                        std::to_string(r.compressed_objects),
                        std::to_string(r.hibernated_objects),
                        FormatDouble(r.memory_mb, 1),
                        FormatDouble(r.peak_memory_mb, 1)});
    json.BeginRow();
    json.Add("configuration", configs[i].name);
    json.Add("tags", static_cast<int>(scenario.layout.objects.size()));
    json.Add("active_tags", scenario.active_tags.size());
    json.Add("loiter_epochs", loiter_epochs);
    json.Add("epochs_per_sec", r.epochs_per_sec);
    json.Add("particles_per_sec", r.particles_per_sec);
    json.Add("mean_xy_active_ft", r.mean_xy_active);
    json.Add("active_evaluated", r.active_evaluated);
    json.Add("tracked", r.tracked);
    json.Add("active_objects", r.active_objects);
    json.Add("compressed_objects", r.compressed_objects);
    json.Add("hibernated_objects", r.hibernated_objects);
    json.Add("memory_mb", r.memory_mb);
    json.Add("peak_memory_mb", r.peak_memory_mb);
  }
  bench::PrintTable(table);

  std::vector<double> sorted = speedups;
  std::sort(sorted.begin(), sorted.end());
  const double speedup = sorted[sorted.size() / 2];
  const double accuracy_limit = results[0].mean_xy_active * 1.05 + 0.05;
  // Elastic budgets save memory only if storage follows the count.
  // ApproxMemoryBytes reports capacity, and every resample sizes an
  // object's storage to its new count, so the elastic rows must hold a
  // fraction of the fixed row's storage at the end and at the priming
  // sweep's peak — the moment the whole site was freshly initialized at
  // the full budget and most objects were shrinking.
  const double memory_limit = results[0].memory_mb * 0.3;
  const double peak_limit = results[0].peak_memory_mb * 0.3;
  json.BeginRow();
  json.Add("configuration", "gates");
  json.Add("speedup_vs_fixed", speedup);
  for (size_t rep = 0; rep < speedups.size(); ++rep) {
    json.Add("speedup_repetition_" + std::to_string(rep), speedups[rep]);
  }
  json.Add("accuracy_limit_ft", accuracy_limit);
  json.Add("accuracy_ft", results[2].mean_xy_active);
  json.Add("memory_limit_mb", memory_limit);
  json.Add("elastic_memory_mb", results[1].memory_mb);
  json.Add("peak_limit_mb", peak_limit);
  json.Add("elastic_peak_memory_mb", results[1].peak_memory_mb);
  bench::WriteBenchJson(json, "elastic");

  std::printf("elastic+hibernate vs fixed: %.1fx epochs/sec, the median of "
              "repetitions",
              speedup);
  for (double r : speedups) std::printf(" %.2fx", r);
  std::printf(" (gate >= 5x); mean XY %.3f vs limit %.3f ft\n",
              results[2].mean_xy_active, accuracy_limit);
  bool ok = true;
  if (speedup < 5.0) {
    std::fprintf(stderr,
                 "GATE FAILED: elastic+hibernate %.2fx fixed (< 5x)\n",
                 speedup);
    ok = false;
  }
  if (results[2].mean_xy_active > accuracy_limit) {
    std::fprintf(stderr,
                 "GATE FAILED: active-tag error %.3f ft exceeds %.3f ft\n",
                 results[2].mean_xy_active, accuracy_limit);
    ok = false;
  }
  if (results[2].hibernated_objects == 0) {
    std::fprintf(stderr, "GATE FAILED: nothing hibernated on an idle-heavy "
                         "site\n");
    ok = false;
  }
  for (int i = 1; i < 3; ++i) {
    if (results[i].memory_mb > memory_limit) {
      std::fprintf(stderr,
                   "GATE FAILED: %s holds %.1f MB of particle storage at the "
                   "end (> %.1f MB, 0.3x fixed)\n",
                   configs[i].name, results[i].memory_mb, memory_limit);
      ok = false;
    }
    if (results[i].peak_memory_mb > peak_limit) {
      std::fprintf(stderr,
                   "GATE FAILED: %s peaks at %.1f MB of particle storage "
                   "while priming (> %.1f MB, 0.3x fixed)\n",
                   configs[i].name, results[i].peak_memory_mb, peak_limit);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
