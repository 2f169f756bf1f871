#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "model/cone_sensor.h"
#include "model/spherical_sensor.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace rfid {
namespace e2e {
namespace {

constexpr double kEpochSeconds = 1.0;
constexpr double kLatenessSeconds = 2.0;
/// Records of one epoch carry times spread over the first 90% of it, as a
/// reader delivers them.
constexpr double kEpochJitter = 0.9;
/// Robot scan rounds of the trace-driven workloads: the first primes the
/// server, the second is measured.
constexpr int kScanRounds = 2;

/// A record plus the record time at which it is sent. The key equals the
/// record's own time except for late records, which are sent after newer
/// ones.
struct Stamped {
  double key = 0.0;
  ServeRecord record;
};

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ULL + salt;
  return SplitMix64(state);
}

ServeConfig BaseServeConfig() {
  ServeConfig config;
  config.epoch_seconds = kEpochSeconds;
  config.max_lateness_seconds = kLatenessSeconds;
  config.queue_capacity = 1024;
  config.pump_batch = 512;
  config.engine.factored.seed = 71;
  config.engine.emitter.policy = EmitPolicy::kAfterDelay;
  config.engine.emitter.delay_seconds = 2.0;
  config.engine.emitter.scope_timeout_epochs = 5;
  return config;
}

/// Flattens a simulated trace into raw records. `late_share` of the readings
/// are sent up to `max_late` seconds of record time after their own time —
/// inside the lateness bound, so none may be dropped.
void AppendTrace(SiteId site, const SimulatedTrace& trace, double late_share,
                 double max_late, Rng* rng, std::vector<Stamped>* out) {
  for (const SimEpoch& epoch : trace.epochs) {
    const SyncedEpoch& obs = epoch.observations;
    if (obs.has_location) {
      ReaderLocationReport report;
      report.time = obs.time + rng->Uniform(0.0, kEpochJitter);
      report.location = obs.reported_location;
      report.has_heading = obs.has_heading;
      report.heading = obs.reported_heading;
      out->push_back({report.time, ServeRecord::Location(site, report)});
    }
    for (TagId tag : obs.tags) {
      const double time = obs.time + rng->Uniform(0.0, kEpochJitter);
      double key = time;
      if (rng->Bernoulli(late_share)) key += rng->Uniform(0.0, max_late);
      out->push_back({key, ServeRecord::Reading(site, {time, tag})});
    }
  }
}

/// Sorts stamped records into send order.
void SortForSend(std::vector<Stamped>* stamped) {
  std::stable_sort(stamped->begin(), stamped->end(),
                   [](const Stamped& a, const Stamped& b) {
                     return a.key < b.key;
                   });
}

/// Shared shape of the trace-driven workloads (fleet, warehouse): one
/// robot-scanned warehouse per site, each generated from its own seed,
/// merged by send time. Records sent before the earliest second-round epoch
/// of any site prime the server, so the first round has read every tag of
/// every layout when measurement starts; the measured stream follows, cut
/// after `max_records` records when that is set.
struct TraceSites {
  std::vector<WarehouseConfig> layouts;  ///< One per site, ids 1..n.
  double robot_speed = 0.1;              ///< Feet per epoch.
  size_t max_records = 0;                ///< 0: the whole second round.
  double late_share = 0.0;
  double max_late = 0.0;
};

Status BuildTraceWorkload(const TraceSites& spec, uint64_t seed,
                          Workload* w) {
  ConeSensorModel truth_sensor;
  std::vector<Stamped> stamped;
  double cut = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < spec.layouts.size(); ++i) {
    auto layout = BuildWarehouse(spec.layouts[i]);
    if (!layout.ok()) return layout.status();
    const SiteId id = static_cast<SiteId>(i + 1);
    RobotConfig robot;
    robot.rounds = kScanRounds;
    robot.speed = spec.robot_speed;
    TraceGenerator gen(layout.value(), robot, {}, truth_sensor,
                       MixSeed(seed, id));
    const SimulatedTrace trace = gen.Generate();
    if (trace.epochs.size() < kScanRounds) {
      return Status::Internal("empty trace for site " + std::to_string(id));
    }
    const size_t second_round = trace.epochs.size() / kScanRounds;
    cut = std::min(cut, trace.epochs[second_round].observations.time);
    Rng rng(MixSeed(seed, 1000 + id));
    AppendTrace(id, trace, spec.late_share, spec.max_late, &rng, &stamped);
    w->sites.push_back({id, std::move(layout).value(), trace.truth});
  }
  SortForSend(&stamped);
  for (const Stamped& s : stamped) {
    if (s.key < cut) {
      w->prime.push_back(s.record);
    } else if (spec.max_records == 0 || w->records.size() < spec.max_records) {
      w->records.push_back(s.record);
    }
  }
  return Status::OK();
}

WarehouseConfig ShelfPair(int objects, double shelf_length) {
  WarehouseConfig wc;
  wc.num_shelves = 2;
  wc.shelf_length = shelf_length;
  wc.objects_per_shelf = std::max(1, (objects + 1) / 2);
  wc.shelf_tags_per_shelf = 2;
  return wc;
}

/// Many small sites with skewed sizes, out-of-order delivery and scrapes
/// beside ingest: the serving deployment shape.
Result<Workload> MakeFleet(uint64_t seed, bool smoke) {
  Workload w;
  w.name = "fleet";
  w.serve = BaseServeConfig();
  w.serve.num_shards = 2;
  w.serve.num_threads = 2;
  w.serve.engine.factored.num_reader_particles = 50;
  w.serve.engine.factored.num_object_particles = 400;
  w.low_rate = 4000;
  w.high_rate = 8000;
  TraceSites spec;
  spec.late_share = 0.05;
  spec.max_late = 1.5;
  // Tag counts grow geometrically from 25 to 400 across the 16 sites.
  for (int i = 0; i < 16; ++i) {
    const double count = 25.0 * std::pow(16.0, i / 15.0);
    spec.layouts.push_back(
        ShelfPair(static_cast<int>(std::lround(count * (smoke ? 0.2 : 1.0))),
                  8.0));
  }
  RFID_RETURN_NOT_OK(BuildTraceWorkload(spec, seed, &w));
  return w;
}

/// One large site at the paper's Fig. 5(i)/(j) engine shape (2,000 objects,
/// 100 reader / 1,000 object particles, spatial index on), single threaded,
/// records in order. The robot moves 0.25 ft per epoch instead of the
/// paper's 0.1 ft, so that priming with a scan round of all 40 shelves fits
/// a run; each tag is still read about five times per round (12 at 0.1 ft).
/// Measurement covers the start of the second round, with every object
/// tracked.
Result<Workload> MakeWarehouse(uint64_t seed, bool smoke) {
  Workload w;
  w.name = "warehouse";
  w.serve = BaseServeConfig();
  w.serve.num_shards = 1;
  w.serve.num_threads = 1;
  w.serve.engine.factored.num_reader_particles = 100;
  w.serve.engine.factored.num_object_particles = 1000;
  w.serve.engine.factored.num_threads = 1;
  w.low_rate = 300;
  w.high_rate = 600;
  TraceSites spec;
  WarehouseConfig wc;
  wc.num_shelves = smoke ? 4 : 40;
  wc.shelf_length = 10.0;
  wc.objects_per_shelf = 50;
  wc.shelf_tags_per_shelf = 2;
  spec.layouts.push_back(wc);
  spec.robot_speed = 0.25;
  spec.max_records = smoke ? 600 : 2400;
  RFID_RETURN_NOT_OK(BuildTraceWorkload(spec, seed, &w));
  return w;
}

SphericalSensorParams IdleSensorParams() {
  SphericalSensorParams p;
  p.peak_read_rate = 0.9;
  p.range = 3.0;  // Omnidirectional, ~5.7 ft usable reach.
  return p;
}

/// Tags read from aisle position y: every in-reach tag above the priming
/// threshold (deterministic inventory sweep), or a Bernoulli draw of its
/// true read probability when `rng` is set.
void IdleReads(const WarehouseLayout& layout, const std::vector<size_t>& by_y,
               const SensorModel& sensor, double y, Rng* rng,
               std::vector<TagId>* tags) {
  constexpr double kPrimeReadThreshold = 0.1;
  tags->clear();
  const double reach = sensor.MaxRange();
  const Pose pose({0.0, y, 0.0}, 0.0);
  auto lo = std::lower_bound(by_y.begin(), by_y.end(), y - reach,
                             [&](size_t i, double v) {
                               return layout.objects[i].position.y < v;
                             });
  for (auto it = lo; it != by_y.end(); ++it) {
    const ObjectPlacement& o = layout.objects[*it];
    if (o.position.y > y + reach) break;
    const double pr = sensor.ProbReadAt(pose, o.position);
    if (rng != nullptr ? rng->Bernoulli(pr) : pr >= kPrimeReadThreshold) {
      tags->push_back(o.tag);
    }
  }
}

/// Measured loiter records of idle_site.
constexpr size_t kIdleRecords = 60000;

/// A large site where ~5% of tags see traffic: a priming sweep tracks every
/// tag (set-up), then the reader loiters over the active span. Exercises
/// elastic budgets, hibernation and the index skip over parked tags.
Result<Workload> MakeIdleSite(uint64_t seed, bool smoke) {
  Workload w;
  w.name = "idle_site";
  w.sensor = SensorKind::kSpherical;
  w.model_options.motion.delta = {};
  w.model_options.motion.sigma = {0.05, 0.15, 0.0};
  w.serve = BaseServeConfig();
  w.serve.num_shards = 1;
  w.serve.num_threads = 1;
  FactoredFilterConfig& f = w.serve.engine.factored;
  f.num_reader_particles = 60;
  f.num_object_particles = 1000;
  f.min_object_particles = 50;
  f.num_decompress_particles = 50;
  f.compression.hibernate_after_epochs = 60;
  f.num_threads = 2;
  w.low_rate = 5000;
  w.high_rate = 10000;

  WarehouseConfig wc;
  wc.objects_per_shelf = 100;
  wc.num_shelves = smoke ? 4 : 15;
  wc.shelf_tags_per_shelf = 1;
  auto layout = BuildWarehouse(wc);
  if (!layout.ok()) return layout.status();
  const WarehouseLayout& l = layout.value();
  w.sites.push_back({1, l, GroundTruth(l.objects, {})});

  std::vector<size_t> by_y(l.objects.size());
  for (size_t i = 0; i < by_y.size(); ++i) by_y[i] = i;
  std::sort(by_y.begin(), by_y.end(), [&](size_t a, size_t b) {
    return l.objects[a].position.y < l.objects[b].position.y;
  });
  const SphericalSensorModel sensor(IdleSensorParams());
  Rng jitter(MixSeed(seed, 1));
  Rng reads(MixSeed(seed, 2));
  std::vector<TagId> tags;
  int64_t step = 0;
  auto emit_epoch = [&](double y, std::vector<ServeRecord>* out) {
    const double t0 = static_cast<double>(step++) * kEpochSeconds;
    ReaderLocationReport report;
    report.time = t0 + jitter.Uniform(0.0, kEpochJitter);
    report.location = {0.0, y, 0.0};
    std::vector<Stamped> stamped;
    stamped.push_back({report.time, ServeRecord::Location(1, report)});
    for (TagId tag : tags) {
      const double time = t0 + jitter.Uniform(0.0, kEpochJitter);
      stamped.push_back({time, ServeRecord::Reading(1, {time, tag})});
    }
    SortForSend(&stamped);
    for (const Stamped& st : stamped) out->push_back(st.record);
  };

  constexpr double kPrimeStepFeet = 3.0;
  constexpr double kLoiterStepFeet = 2.0;
  // Loiter epochs still in set-up: tags the sweep read but the loiter never
  // revisits hibernate in bulk hibernate_after_epochs after their last
  // read, a one-off transient that would otherwise open the measurement.
  constexpr int kWarmupLoiterEpochs = 150;
  const double extent = l.TotalYExtent();
  for (double y = 0.0; y <= extent; y += kPrimeStepFeet) {
    IdleReads(l, by_y, sensor, y, nullptr, &tags);
    emit_epoch(y, &w.prime);
  }
  const double active_span = extent * 0.05;
  double y = 0.0;
  double direction = 1.0;
  auto loiter_epoch = [&](std::vector<ServeRecord>* out) {
    y += kLoiterStepFeet * direction;
    if (y > active_span) {
      y = active_span;
      direction = -1.0;
    } else if (y < 0.0) {
      y = 0.0;
      direction = 1.0;
    }
    IdleReads(l, by_y, sensor, y, &reads, &tags);
    emit_epoch(y, out);
  };
  for (int k = 0; k < kWarmupLoiterEpochs; ++k) loiter_epoch(&w.prime);
  const size_t measured = smoke ? kIdleRecords / 20 : kIdleRecords;
  while (w.records.size() < measured) loiter_epoch(&w.records);
  return w;
}

}  // namespace

std::vector<SiteSpec> Workload::MakeSpecs() const {
  std::vector<SiteSpec> specs;
  specs.reserve(sites.size());
  for (const Site& site : sites) specs.push_back({site.id, MakeModel(site)});
  return specs;
}

WorldModel Workload::MakeModel(const Site& site) const {
  std::unique_ptr<SensorModel> model;
  if (sensor == SensorKind::kSpherical) {
    model = std::make_unique<SphericalSensorModel>(IdleSensorParams());
  } else {
    model = std::make_unique<ConeSensorModel>();
  }
  return MakeWorldModel(site.layout, std::move(model), model_options);
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              bool smoke) {
  if (name == "fleet") return MakeFleet(seed, smoke);
  if (name == "warehouse") return MakeWarehouse(seed, smoke);
  if (name == "idle_site") return MakeIdleSite(seed, smoke);
  return Status::Invalid("unknown workload '" + name + "'");
}

}  // namespace e2e
}  // namespace rfid
