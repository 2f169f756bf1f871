// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: R*-tree operations, resampling schemes, sensor-model
// evaluation, Gaussian belief fitting/sampling, reader-remap draws, the
// thread pool's job hand-off, and one factored-filter epoch. These are the
// ablation-level numbers behind Fig. 5(j).
#include <benchmark/benchmark.h>

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "bench_util.h"
#include "index/rstar_tree.h"
#include "index/sensing_index.h"
#include "model/cone_sensor.h"
#include "model/spherical_sensor.h"
#include "pf/belief.h"
#include "pf/composite_remap.h"
#include "pf/factored_filter.h"
#include "pf/initializer.h"
#include "pf/resample.h"
#include "sim/trace.h"
#include "core/experiment.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace rfid {
namespace {

Aabb RandomBox(Rng& rng) {
  const Vec3 origin{rng.Uniform(0, 100), rng.Uniform(0, 100), 0};
  return Aabb(origin, origin + Vec3{rng.Uniform(0.5, 5), rng.Uniform(0.5, 5),
                                    0});
}

void BM_RStarTreeInsert(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    RStarTree tree(16);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      tree.Insert(RandomBox(rng), static_cast<uint64_t>(i));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RStarTreeInsert)->Arg(100)->Arg(1000)->Arg(10000);

void BM_RStarTreeQuery(benchmark::State& state) {
  Rng rng(2);
  RStarTree tree(16);
  for (int i = 0; i < state.range(0); ++i) {
    tree.Insert(RandomBox(rng), static_cast<uint64_t>(i));
  }
  std::vector<uint64_t> hits;
  for (auto _ : state) {
    hits.clear();
    tree.Query(RandomBox(rng), &hits);
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RStarTreeQuery)->Arg(1000)->Arg(10000)->Arg(100000);

/// The sensing-region index under a reader sweeping a 30 ft span back and
/// forth at 0.1 ft an epoch: one Insert plus one Probe (the filter's
/// per-epoch index work) with a radius-4.5 box, recording the objects
/// within it (one every 0.2 ft, about 45 per box). Each timed iteration
/// runs one more sweep on a copy of the index left by range(0) sweeps.
/// per_epoch is the wall time of one Insert plus Probe; entries is the
/// entry count the sweep starts from.
void BM_IndexRevisit(benchmark::State& state) {
  constexpr int kSweepEpochs = 300;
  constexpr double kRadius = 4.5;
  const auto box_at = [](int k) {
    return Aabb::FromCenterRadius({0.0, 0.1 * k, 0.0}, kRadius);
  };
  std::vector<std::vector<uint32_t>> slots_at(kSweepEpochs);
  for (int k = 0; k < kSweepEpochs; ++k) {
    for (uint32_t obj = 0; obj <= 150; ++obj) {
      if (std::abs(0.2 * obj - 0.1 * k) <= kRadius) {
        slots_at[k].push_back(obj);
      }
    }
  }
  // Epoch e of a sweep: forward on even sweeps, back on odd ones.
  const auto position = [](int sweep, int e) {
    return sweep % 2 == 0 ? e : kSweepEpochs - 1 - e;
  };
  const auto sweeps = static_cast<int>(state.range(0));
  SensingRegionIndex base;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (int e = 0; e < kSweepEpochs; ++e) {
      const int k = position(sweep, e);
      base.Insert(box_at(k), slots_at[k]);
    }
  }
  SensingRegionIndex::ProbeScratch scratch;
  std::vector<uint32_t> candidates;
  for (auto _ : state) {
    state.PauseTiming();
    SensingRegionIndex index = base;
    state.ResumeTiming();
    for (int e = 0; e < kSweepEpochs; ++e) {
      const int k = position(sweeps, e);
      candidates.clear();
      index.Probe(box_at(k), &scratch, &candidates);
      index.Insert(box_at(k), slots_at[k]);
      benchmark::DoNotOptimize(candidates.data());
    }
  }
  const auto epochs = static_cast<double>(state.iterations() * kSweepEpochs);
  state.SetItemsProcessed(static_cast<int64_t>(epochs));
  state.counters["per_epoch"] = benchmark::Counter(
      epochs, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["entries"] = static_cast<double>(base.num_entries());
}
BENCHMARK(BM_IndexRevisit)->Arg(1)->Arg(50);

template <ResampleScheme kScheme>
void BM_Resample(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> weights(state.range(0));
  for (double& w : weights) w = rng.NextDouble();
  NormalizeWeights(&weights);
  for (auto _ : state) {
    auto anc = ResampleAncestors(weights, weights.size(), kScheme, rng);
    benchmark::DoNotOptimize(anc);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Resample<ResampleScheme::kMultinomial>)->Arg(1000)->Arg(100000);
BENCHMARK(BM_Resample<ResampleScheme::kSystematic>)->Arg(1000)->Arg(100000);
BENCHMARK(BM_Resample<ResampleScheme::kResidual>)->Arg(1000)->Arg(100000);

void BM_ConeSensorProbRead(benchmark::State& state) {
  ConeSensorModel sensor;
  Rng rng(4);
  const Pose reader({0, 0, 0}, 0.0);
  for (auto _ : state) {
    const Vec3 tag{rng.Uniform(0, 6), rng.Uniform(-3, 3), 0};
    benchmark::DoNotOptimize(sensor.ProbReadAt(reader, tag));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConeSensorProbRead);

/// The factored weighting's kernel against the scalar loop above: SoA
/// particle positions at the particle store's ParticleCoord width, each
/// attached to one of 100 reader frames (the paper's reader-particle count)
/// and evaluated against its own frame.
struct GatherBatch {
  static constexpr size_t kFrames = 100;
  std::vector<ReaderFrame> frames;
  std::vector<ParticleCoord> xs, ys, zs;
  std::vector<double> out;
  std::vector<uint32_t> idx;

  explicit GatherBatch(size_t n) : xs(n), ys(n), zs(n), out(n), idx(n) {
    Rng rng(4);
    for (size_t j = 0; j < kFrames; ++j) {
      frames.push_back(ReaderFrame::From(
          Pose({rng.Uniform(-0.2, 0.2), rng.Uniform(-0.2, 0.2), 0},
               rng.Uniform(-0.1, 0.1))));
    }
    for (size_t k = 0; k < n; ++k) {
      const double x = rng.Uniform(0, 6);
      const double y = rng.Uniform(-3, 3);
      Set(k, x, y);
      idx[k] = static_cast<uint32_t>(rng.UniformInt(kFrames));
    }
  }

  /// Places particle k at (x, y, 0), rounded as the store rounds it.
  void Set(size_t k, double x, double y) {
    xs[k] = static_cast<ParticleCoord>(x);
    ys[k] = static_cast<ParticleCoord>(y);
    zs[k] = 0.0f;
  }
};

template <typename SensorT>
void BM_SensorProbReadBatch(benchmark::State& state) {
  SensorT sensor;
  const size_t n = static_cast<size_t>(state.range(0));
  GatherBatch b(n);
  for (auto _ : state) {
    sensor.ProbReadBatchGather(b.frames.data(), b.idx.data(), b.xs.data(),
                               b.ys.data(), b.zs.data(), n, b.out.data());
    benchmark::DoNotOptimize(b.out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SensorProbReadBatch<ConeSensorModel>)->Arg(1000);
BENCHMARK(BM_SensorProbReadBatch<LogisticSensorModel>)->Arg(1000);
BENCHMARK(BM_SensorProbReadBatch<SphericalSensorModel>)->Arg(1000);

/// The cone gather on the element mix a site's priming round weights
/// (PERF.md "Priming cost"): 45% past MaxRange, 38% in range but outside
/// the cone's bearing, the rest inside it; 100 reader frames. The first
/// two classes return 0 without the model, the bearing class without the
/// sqrt and acos.
void BM_ConeGatherSetupMix(benchmark::State& state) {
  const ConeSensorModel sensor;
  const size_t n = static_cast<size_t>(state.range(0));
  GatherBatch b(n);
  Rng rng(9);
  const double range = sensor.MaxRange();
  const double theta0 = sensor.BatchZeroAngle();
  for (size_t k = 0; k < n; ++k) {
    const double u = rng.NextDouble();
    const double r = u < 0.45 ? rng.Uniform(range, 2 * range)
                              : rng.Uniform(0.1, range);
    const double theta = u < 0.45   ? rng.Uniform(0.0, M_PI)
                         : u < 0.83 ? rng.Uniform(theta0, M_PI)
                                    : rng.Uniform(0.0, theta0);
    const double side = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    const ReaderFrame& f = b.frames[b.idx[k]];
    const double along = r * std::cos(theta);
    const double across = side * r * std::sin(theta);
    b.Set(k, f.origin.x + along * f.cos_heading - across * f.sin_heading,
          f.origin.y + along * f.sin_heading + across * f.cos_heading);
  }
  for (auto _ : state) {
    sensor.ProbReadBatchGather(b.frames.data(), b.idx.data(), b.xs.data(),
                               b.ys.data(), b.zs.data(), n, b.out.data());
    benchmark::DoNotOptimize(b.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ConeGatherSetupMix)->Arg(1000);

/// The cone gather on the element mix a read (Case-1) object's update
/// weights on warehouse: 26.7% in range but past the cone's bearing, 39.3%
/// inside the major wedge, 33.5% in the minor wedge, 0.5% past MaxRange;
/// 100 reader frames. The bearing class returns 0 without the sqrt and
/// acos, the major-wedge class ProbRead(dist, 0) without the division and
/// acos; only the minor wedge takes the exact path.
void BM_ConeGatherReadMix(benchmark::State& state) {
  const ConeSensorModel sensor;
  const size_t n = static_cast<size_t>(state.range(0));
  GatherBatch b(n);
  Rng rng(11);
  const double range = sensor.MaxRange();
  const double theta_f = sensor.params().major_half_angle;
  const double theta0 = sensor.BatchZeroAngle();
  for (size_t k = 0; k < n; ++k) {
    const double u = rng.NextDouble();
    const double r = u < 0.005 ? rng.Uniform(range, 2 * range)
                               : rng.Uniform(0.1, range);
    const double theta = u < 0.005   ? rng.Uniform(0.0, M_PI)
                         : u < 0.272 ? rng.Uniform(theta0, M_PI)
                         : u < 0.665 ? rng.Uniform(0.0, theta_f)
                                     : rng.Uniform(theta_f, theta0);
    const double side = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    const ReaderFrame& f = b.frames[b.idx[k]];
    const double along = r * std::cos(theta);
    const double across = side * r * std::sin(theta);
    b.Set(k, f.origin.x + along * f.cos_heading - across * f.sin_heading,
          f.origin.y + along * f.sin_heading + across * f.cos_heading);
  }
  for (auto _ : state) {
    sensor.ProbReadBatchGather(b.frames.data(), b.idx.data(), b.xs.data(),
                               b.ys.data(), b.zs.data(), n, b.out.data());
    benchmark::DoNotOptimize(b.out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ConeGatherReadMix)->Arg(1000);

/// §IV-A initial particles as one epoch of the filter draws them: one
/// Prepare() over 100 reader hypotheses spread around an aisle position,
/// facing the shelves, then a draw from each frame in turn. Counters give
/// the work per particle from an untimed pass over the same frames:
/// rejection tries, tries that drew a point, and the fallback share.
void RunInitializer(benchmark::State& state, const SensorModel& sensor,
                    const ShelfRegions& shelves, double aisle_y) {
  ParticleInitializer initializer(InitializerConfig{}, &sensor, &shelves);
  Rng rng(10);
  std::vector<Pose> poses;
  std::vector<ReaderFrame> frames;
  Aabb cloud = Aabb::Empty();
  for (int i = 0; i < 100; ++i) {
    poses.emplace_back(Vec3{rng.Gaussian(0.0, 0.1),
                            aisle_y + rng.Gaussian(0.0, 0.3), 0.0},
                       rng.Gaussian(0.0, 0.05));
    frames.push_back(ReaderFrame::From(poses.back()));
    cloud.Extend(poses.back().position);
  }
  initializer.Prepare(cloud);
  size_t k = 0;
  for (auto _ : state) {
    const size_t j = k++ % poses.size();
    benchmark::DoNotOptimize(initializer.Sample(poses[j], frames[j], rng));
  }
  state.SetItemsProcessed(state.iterations());

  constexpr int kTraced = 20000;
  double tries = 0.0, points = 0.0, fallbacks = 0.0;
  for (int i = 0; i < kTraced; ++i) {
    InitSampleTrace trace;
    const size_t j = static_cast<size_t>(i) % poses.size();
    benchmark::DoNotOptimize(
        initializer.Sample(poses[j], frames[j], rng, &trace));
    tries += trace.tries;
    points += trace.points;
    fallbacks += trace.fallback ? 1.0 : 0.0;
  }
  state.counters["tries"] = tries / kTraced;
  state.counters["points"] = points / kTraced;
  state.counters["fallback_share"] = fallbacks / kTraced;
}

/// The end-to-end warehouse layout (40 shelves of 10 ft) under the cone
/// sensor, the reader at its middle.
void BM_InitializerSample(benchmark::State& state) {
  WarehouseConfig wc;
  wc.num_shelves = 40;
  wc.shelf_length = 10.0;
  const WarehouseLayout layout = BuildWarehouse(wc).value();
  RunInitializer(state, ConeSensorModel(), layout.MakeShelfRegions(),
                 0.5 * layout.TotalYExtent());
}
BENCHMARK(BM_InitializerSample);

/// The case the fallback dominates: a 30 ft initialization cone (a learned
/// 25 ft range, as EM's logistic model reaches at its cap) over one
/// 10 x 1 ft shelf, about 1% of the cone, so half the draws use all 64
/// tries.
void BM_InitializerSampleWideCone(benchmark::State& state) {
  WarehouseConfig wc;
  wc.num_shelves = 1;
  wc.shelf_length = 10.0;
  const WarehouseLayout layout = BuildWarehouse(wc).value();
  ConeSensorParams wide;
  wide.major_range = 23.5;
  wide.minor_extra_range = 1.5;
  RunInitializer(state, ConeSensorModel(wide), layout.MakeShelfRegions(),
                 0.5 * layout.TotalYExtent());
}
BENCHMARK(BM_InitializerSampleWideCone);

void BM_LogisticSensorProbRead(benchmark::State& state) {
  LogisticSensorModel sensor;
  Rng rng(5);
  const Pose reader({0, 0, 0}, 0.0);
  for (auto _ : state) {
    const Vec3 tag{rng.Uniform(0, 6), rng.Uniform(-3, 3), 0};
    benchmark::DoNotOptimize(sensor.ProbReadAt(reader, tag));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogisticSensorProbRead);

void BM_GaussianBeliefFit(benchmark::State& state) {
  Rng rng(6);
  std::vector<WeightedPoint> points(state.range(0));
  for (auto& p : points) {
    p.position = {rng.Gaussian(0, 1), rng.Gaussian(0, 1), 0};
    p.weight = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(GaussianBelief::Fit(points));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GaussianBeliefFit)->Arg(10)->Arg(1000);

void BM_GaussianBeliefSample(benchmark::State& state) {
  Rng rng(7);
  const GaussianBelief belief({1, 2, 0}, {0.5, 0.1, 0, 0.3, 0, 0.01});
  for (auto _ : state) {
    benchmark::DoNotOptimize(belief.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaussianBeliefSample);

/// Resolution of 1,000 reader attachments over 100 readers through a remap
/// history of range(0) records, each record copying range(1) surviving
/// readers (in blocks) into all 100: the draws of one 1,000-particle slot's
/// sync lagging range(0) records, the records' copy tables built outside
/// the timed loop. ReplayRemaps draws once per attachment per record.
/// per_attachment is the wall time per resolved attachment.
void BM_RemapResolve(benchmark::State& state) {
  constexpr uint32_t kReaders = 100;
  constexpr size_t kAttachments = 1000;
  const auto lag = static_cast<size_t>(state.range(0));
  const auto survivors = static_cast<size_t>(state.range(1));
  Rng rng(17);
  std::vector<uint32_t> readers(kReaders);
  std::iota(readers.begin(), readers.end(), 0u);
  std::vector<ReaderRemapRecord> history;
  for (size_t r = 0; r < lag; ++r) {
    // The first `survivors` readers of a partial shuffle survive record r.
    for (size_t i = 0; i < survivors; ++i) {
      std::swap(readers[i], readers[i + rng.UniformInt(kReaders - i)]);
    }
    std::vector<uint32_t> ancestors(kReaders);
    for (uint32_t j = 0; j < kReaders; ++j) {
      ancestors[j] = readers[j * survivors / kReaders];
    }
    history.emplace_back(static_cast<int64_t>(r), std::move(ancestors));
  }
  std::vector<uint32_t> starts(kAttachments);
  for (uint32_t& a : starts) {
    a = static_cast<uint32_t>(rng.UniformInt(kReaders));
  }
  std::vector<uint32_t> resolved(kAttachments);
  for (auto _ : state) {
    std::copy(starts.begin(), starts.end(), resolved.begin());
    ReplayRemaps(history, 0, resolved.data(), kAttachments, rng);
    benchmark::DoNotOptimize(resolved.data());
    benchmark::ClobberMemory();
  }
  const auto items = static_cast<double>(state.iterations() * kAttachments);
  state.SetItemsProcessed(static_cast<int64_t>(items));
  state.counters["per_attachment"] = benchmark::Counter(
      items, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RemapResolve)->Args({1, 1})->Args({1, 5})->Args({8, 5});

/// A dependent chain of `iters` multiply-adds: fixed compute that the
/// compiler can neither fold nor vectorize, with no clock read inside.
double SpinWork(uint64_t iters, double x) {
  for (uint64_t i = 0; i < iters; ++i) x = x * 0.9999999 + 1e-7;
  return x;
}

/// SpinWork iterations per microsecond on the host running the benchmark,
/// measured once.
double SpinItersPerMicro() {
  static const double rate = [] {
    constexpr uint64_t kIters = 20'000'000;
    Stopwatch watch;
    benchmark::DoNotOptimize(SpinWork(kIters, 0.5));
    return static_cast<double>(kIters) / watch.ElapsedMicros();
  }();
  return rate;
}

/// CPU the calling thread runs on (-1 where sched_getcpu is unavailable).
int CurrentCpu() {
#ifdef __linux__
  return sched_getcpu();
#else
  return -1;
#endif
}

/// One ThreadPool job of 16 equal chunks of fixed compute — range(1)
/// microseconds in all, calibrated before the timed loop — at pool width
/// range(0). Real time per job against the width-1 row is the hand-off's
/// price or the lanes' gain. distinct_cpus is the mean number of CPUs a
/// job's chunks ran on, and on_caller_cpu the mean share of its chunks run
/// on the CPU the caller published the job from (Linux; sched_getcpu).
void BM_PoolHandoff(benchmark::State& state) {
  constexpr size_t kChunks = 16;
  const int width = static_cast<int>(state.range(0));
  const auto chunk_iters = static_cast<uint64_t>(
      SpinItersPerMicro() * static_cast<double>(state.range(1)) /
      static_cast<double>(kChunks));
  ThreadPool pool(width);
  std::array<double, kChunks> out{};
  std::array<int, kChunks> cpus{};
  double distinct_sum = 0.0;
  double on_caller_sum = 0.0;
  for (auto _ : state) {
    const int caller_cpu = CurrentCpu();
    pool.ParallelForDynamic(kChunks, 1, [&](size_t i, int) {
      out[i] = SpinWork(chunk_iters, 0.5 + static_cast<double>(i));
      cpus[i] = CurrentCpu();
    });
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    std::array<int, kChunks> sorted = cpus;
    std::sort(sorted.begin(), sorted.end());
    distinct_sum += static_cast<double>(
        std::unique(sorted.begin(), sorted.end()) - sorted.begin());
    on_caller_sum +=
        static_cast<double>(std::count(cpus.begin(), cpus.end(), caller_cpu)) /
        static_cast<double>(kChunks);
  }
  const auto jobs = static_cast<double>(state.iterations());
  state.counters["distinct_cpus"] = distinct_sum / jobs;
  state.counters["on_caller_cpu"] = on_caller_sum / jobs;
}
BENCHMARK(BM_PoolHandoff)
    ->ArgsProduct({{1, 2, 4}, {50, 500, 5000}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_FactoredFilterEpoch(benchmark::State& state) {
  // One epoch of the factored filter over a mid-sized warehouse stream;
  // second argument is the worker-pool width.
  WarehouseConfig wc;
  wc.num_shelves = 4;
  wc.objects_per_shelf = static_cast<int>(state.range(0)) / 4;
  wc.shelf_tags_per_shelf = 2;
  auto layout = BuildWarehouse(wc);
  ConeSensorModel sensor;
  TraceGenerator gen(layout.value(), RobotConfig{}, {}, sensor, 8);
  const SimulatedTrace trace = gen.Generate();

  ExperimentModelOptions options;
  options.motion.delta = {0.0, 0.1, 0.0};
  options.motion.sigma = {0.02, 0.02, 0.0};
  FactoredFilterConfig config;
  config.num_reader_particles = 100;
  config.num_object_particles = 1000;
  config.seed = 9;
  config.num_threads = static_cast<int>(state.range(1));
  FactoredParticleFilter filter(
      MakeWorldModel(layout.value(), std::make_unique<ConeSensorModel>(),
                     options),
      config);

  size_t epoch_idx = 0;
  size_t readings = 0;
  for (auto _ : state) {
    const auto& epoch = trace.epochs[epoch_idx % trace.epochs.size()];
    filter.ObserveEpoch(epoch.observations);
    readings += epoch.observations.tags.size();
    ++epoch_idx;
  }
  state.SetItemsProcessed(static_cast<int64_t>(readings));
  state.SetLabel("items = readings");
}
BENCHMARK(BM_FactoredFilterEpoch)
    ->Args({40, 1})
    ->Args({200, 1})
    ->Args({200, 4});

/// Short self-timed factored run for BENCH_micro.json (epochs/sec,
/// particles/sec at a given pool width), independent of the
/// google-benchmark output format.
void WriteMicroJson() {
  bench::BenchJson json("micro");
  for (const int threads : {1, 4}) {
    WarehouseConfig wc;
    wc.num_shelves = 4;
    wc.objects_per_shelf = 50;
    wc.shelf_tags_per_shelf = 2;
    auto layout = BuildWarehouse(wc);
    ConeSensorModel sensor;
    TraceGenerator gen(layout.value(), RobotConfig{}, {}, sensor, 8);
    const SimulatedTrace trace = gen.Generate();

    ExperimentModelOptions options;
    options.motion.delta = {0.0, 0.1, 0.0};
    options.motion.sigma = {0.02, 0.02, 0.0};
    FactoredFilterConfig config;
    config.num_reader_particles = 100;
    config.num_object_particles = 1000;
    config.seed = 9;
    config.num_threads = threads;
    FactoredParticleFilter filter(
        MakeWorldModel(layout.value(), std::make_unique<ConeSensorModel>(),
                       options),
        config);
    Stopwatch watch;
    for (const auto& epoch : trace.epochs) {
      filter.ObserveEpoch(epoch.observations);
    }
    const double seconds = watch.ElapsedSeconds();
    json.BeginRow();
    json.Add("benchmark", "factored_filter_trace");
    json.Add("objects", wc.num_shelves * wc.objects_per_shelf);
    json.Add("threads", threads);
    json.Add("epochs", trace.epochs.size());
    json.Add("epochs_per_sec",
             seconds > 0 ? trace.epochs.size() / seconds : 0.0);
    json.Add("particles_per_sec",
             seconds > 0
                 ? static_cast<double>(filter.particle_updates()) / seconds
                 : 0.0);
  }
  if (!json.WriteFile("BENCH_micro.json")) {
    std::fprintf(stderr, "warning: failed writing BENCH_micro.json\n");
  } else {
    std::printf("wrote BENCH_micro.json\n");
  }
}

}  // namespace
}  // namespace rfid

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  rfid::WriteMicroJson();
  return 0;
}
