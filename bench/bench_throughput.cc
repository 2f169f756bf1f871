// §V-D throughput claims:
//  - with spatial indexing + belief compression, the system sustains a
//    constant rate of over 1500 readings per second at warehouse scale;
//  - the naive (unfactorized) particle filter manages ~0.1 reading/second
//    with 20 objects while striving for comparable accuracy.
// Also reports the approximate particle-storage memory with and without
// compression (the paper reports < 20 MB with compression), and sweeps the
// factored filter's worker-pool width (num_threads 1/2/4) to track the
// batched-kernel + parallel-update speedups. Results additionally land in
// BENCH_throughput.json (epochs/sec, readings/sec, particles/sec, threads)
// so later PRs have a perf trajectory to regress against.
#include "bench_util.h"
#include "pf/factored_filter.h"
#include "sim/trace.h"

namespace rfid {
namespace {

SimulatedTrace MakeTrace(int num_objects, uint64_t seed,
                         WarehouseLayout* layout_out) {
  WarehouseConfig wc;
  wc.objects_per_shelf = 50;
  wc.num_shelves = std::max(1, num_objects / 50);
  wc.objects_per_shelf = (num_objects + wc.num_shelves - 1) / wc.num_shelves;
  wc.shelf_tags_per_shelf = 2;
  auto layout = BuildWarehouse(wc);
  RobotConfig robot;
  robot.rounds = 2;
  ConeSensorModel sensor;
  TraceGenerator gen(layout.value(), robot, {}, sensor, seed);
  *layout_out = layout.value();
  return gen.Generate();
}

ExperimentModelOptions Options() {
  ExperimentModelOptions options;
  options.motion.delta = {};
  options.motion.sigma = {0.05, 0.15, 0.0};
  return options;
}

struct FactoredRunResult {
  TraceEvaluation eval;
  double memory_mb = 0.0;
  double particles_per_sec = 0.0;
};

FactoredRunResult RunFactored(const WarehouseLayout& layout,
                              const SimulatedTrace& trace, bool compression,
                              int threads) {
  EngineConfig config;
  config.factored.num_reader_particles = 100;
  config.factored.num_object_particles = 1000;
  config.factored.seed = 51;
  config.factored.num_threads = threads;
  if (compression) {
    config.factored.compression.compress_after_epochs = 8;
  }
  auto engine = RfidInferenceEngine::Create(
      MakeWorldModel(layout, std::make_unique<ConeSensorModel>(), Options()),
      config);
  FactoredRunResult result;
  result.eval = RunEngineOnTrace(engine.value().get(), trace);
  const auto* filter = dynamic_cast<const FactoredParticleFilter*>(
      &engine.value()->filter());
  result.memory_mb = filter->ApproxMemoryBytes() / (1024.0 * 1024.0);
  const double seconds = result.eval.engine_stats.processing_seconds;
  result.particles_per_sec =
      seconds > 0 ? static_cast<double>(filter->particle_updates()) / seconds
                  : 0.0;
  return result;
}

}  // namespace
}  // namespace rfid

int main() {
  using namespace rfid;
  bench::PrintHeader("Throughput: readings/second per configuration",
                     "§V-D text (1500 readings/s; naive PF 0.1 reading/s)");

  TableWriter table({"configuration", "objects", "threads",
                     "readings_per_sec", "ms_per_reading", "epochs_per_sec",
                     "particle_mem_mb"});
  bench::BenchJson json("throughput");

  const int big = bench::FullScale() ? 20000 : 2000;
  // One trace shared across the whole factored sweep: generation at the
  // 20k-object scale is itself expensive.
  WarehouseLayout layout;
  const SimulatedTrace trace = MakeTrace(big, 5100, &layout);
  for (const bool compression : {true, false}) {
    const std::string name =
        compression ? "factorized+index+compression" : "factorized+index";
    for (const int threads : {1, 2, 4}) {
      const FactoredRunResult run =
          RunFactored(layout, trace, compression, threads);
      const EngineStats& stats = run.eval.engine_stats;
      (void)table.AddRow({name, std::to_string(big), std::to_string(threads),
                          FormatDouble(stats.ReadingsPerSecond(), 0),
                          FormatDouble(stats.MillisPerReading(), 3),
                          FormatDouble(stats.EpochsPerSecond(), 1),
                          FormatDouble(run.memory_mb, 1)});
      json.BeginRow();
      json.Add("configuration", name);
      json.Add("objects", big);
      json.Add("threads", threads);
      json.Add("epochs_per_sec", stats.EpochsPerSecond());
      json.Add("readings_per_sec", stats.ReadingsPerSecond());
      json.Add("particles_per_sec", run.particles_per_sec);
      json.Add("ms_per_reading", stats.MillisPerReading());
      json.Add("particle_mem_mb", run.memory_mb);
    }
  }

  // Naive filter with 20 objects (the paper's 0.1 reading/s data point).
  {
    WarehouseLayout naive_layout;
    const SimulatedTrace naive_trace = MakeTrace(20, 5200, &naive_layout);
    EngineConfig config;
    config.filter = EngineConfig::FilterKind::kBasic;
    config.basic.num_particles = bench::FullScale() ? 100000 : 20000;
    config.basic.seed = 52;
    auto engine = RfidInferenceEngine::Create(
        MakeWorldModel(naive_layout, std::make_unique<ConeSensorModel>(),
                       Options()),
        config);
    const TraceEvaluation eval =
        RunEngineOnTrace(engine.value().get(), naive_trace);
    (void)table.AddRow(
        {"unfactorized (naive)", "20", "1",
         FormatDouble(eval.engine_stats.ReadingsPerSecond(), 1),
         FormatDouble(eval.engine_stats.MillisPerReading(), 3),
         FormatDouble(eval.engine_stats.EpochsPerSecond(), 1), "-"});
    json.BeginRow();
    json.Add("configuration", "unfactorized (naive)");
    json.Add("objects", 20);
    json.Add("threads", 1);
    json.Add("epochs_per_sec", eval.engine_stats.EpochsPerSecond());
    json.Add("readings_per_sec", eval.engine_stats.ReadingsPerSecond());
    json.Add("ms_per_reading", eval.engine_stats.MillisPerReading());
  }

  bench::PrintTable(table);
  if (!json.WriteFile("BENCH_throughput.json")) {
    std::fprintf(stderr, "warning: failed writing BENCH_throughput.json\n");
  } else {
    std::printf("wrote BENCH_throughput.json\n");
  }
  std::printf("note: run with RFID_FULL_SCALE=1 for the paper's 20,000-object"
              " / 100k-particle configuration.\n");
  return 0;
}
