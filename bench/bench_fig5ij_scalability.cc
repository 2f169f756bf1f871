// Fig. 5(i) + 5(j): scalability in the number of objects.
//
// Four variants over synthetic streams from two scan rounds of a large
// warehouse (accuracy requirement: 0.5 ft):
//   unfactorized             — basic joint particle filter (§IV-A),
//   factorized               — per-object particles, no index (§IV-B),
//   factorized+index         — spatial indexing of sensing regions (§IV-C),
//   factorized+index+compress— belief compression on top (§IV-D).
// Reported per variant and object count: mean XY error (Fig. 5(i)) and
// milliseconds per processed reading (Fig. 5(j), log scale in the paper).
//
// The basic filter is capped at 20 objects and the index-less factorized
// filter at a few hundred — exactly the scaling walls the paper plots. Run
// with RFID_FULL_SCALE=1 for the paper's full 10..20,000 range.
//
// The bench exits non-zero unless the figures' claims hold as inequalities,
// each printed with its margin: wherever the basic filter runs, the
// factorized filter is at least as accurate at a tenth of its time per
// reading or less; wherever both run, the spatial index moves the
// factorized error by at most 0.01 ft; and every factored variant meets the
// 0.5 ft accuracy requirement. §IV-D's compression, which no end-to-end
// workload turns on, has two more: at every count it adds at most 0.10 ft
// to the index variant's error (0.017-0.077 ft when the gate was added,
// most at 2,000 objects), and from 500 objects on, the filter's particle
// and belief memory at the end of the run is at most 0.05x the index
// variant's (0.023, 0.020 and 0.020 at 500, 1,000 and 2,000 objects:
// 11.62 -> 0.26, 23.24 -> 0.47 and 46.48 -> 0.94 MiB). Below 500 objects
// the share read 0.10-0.49, so no memory bound is set there.
#include <cmath>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "pf/factored_filter.h"
#include "sim/trace.h"

namespace rfid {
namespace {

/// The accuracy requirement every factored variant must meet (ft).
constexpr double kRequiredErrorFt = 0.5;
/// Largest error change the spatial index may cause (ft).
constexpr double kIndexErrorToleranceFt = 0.01;
/// The factorized filter's time per reading is at most this share of the
/// basic filter's (0.1 vs 3.8-5.8 ms when the gate was added).
constexpr double kMaxFactoredTimeShare = 0.1;
/// Largest error compression may add to the index variant's (ft).
constexpr double kCompressionErrorToleranceFt = 0.10;
/// Compression's end-of-run memory is at most this share of the index
/// variant's, from kCompressionMemoryMinObjects objects on.
constexpr double kMaxCompressedMemoryShare = 0.05;
constexpr int kCompressionMemoryMinObjects = 500;

struct VariantResult {
  double error = -1.0;  ///< -1: not run (beyond the variant's wall).
  double ms_per_reading = -1.0;
  /// The factored filter's ApproxMemoryBytes at the end of the run (MiB).
  double memory_mb = -1.0;

  bool ran() const { return error >= 0.0; }
};

/// The four variants at one object count.
struct CountResult {
  int objects = 0;
  VariantResult unfact, fact, fact_idx, fact_idx_comp;
};

/// The Fig. 5(i)/(j) claims over every count, each inequality lhs <= rhs
/// printed with its margin; returns how many fail.
int CheckPaperResults(const std::vector<CountResult>& results) {
  std::printf("\nPaper-result gate (Fig. 5(i)/(j)):\n");
  int failures = 0;
  const auto check = [&failures](int objects, const char* what, double lhs,
                                 double rhs) {
    char labelled[160];
    std::snprintf(labelled, sizeof(labelled), "objects=%-5d %s", objects,
                  what);
    if (!bench::CheckAtMost(labelled, lhs, rhs)) ++failures;
  };
  for (const CountResult& r : results) {
    if (r.unfact.ran() && r.fact.ran()) {
      check(r.objects, "factorized error <= unfactorized error", r.fact.error,
            r.unfact.error);
      check(r.objects, "factorized ms/reading <= unfactorized / 10",
            r.fact.ms_per_reading,
            kMaxFactoredTimeShare * r.unfact.ms_per_reading);
    }
    if (r.fact.ran() && r.fact_idx.ran()) {
      check(r.objects, "|factorized+index - factorized| error (ft)",
            std::abs(r.fact_idx.error - r.fact.error),
            kIndexErrorToleranceFt);
    }
    check(r.objects, "compress - index error (ft)",
          r.fact_idx_comp.error - r.fact_idx.error,
          kCompressionErrorToleranceFt);
    if (r.objects >= kCompressionMemoryMinObjects) {
      check(r.objects, "compress memory (MiB) <= index memory x 0.05",
            r.fact_idx_comp.memory_mb,
            kMaxCompressedMemoryShare * r.fact_idx.memory_mb);
    }
    const std::pair<const char*, const VariantResult*> factored[] = {
        {"factorized error (ft)", &r.fact},
        {"factorized+index error (ft)", &r.fact_idx},
        {"factorized+index+compress error (ft)", &r.fact_idx_comp}};
    for (const auto& [what, v] : factored) {
      if (v->ran()) check(r.objects, what, v->error, kRequiredErrorFt);
    }
  }
  return failures;
}

SimulatedTrace MakeScalabilityTrace(int num_objects, uint64_t seed,
                                    WarehouseLayout* layout_out) {
  WarehouseConfig wc;
  wc.objects_per_shelf = 50;
  wc.num_shelves = std::max(1, num_objects / wc.objects_per_shelf);
  wc.objects_per_shelf = (num_objects + wc.num_shelves - 1) / wc.num_shelves;
  wc.shelf_length = 8.0;
  wc.shelf_tags_per_shelf = 2;
  auto layout = BuildWarehouse(wc);
  RobotConfig robot;
  robot.rounds = 2;  // Two rounds: compression must survive a rescan.
  ConeSensorModel sensor;
  TraceGenerator gen(layout.value(), robot, {}, sensor, seed);
  *layout_out = layout.value();
  return gen.Generate();
}

ExperimentModelOptions ScalabilityModelOptions() {
  ExperimentModelOptions options;
  options.motion.delta = {};  // Two passes in opposite directions.
  options.motion.sigma = {0.05, 0.15, 0.0};
  return options;
}

VariantResult RunVariant(const WarehouseLayout& layout,
                         const SimulatedTrace& trace,
                         EngineConfig::FilterKind kind, bool index,
                         bool compression) {
  EngineConfig config;
  config.filter = kind;
  config.basic.num_particles = bench::FullScale() ? 100000 : 10000;
  config.basic.seed = 31;
  config.factored.num_reader_particles = 100;
  config.factored.num_object_particles = 1000;
  config.factored.seed = 31;
  config.factored.use_spatial_index = index;
  if (compression) {
    config.factored.compression.compress_after_epochs = 8;
  }
  auto engine = RfidInferenceEngine::Create(
      MakeWorldModel(layout, std::make_unique<ConeSensorModel>(),
                     ScalabilityModelOptions()),
      config);
  const TraceEvaluation eval = RunEngineOnTrace(engine.value().get(), trace);
  VariantResult result;
  result.error = eval.errors.MeanXY();
  result.ms_per_reading = eval.engine_stats.MillisPerReading();
  if (const auto* filter = dynamic_cast<const FactoredParticleFilter*>(
          &engine.value()->filter())) {
    result.memory_mb = filter->ApproxMemoryBytes() / (1024.0 * 1024.0);
  }
  return result;
}

}  // namespace
}  // namespace rfid

int main() {
  using namespace rfid;
  bench::PrintHeader(
      "Scalability: inference error and time per reading vs object count",
      "Fig. 5(i) and Fig. 5(j)");

  std::vector<int> counts = {10, 20, 50, 100, 500, 1000, 2000};
  int unfact_cap = 20, fact_cap = 200;
  if (bench::FullScale()) {
    counts = {10, 20, 100, 1000, 5000, 10000, 20000};
    fact_cap = 1000;
  }

  TableWriter err_table({"objects", "unfactorized", "factorized",
                         "factorized_index", "factorized_index_compress"});
  TableWriter time_table({"objects", "unfactorized", "factorized",
                          "factorized_index", "factorized_index_compress"});

  std::vector<CountResult> results;
  for (int n : counts) {
    WarehouseLayout layout;
    const SimulatedTrace trace =
        MakeScalabilityTrace(n, 1100 + static_cast<uint64_t>(n), &layout);

    VariantResult unfact, fact, fact_idx, fact_idx_comp;
    if (n <= unfact_cap) {
      unfact = RunVariant(layout, trace, EngineConfig::FilterKind::kBasic,
                          false, false);
    }
    if (n <= fact_cap) {
      fact = RunVariant(layout, trace, EngineConfig::FilterKind::kFactored,
                        false, false);
    }
    fact_idx = RunVariant(layout, trace, EngineConfig::FilterKind::kFactored,
                          true, false);
    fact_idx_comp = RunVariant(layout, trace,
                               EngineConfig::FilterKind::kFactored, true,
                               true);

    (void)err_table.AddRow({static_cast<double>(n), unfact.error, fact.error,
                            fact_idx.error, fact_idx_comp.error},
                           3);
    (void)time_table.AddRow(
        {static_cast<double>(n), unfact.ms_per_reading, fact.ms_per_reading,
         fact_idx.ms_per_reading, fact_idx_comp.ms_per_reading},
        3);
    results.push_back({n, unfact, fact, fact_idx, fact_idx_comp});
    std::printf("objects=%d done\n", n);
  }

  std::printf("\nFig 5(i) — mean XY inference error (ft); -1 = variant not "
              "run at this scale\n");
  bench::PrintTable(err_table);
  std::printf("\nFig 5(j) — milliseconds per processed reading; -1 = variant "
              "not run at this scale\n");
  bench::PrintTable(time_table);

  bench::BenchJson json("fig5ij");
  bench::AddTableRows(err_table, "error_xy_ft", &json);
  bench::AddTableRows(time_table, "ms_per_reading", &json);
  bench::WriteBenchJson(json, "fig5ij");

  const int failures = CheckPaperResults(results);
  if (failures > 0) {
    std::fprintf(stderr, "FIG5IJ GATE FAILED: %d inequalities do not hold\n",
                 failures);
    return 1;
  }
  return 0;
}
