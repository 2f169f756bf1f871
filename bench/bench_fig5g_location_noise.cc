// Fig. 5(g): inference error vs systematic reader-location error along y.
//
// mu_y sweeps 0.1..1.0 ft with random noise sigma_y = 0.2 ft. Curves:
//  - uniform: worst-case baseline,
//  - motion model Off: the reported location is taken as the true reader
//    location (no correction possible),
//  - model On - learned: sensing bias/noise learned by EM from a training
//    trace collected under the same noise,
//  - model On - true: inference given the true sensing parameters.
// The shelf tags are what lets the motion/sensing model correct the
// systematic drift.
//
// The bench exits non-zero unless the figure's claims hold as inequalities,
// each printed with its margin: without the model the error grows with the
// bias (by at least 1.5x from mu_y = 0.1 to 1.0); with it, learned or true,
// every error stays within 0.6 ft, and at mu_y = 1.0 within half the
// model-off error; and every filter error is at most half the uniform
// baseline's.
#include <utility>
#include <vector>

#include "bench_util.h"
#include "learn/em.h"
#include "sim/trace.h"

namespace rfid {
namespace {

constexpr double kSigmaY = 0.2;

/// Smallest growth of the model-off error from the first bias (0.1 ft) to
/// the last (1.0 ft); it read 2.06x (0.454 -> 0.934) when the gate was
/// added.
constexpr double kMinOffErrorGrowth = 1.5;
/// Largest model-on error, learned or true, in feet (0.516 when the gate
/// was added).
constexpr double kMaxModelOnErrorFt = 0.6;
/// Largest model-on error at the last bias as a share of the model-off
/// error there (0.401 vs 0.934 when the gate was added).
constexpr double kMaxOnShareOfOff = 0.5;
/// Largest filter error as a share of the uniform baseline's at the same
/// bias (the worst read 0.434 when the gate was added).
constexpr double kMaxErrorShareOfUniform = 0.5;

struct NoiseResult {
  double mu_y = 0.0;
  double uniform_error = 0.0;
  double off_error = 0.0;
  double learned_error = 0.0;
  double true_error = 0.0;
};

/// The Fig. 5(g) claims over the sweep, each inequality lhs <= rhs printed
/// with its margin; returns how many fail.
int CheckPaperResults(const std::vector<NoiseResult>& results) {
  std::printf("\nPaper-result gate (Fig. 5(g)):\n");
  int failures = 0;
  const auto check = [&failures](const char* what, double lhs, double rhs) {
    if (!bench::CheckAtMost(what, lhs, rhs)) ++failures;
  };
  if (results.size() < 2) {
    std::printf("  FAIL the sweep has fewer than two biases\n");
    return 1;
  }
  const NoiseResult& first = results.front();
  const NoiseResult& last = results.back();
  char what[128];
  std::snprintf(what, sizeof(what),
                "model off: %.1f x error at mu_y %.2f <= error at mu_y %.2f",
                kMinOffErrorGrowth, first.mu_y, last.mu_y);
  check(what, kMinOffErrorGrowth * first.off_error, last.off_error);
  for (const NoiseResult& r : results) {
    std::snprintf(what, sizeof(what), "mu_y %.2f: model on, learned <= %.1f ft",
                  r.mu_y, kMaxModelOnErrorFt);
    check(what, r.learned_error, kMaxModelOnErrorFt);
    std::snprintf(what, sizeof(what), "mu_y %.2f: model on, true <= %.1f ft",
                  r.mu_y, kMaxModelOnErrorFt);
    check(what, r.true_error, kMaxModelOnErrorFt);
  }
  for (const auto& [name, error] :
       {std::pair<const char*, double>{"learned", last.learned_error},
        {"true", last.true_error}}) {
    std::snprintf(what, sizeof(what),
                  "mu_y %.2f: model on, %s <= model off / 2", last.mu_y, name);
    check(what, error, kMaxOnShareOfOff * last.off_error);
  }
  for (const NoiseResult& r : results) {
    for (const auto& [name, error] :
         {std::pair<const char*, double>{"model off", r.off_error},
          {"model on, learned", r.learned_error},
          {"model on, true", r.true_error}}) {
      std::snprintf(what, sizeof(what), "mu_y %.2f: %s <= uniform / 2",
                    r.mu_y, name);
      check(what, error, kMaxErrorShareOfUniform * r.uniform_error);
    }
  }
  return failures;
}

SimulatedTrace MakeTrace(const WarehouseLayout& layout, double mu_y,
                         uint64_t seed) {
  RobotConfig robot;
  robot.sensing_noise.mu = {0.0, mu_y, 0.0};
  robot.sensing_noise.sigma = {0.01, kSigmaY, 0.0};
  ConeSensorModel sensor;
  TraceGenerator gen(layout, robot, {}, sensor, seed);
  return gen.Generate();
}

}  // namespace
}  // namespace rfid

int main() {
  using namespace rfid;
  bench::PrintHeader(
      "Inference error vs systematic reader-location error (sigma_y = 0.2)",
      "Fig. 5(g)");

  // 16 objects + 6 shelf tags; extra particles to cope with the noise
  // (the paper uses 5000/object; the trend is stable from ~2000).
  WarehouseConfig wc = bench::SensitivityWarehouse(16, 6);
  auto layout = BuildWarehouse(wc);
  const int particles = bench::FullScale() ? 5000 : 2000;

  ExperimentModelOptions base;
  base.motion.delta = {0.0, 0.1, 0.0};
  base.motion.sigma = {0.02, 0.02, 0.0};

  auto run_engine = [&](const SimulatedTrace& trace,
                        const LocationSensingParams& sensing) {
    ExperimentModelOptions options = base;
    options.sensing = sensing;
    EngineConfig config = bench::DefaultEngineConfig();
    config.factored.num_object_particles = particles;
    auto engine = RfidInferenceEngine::Create(
        MakeWorldModel(layout.value(), std::make_unique<ConeSensorModel>(),
                       options),
        config);
    return RunEngineOnTrace(engine.value().get(), trace).errors.MeanXY();
  };

  TableWriter table({"mu_y", "uniform", "motion_model_off",
                     "model_on_learned", "model_on_true"});
  std::vector<NoiseResult> results;
  for (double mu_y = 0.1; mu_y <= 1.01; mu_y += 0.15) {
    const SimulatedTrace trace =
        MakeTrace(layout.value(), mu_y, 700 + static_cast<uint64_t>(mu_y * 100));

    ConeSensorModel sensor;
    UniformBaseline uniform({}, &sensor, layout.value().MakeShelfRegions());
    const double uniform_err =
        RunUniformOnTrace(&uniform, trace).errors.MeanXY();

    // Off: trust the reported location (no bias model, tight sigma).
    LocationSensingParams off;
    off.mu = {};
    off.sigma = {0.02, 0.02, 0.0};
    const double off_err = run_engine(trace, off);

    // On - true: the actual generating parameters.
    LocationSensingParams truth;
    truth.mu = {0.0, mu_y, 0.0};
    truth.sigma = {0.01, kSigmaY, 0.0};
    const double true_err = run_engine(trace, truth);

    // On - learned: EM estimates mu/sigma from a training trace under the
    // same noise (sensor model held fixed to isolate the effect).
    ExperimentModelOptions em_options = base;
    em_options.sensing.mu = {};
    em_options.sensing.sigma = {0.3, 0.3, 0.0};  // Vague initial guess.
    EmConfig em;
    em.iterations = 3;
    em.learn_sensor = false;
    em.filter.num_reader_particles = 60;
    em.filter.num_object_particles = 400;
    EmCalibrator calibrator(
        MakeWorldModel(layout.value(), std::make_unique<ConeSensorModel>(),
                       em_options),
        em);
    const SimulatedTrace train =
        MakeTrace(layout.value(), mu_y, 800 + static_cast<uint64_t>(mu_y * 100));
    auto calibrated = calibrator.Calibrate(train.ObservationsOnly());
    const double learned_err =
        calibrated.ok()
            ? run_engine(trace,
                         calibrated.value().model.location_sensing().params())
            : off_err;

    (void)table.AddRow({mu_y, uniform_err, off_err, learned_err, true_err}, 3);
    results.push_back({mu_y, uniform_err, off_err, learned_err, true_err});
    std::printf("mu_y=%.2f done\n", mu_y);
  }
  bench::PrintTable(table);

  bench::BenchJson json("fig5g");
  bench::AddTableRows(table, "error_xy_ft", &json);
  bench::WriteBenchJson(json, "fig5g");

  const int failures = CheckPaperResults(results);
  if (failures > 0) {
    std::fprintf(stderr, "FIG5G GATE FAILED: %d inequalities do not hold\n",
                 failures);
    return 1;
  }
  return 0;
}
