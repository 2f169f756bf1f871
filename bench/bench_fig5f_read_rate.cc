// Fig. 5(f): inference error vs read rate in the major detection range.
//
// RR_major sweeps 50%..100%; the trace has 16 object tags + 4 shelf tags.
// Inference uses the matching (calibrated) read rate — the point of the
// experiment is sensitivity to *sensing noise*, not model mismatch. Curves:
// uniform baseline and our inference.
//
// The bench exits non-zero unless the figure's claims hold as inequalities,
// each printed with its margin: at every read rate the inference error is
// at most half the uniform baseline's, and the error at 100% is at most
// the error at 50% (noisier sensing costs accuracy, never buys it).
#include <vector>

#include "bench_util.h"
#include "sim/trace.h"

namespace rfid {
namespace {

/// Largest inference error allowed, as a share of the uniform baseline's
/// at the same read rate (the worst rate read 0.30 when the gate was
/// added).
constexpr double kMaxErrorShareOfUniform = 0.5;

struct RateResult {
  int read_rate_pct = 0;
  double uniform_error = 0.0;
  double inference_error = 0.0;
};

/// The Fig. 5(f) claims over every read rate, each inequality lhs <= rhs
/// printed with its margin; returns how many fail.
int CheckPaperResults(const std::vector<RateResult>& results) {
  std::printf("\nPaper-result gate (Fig. 5(f)):\n");
  int failures = 0;
  const auto check = [&failures](const char* what, double lhs, double rhs) {
    if (!bench::CheckAtMost(what, lhs, rhs)) ++failures;
  };
  for (const RateResult& r : results) {
    char what[96];
    std::snprintf(what, sizeof(what),
                  "read rate %d%%: inference error <= uniform / 2",
                  r.read_rate_pct);
    check(what, r.inference_error,
          kMaxErrorShareOfUniform * r.uniform_error);
  }
  if (results.size() >= 2) {
    check("inference error at 100% <= at 50%",
          results.back().inference_error, results.front().inference_error);
  }
  return failures;
}

}  // namespace
}  // namespace rfid

int main() {
  using namespace rfid;
  bench::PrintHeader(
      "Inference error vs major-detection-range read rate (50-100%)",
      "Fig. 5(f)");

  WarehouseConfig wc = bench::SensitivityWarehouse(/*objects=*/16,
                                                   /*shelf_tags=*/4);
  auto layout = BuildWarehouse(wc);

  ExperimentModelOptions options;
  options.motion.delta = {0.0, 0.1, 0.0};
  options.motion.sigma = {0.02, 0.02, 0.0};

  TableWriter table({"read_rate_pct", "uniform", "inference"});
  std::vector<RateResult> results;
  for (int rr = 50; rr <= 100; rr += 10) {
    ConeSensorParams cp;
    cp.major_read_rate = rr / 100.0;
    ConeSensorModel sensor(cp);
    TraceGenerator gen(layout.value(), RobotConfig{}, {}, sensor,
                       500 + static_cast<uint64_t>(rr));
    const SimulatedTrace trace = gen.Generate();

    UniformBaseline uniform({}, &sensor, layout.value().MakeShelfRegions());
    const double uniform_err =
        RunUniformOnTrace(&uniform, trace).errors.MeanXY();

    auto engine = RfidInferenceEngine::Create(
        MakeWorldModel(layout.value(), sensor.Clone(), options),
        bench::DefaultEngineConfig());
    const double inference_err =
        RunEngineOnTrace(engine.value().get(), trace).errors.MeanXY();

    (void)table.AddRow({static_cast<double>(rr), uniform_err, inference_err},
                       3);
    results.push_back({rr, uniform_err, inference_err});
  }
  bench::PrintTable(table);

  bench::BenchJson json("fig5f");
  bench::AddTableRows(table, "error_xy_ft", &json);
  bench::WriteBenchJson(json, "fig5f");

  const int failures = CheckPaperResults(results);
  if (failures > 0) {
    std::fprintf(stderr, "FIG5F GATE FAILED: %d inequalities do not hold\n",
                 failures);
    return 1;
  }
  return 0;
}
