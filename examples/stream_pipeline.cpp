// Raw-stream pipeline demo (paper §II-A): from *unsynchronized* raw streams
// to clean events, using the online StreamSynchronizer.
//
// The other examples feed the engine pre-synchronized epochs. Real readers
// produce two independent streams — RFID readings (time, tag_id) and
// location reports (time, x, y, z) — slightly out of sync. This example
// flattens a simulated trace back into raw streams, interleaves them, pushes
// them through the online synchronizer, and feeds completed epochs to the
// engine as they close.
#include <algorithm>
#include <cstdio>

#include "core/experiment.h"
#include "model/cone_sensor.h"
#include "sim/trace.h"
#include "stream/synchronizer.h"

using namespace rfid;

int main() {
  WarehouseConfig wc;
  wc.num_shelves = 2;
  wc.shelf_length = 8.0;
  wc.objects_per_shelf = 8;
  wc.shelf_tags_per_shelf = 2;
  auto layout = BuildWarehouse(wc);
  ConeSensorModel sensor;
  TraceGenerator gen(layout.value(), RobotConfig{}, {}, sensor, 55);
  const SimulatedTrace trace = gen.Generate();

  // Flatten the trace into raw streams with sub-epoch timestamp jitter,
  // as a reader driver would deliver them.
  Rng rng(56);
  std::vector<TagReading> readings;
  std::vector<ReaderLocationReport> reports;
  for (const SimEpoch& epoch : trace.epochs) {
    const double t0 = epoch.observations.time;
    for (TagId tag : epoch.observations.tags) {
      readings.push_back({t0 + rng.Uniform(0.0, 0.9), tag});
    }
    ReaderLocationReport report;
    report.time = t0 + rng.Uniform(0.0, 0.9);
    report.location = epoch.observations.reported_location;
    report.has_heading = epoch.observations.has_heading;
    report.heading = epoch.observations.reported_heading;
    reports.push_back(report);
  }
  std::sort(readings.begin(), readings.end(),
            [](const TagReading& a, const TagReading& b) {
              return a.time < b.time;
            });
  std::printf("raw streams: %zu RFID readings, %zu location reports\n",
              readings.size(), reports.size());

  // Online synchronization: push records in time order, poll the watermark
  // for closed epochs, feed them to the engine immediately.
  EngineConfig config;
  config.factored.seed = 55;
  config.emitter.delay_seconds = 45.0;
  auto engine = RfidInferenceEngine::Create(
      MakeWorldModel(layout.value(), sensor.Clone()), config);

  // Default config: 1 s epochs, records admitted in time order.
  StreamSynchronizer sync;
  size_t r = 0, l = 0, epochs = 0, events = 0;
  auto process = [&](const std::vector<SyncedEpoch>& closed) {
    for (const SyncedEpoch& epoch : closed) {
      engine.value()->ProcessEpoch(epoch);
      events += engine.value()->TakeEvents().size();
      ++epochs;
    }
  };
  while (r < readings.size() || l < reports.size()) {
    const double tr = r < readings.size() ? readings[r].time : 1e18;
    const double tl = l < reports.size() ? reports[l].time : 1e18;
    if (tr <= tl) {
      sync.Push(readings[r++]);
    } else {
      sync.Push(reports[l++]);
    }
    process(sync.PollWatermark());
  }
  process(sync.Finish());

  ErrorStats err;
  const double end_time = trace.epochs.back().observations.time;
  for (TagId tag : trace.truth.AllTags()) {
    const auto est = engine.value()->EstimateObject(tag);
    const auto truth = trace.truth.PositionAt(tag, end_time);
    if (est && truth.ok()) err.Add(est->mean, truth.value());
  }
  std::printf("synchronized %zu epochs online; %zu events emitted\n", epochs,
              events);
  std::printf("final mean XY error: %.3f ft over %zu objects\n", err.MeanXY(),
              err.count());
  return err.count() > 0 && err.MeanXY() < 1.5 ? 0 : 2;
}
