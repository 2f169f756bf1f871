#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "pf/snapshot.h"
#include "spans.h"
#include "stream/synchronizer.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rfid {
namespace e2e {
namespace {

namespace fs = std::filesystem;

/// Sample counts, the same on every commit, so that each reported median
/// is taken over the same number of repetitions whatever the speed of the
/// code.
constexpr int kSetups = 3;
/// Closed-loop passes, each on a fresh server restored from the primed
/// checkpoint and checkpointed at its midpoint.
constexpr int kPasses = 3;

/// Records per inline ingest-then-pump block.
constexpr size_t kFeedBlock = 256;

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;
/// An open-loop phase whose generator sent its records later than this at
/// p99 did not hold its offered rate; the run is marked invalid.
constexpr double kMaxGeneratorLateMs = 5.0;
/// Mean estimate error above this means the filter's output is broken, not
/// merely less accurate.
constexpr double kMaxErrorFt = 3.0;
/// An estimate further than this from the truth is lost: a picker
/// searching there would not find the tag.
constexpr double kLostTagFt = 3.0;
constexpr uint64_t kScrapeIntervalNs = 1'000'000'000;
/// The open-loop generator sleeps only when its next send is further away
/// than this; closer sends are waited for by spinning, which keeps the
/// schedule at the high rates.
constexpr uint64_t kSpinNs = 300'000;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename T>
uint64_t FnvPod(uint64_t h, const T& value) {
  return Fnv(h, &value, sizeof(value));
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

SiteId MaxSiteId(const Workload& w) {
  SiteId max_id = 0;
  for (const Site& site : w.sites) max_id = std::max(max_id, site.id);
  return max_id;
}

/// The synchronizer configuration each of the server's site pipelines uses.
SynchronizerConfig SyncConfigOf(const Workload& w) {
  SynchronizerConfig config;
  config.epoch_seconds = w.serve.epoch_seconds;
  config.max_lateness_seconds = w.serve.max_lateness_seconds;
  return config;
}

/// Pushes one record into its site's synchronizer; false if it was dropped
/// as late.
bool Push(StreamSynchronizer* sync, const ServeRecord& r) {
  return r.kind == ServeRecord::Kind::kReading ? sync->Push(r.reading)
                                               : sync->Push(r.location);
}

/// For every (site, epoch step), the send index of the measured record whose
/// arrival closes that epoch, or -1 when priming closed it or only Flush()
/// does. Each site's records go through a StreamSynchronizer configured as
/// the server's, in send order, and the record after which PollWatermark
/// returns an epoch is the one whose processing runs the epoch and
/// dispatches its events.
std::vector<std::vector<int64_t>> ClosingRecords(const Workload& w) {
  const size_t sites = MaxSiteId(w) + 1;
  std::vector<StreamSynchronizer> syncs;
  for (size_t s = 0; s < sites; ++s) syncs.emplace_back(SyncConfigOf(w));
  std::vector<std::vector<int64_t>> closer(sites);
  auto push = [&](const ServeRecord& r, int64_t index) {
    if (!Push(&syncs[r.site], r)) return;
    std::vector<int64_t>& c = closer[r.site];
    for (const SyncedEpoch& epoch : syncs[r.site].PollWatermark()) {
      if (epoch.step < 0) continue;
      const size_t step = static_cast<size_t>(epoch.step);
      if (c.size() <= step) c.resize(step + 1, -1);
      c[step] = index;
    }
  };
  for (const ServeRecord& r : w.prime) push(r, -1);
  for (size_t i = 0; i < w.records.size(); ++i) {
    push(w.records[i], static_cast<int64_t>(i));
  }
  return closer;
}

/// Open-loop send times: record i is due at t0 + i / rate.
struct Schedule {
  uint64_t t0_ns = 0;
  double ns_per_record = 0.0;
  const std::vector<std::vector<int64_t>>* closer = nullptr;

  uint64_t Due(size_t i) const {
    return t0_ns +
           static_cast<uint64_t>(static_cast<double>(i) * ns_per_record);
  }
};

/// The consumer side of one phase: the four continuous queries a deployment
/// subscribes (raw events, location updates, fire code, colocation), a
/// per-site digest of the raw event stream and, under a schedule, each
/// event's latency. Callbacks for different sites run concurrently on the
/// server's lanes; each site's slot is written by one lane at a time.
class EventSink {
 public:
  EventSink(const Workload& w, const Schedule* schedule)
      : schedule_(schedule),
        epoch_seconds_(w.serve.epoch_seconds),
        sites_(MaxSiteId(w) + 1) {}

  void Subscribe(SubscriptionBus* bus) {
    bus->SubscribeEvents(
        [this](SiteId site, const LocationEvent& e) { OnEvent(site, e); });
    bus->SubscribeLocationUpdates(0.5, [this](SiteId site,
                                              const LocationEvent&) {
      if (site < sites_.size()) ++sites_[site].updates;
    });
    FireCodeConfig fire;
    fire.window_seconds = 5.0;
    fire.weight_limit = 20.0;
    fire.cell_size_feet = 2.0;
    bus->SubscribeFireCode(
        fire, [](TagId) { return 1.0; },
        [this](SiteId site, const FireCodeAlert&) {
          if (site < sites_.size()) ++sites_[site].alerts;
        });
    bus->SubscribeColocation(ColocationConfig{});
  }

  uint64_t Digest() const {
    uint64_t h = kFnvOffset;
    for (size_t s = 0; s < sites_.size(); ++s) {
      h = FnvPod(h, s);
      h = FnvPod(h, sites_[s].digest);
    }
    return h;
  }
  uint64_t Events() const { return Sum(&PerSite::events); }
  uint64_t Updates() const { return Sum(&PerSite::updates); }
  uint64_t Alerts() const { return Sum(&PerSite::alerts); }
  /// The latency of every event with a closing record.
  std::vector<double> LatenciesMs() const {
    std::vector<double> all;
    for (const PerSite& s : sites_) {
      all.insert(all.end(), s.latency_ms.begin(), s.latency_ms.end());
    }
    return all;
  }

 private:
  struct PerSite {
    uint64_t digest = kFnvOffset;
    uint64_t events = 0;
    uint64_t updates = 0;
    uint64_t alerts = 0;
    std::vector<double> latency_ms;
  };

  uint64_t Sum(uint64_t PerSite::*field) const {
    uint64_t total = 0;
    for (const PerSite& s : sites_) total += s.*field;
    return total;
  }

  void OnEvent(SiteId site, const LocationEvent& e) {
    const uint64_t now = MonotonicNanos();
    if (site >= sites_.size()) return;
    PerSite& s = sites_[site];
    ++s.events;
    uint64_t h = FnvPod(s.digest, e.time);
    h = FnvPod(h, e.tag);
    h = FnvPod(h, e.location.x);
    h = FnvPod(h, e.location.y);
    h = FnvPod(h, e.location.z);
    if (e.stats.has_value()) {
      h = FnvPod(h, e.stats->variance.x);
      h = FnvPod(h, e.stats->variance.y);
      h = FnvPod(h, e.stats->variance.z);
      h = FnvPod(h, e.stats->support);
    }
    s.digest = h;
    if (schedule_ == nullptr) return;
    // Events of epochs no measured record closes (Flush() emits them) have
    // no send time to measure from.
    const auto& closer = (*schedule_->closer)[site];
    const int64_t epoch = std::llround(e.time / epoch_seconds_);
    if (epoch < 0 || epoch >= static_cast<int64_t>(closer.size()) ||
        closer[static_cast<size_t>(epoch)] < 0) {
      return;
    }
    const uint64_t due =
        schedule_->Due(static_cast<size_t>(closer[static_cast<size_t>(epoch)]));
    s.latency_ms.push_back(
        (static_cast<double>(now) - static_cast<double>(due)) * 1e-6);
  }

  const Schedule* schedule_;
  double epoch_seconds_;
  std::vector<PerSite> sites_;
};

/// Outputs and failure accounting shared by every phase.
struct Phase {
  std::string name;
  uint64_t digest = 0;
  uint64_t events = 0;
  uint64_t updates = 0;
  uint64_t alerts = 0;
  uint64_t particle_updates = 0;
  /// Mean XY error of the final estimates; NaN where not scored.
  double error_ft = std::numeric_limits<double>::quiet_NaN();
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void TakeSink(const EventSink& sink) {
    digest = sink.Digest();
    events = sink.Events();
    updates = sink.Updates();
    alerts = sink.Alerts();
  }
  void Fail(const std::string& what) {
    ++failed;
    problems.push_back(name + ": " + what);
  }
};

const FactoredParticleFilter* FactoredOf(const RfidInferenceEngine& engine) {
  return dynamic_cast<const FactoredParticleFilter*>(&engine.filter());
}

/// Inline drive: ingest a block of records, pump, repeat. A block is smaller
/// than one shard queue, so ingest never blocks. Returns the number of
/// records the server refused.
uint64_t Feed(StreamingServer* server, const std::vector<ServeRecord>& records,
              size_t begin, size_t end, SpanRecorder* spans,
              double* pump_s = nullptr) {
  uint64_t rejected = 0;
  for (size_t i = begin; i < end;) {
    const size_t stop = std::min(end, i + kFeedBlock);
    {
      ScopedSpan span(spans, "IngestBatch");
      for (; i < stop; ++i) rejected += server->Ingest(records[i]) ? 0 : 1;
    }
    {
      ScopedSpan span(spans, "Pump");
      Stopwatch watch;
      server->Pump();
      if (pump_s != nullptr) *pump_s += watch.ElapsedSeconds();
    }
  }
  return rejected;
}

Result<std::unique_ptr<StreamingServer>> CreateServer(const Workload& w,
                                                      SpanRecorder* spans) {
  ScopedSpan span(spans, "Create");
  return StreamingServer::Create(w.MakeSpecs(), w.serve);
}

/// A fresh server restored to the primed state every later phase starts
/// from; `restore_s`, when set, receives the time of the Restore call.
Result<std::unique_ptr<StreamingServer>> PrimedServer(
    const Workload& w, const std::string& primed_dir, SpanRecorder* spans,
    double* restore_s = nullptr) {
  auto created = CreateServer(w, spans);
  if (!created.ok()) return created.status();
  std::unique_ptr<StreamingServer> server = std::move(created).value();
  ScopedSpan span(spans, "Restore");
  Stopwatch watch;
  RFID_RETURN_NOT_OK(server->Restore(primed_dir));
  if (restore_s != nullptr) *restore_s = watch.ElapsedSeconds();
  return server;
}

/// Failure accounting and exact counters of a finished phase's server.
void Account(const StreamingServer& server, const Workload& w,
             uint64_t rejected, Phase* phase) {
  const ServerStatsSnapshot stats = server.Stats();
  uint64_t failures = rejected + stats.TotalDroppedLate() +
                      stats.TotalRecordsShed() + stats.checkpoint.failures;
  for (const ShardStatsSnapshot& shard : stats.shards) {
    for (const SitePipelineStats& site : shard.sites) {
      failures += site.records_quarantined + site.records_dropped_parked +
                  (site.parked ? 1 : 0);
    }
  }
  phase->failed += failures;
  phase->attempted += w.records.size();
  const uint64_t expected = w.prime.size() + w.records.size();
  if (stats.TotalRecordsProcessed() != expected) {
    phase->problems.push_back(
        phase->name + ": processed " +
        std::to_string(stats.TotalRecordsProcessed()) + " of " +
        std::to_string(expected) + " records");
  }
  if (failures != 0) {
    phase->problems.push_back(phase->name + ": " + std::to_string(failures) +
                              " failed operations");
  }
  for (const Site& site : w.sites) {
    const SitePipeline* pipeline = server.FindSite(site.id);
    const FactoredParticleFilter* filter =
        pipeline != nullptr ? FactoredOf(pipeline->engine()) : nullptr;
    if (filter != nullptr) {
      phase->particle_updates += filter->particle_updates();
    }
  }
}

/// Mean XY error of the server's final estimates of every tag it tracks,
/// against truth at the end of the stream. A tag further off than
/// kLostTagFt counts as kLostTagFt: it is lost wherever the filter put it,
/// and how far off the few lost tags land would otherwise set much of the
/// mean's spread from seed to seed.
double FinalErrorFt(const StreamingServer& server, const Workload& w) {
  double end_time = 0.0;
  for (const ServeRecord& r : w.records) {
    end_time = std::max(end_time, r.Time());
  }
  double sum = 0.0;
  size_t count = 0;
  for (const Site& site : w.sites) {
    const SitePipeline* pipeline = server.FindSite(site.id);
    if (pipeline == nullptr) continue;
    for (TagId tag : site.truth.AllTags()) {
      const auto estimate = pipeline->engine().EstimateObject(tag);
      const auto truth = site.truth.PositionAt(tag, end_time);
      if (!estimate.has_value() || !truth.ok()) continue;
      const double error = std::hypot(estimate->mean.x - truth.value().x,
                                      estimate->mean.y - truth.value().y);
      sum += std::min(error, kLostTagFt);
      ++count;
    }
  }
  return count == 0 ? std::numeric_limits<double>::quiet_NaN()
                    : sum / static_cast<double>(count);
}

struct OpenLoop : Phase {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<double> ingest_us;  ///< Traced runs only.
  std::vector<double> scrape_ms;
  uint64_t queue_high_water = 0;
  uint64_t blocked_pushes = 0;
};

/// Sends every record at its scheduled time. Returns the number of records
/// the server refused.
uint64_t Generate(StreamingServer* server,
                  const std::vector<ServeRecord>& records,
                  const Schedule& schedule, SpanRecorder* spans,
                  OpenLoop* out) {
  uint64_t rejected = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const uint64_t due = schedule.Due(i);
    uint64_t now = MonotonicNanos();
    while (now < due) {
      if (due - now > kSpinNs) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - now - kSpinNs / 2));
      }
      now = MonotonicNanos();
    }
    out->late_ms.push_back(static_cast<double>(now - due) * 1e-6);
    bool accepted = false;
    if (spans != nullptr) {
      ScopedSpan span(spans, "Ingest");
      accepted = server->Ingest(records[i]);
      out->ingest_us.push_back(static_cast<double>(MonotonicNanos() - now) *
                               1e-3);
    } else {
      accepted = server->Ingest(records[i]);
    }
    if (!accepted) ++rejected;
  }
  return rejected;
}

/// Set once the generator has sent its last record.
struct StopSignal {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
};

/// Scrapes the server's stats and metrics once per second until `stop`, as
/// a monitoring agent beside the ingest path would. Both scrapes take the
/// server's pump lock, so they contend with processing, not with ingest.
void Monitor(StreamingServer* server, uint64_t t0_ns, SpanRecorder* spans,
             StopSignal* stop, OpenLoop* out) {
  uint64_t next = t0_ns + kScrapeIntervalNs;
  size_t scraped_bytes = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop->mu);
      const MonotonicClock::time_point deadline{std::chrono::nanoseconds(next)};
      if (stop->cv.wait_until(lock, deadline, [stop] { return stop->done; })) {
        break;
      }
    }
    ScopedSpan span(spans, "Scrape");
    const uint64_t start = MonotonicNanos();
    scraped_bytes += server->StatsJson().size();
    scraped_bytes += server->MetricsPrometheus().size();
    out->scrape_ms.push_back(static_cast<double>(MonotonicNanos() - start) *
                             1e-6);
    next += kScrapeIntervalNs;
  }
  if (scraped_bytes == 0 && !out->scrape_ms.empty()) {
    out->problems.push_back(out->name + ": empty stats scrape");
  }
}

OpenLoop RunOpenLoop(const Workload& w, const std::string& name, double rate,
                     const std::string& primed_dir,
                     const std::vector<std::vector<int64_t>>& closer,
                     SpanRecorder* spans) {
  OpenLoop out;
  out.name = name;
  Schedule schedule;
  schedule.ns_per_record = 1e9 / rate;
  schedule.closer = &closer;
  EventSink sink(w, &schedule);
  auto built = PrimedServer(w, primed_dir, spans);
  if (!built.ok()) {
    out.Fail(built.status().ToString());
    return out;
  }
  std::unique_ptr<StreamingServer> server = std::move(built).value();
  sink.Subscribe(&server->bus());
  out.late_ms.reserve(w.records.size());
  if (spans != nullptr) out.ingest_us.reserve(w.records.size());
  server->Start();
  schedule.t0_ns = MonotonicNanos() + 2'000'000;
  uint64_t rejected = 0;
  StopSignal stop;
  std::thread monitor(
      [&] { Monitor(server.get(), schedule.t0_ns, spans, &stop, &out); });
  std::thread generator([&] {
    rejected = Generate(server.get(), w.records, schedule, spans, &out);
  });
  generator.join();
  {
    std::lock_guard<std::mutex> lock(stop.mu);
    stop.done = true;
  }
  stop.cv.notify_all();
  monitor.join();
  server->Stop();
  server->Flush();
  for (const ShardStatsSnapshot& shard : server->Stats().shards) {
    out.queue_high_water = std::max(out.queue_high_water,
                                    shard.queue.high_water);
    out.blocked_pushes += shard.queue.blocked_pushes;
  }
  Account(*server, w, rejected, &out);
  out.TakeSink(sink);
  out.latency_ms = sink.LatenciesMs();
  return out;
}

struct Pass : Phase {
  /// Ingest, Pump and Flush over the measured stream, without the
  /// checkpoint.
  double pass_s = 0.0;
  double pump_s = 0.0;  ///< Inside Pump and Flush.
  /// Synchronizer plus epoch (engine, emit, dispatch) seconds the server's
  /// own telemetry reports for the pass.
  double pipeline_s = 0.0;
  double restore_s = 0.0;     ///< Restore of the primed state.
  double checkpoint_s = 0.0;  ///< The mid-stream checkpoint.
  uint64_t state_bytes = 0;   ///< Bytes of that checkpoint.
};

/// Seconds the server's own telemetry has counted in its site pipelines.
double PipelineSeconds(StreamingServer* server) {
  obs::MetricsRegistry& metrics = server->metrics();
  return metrics.GetHistogram("rfid_epoch_seconds")->Snap().sum_seconds +
         metrics.GetHistogram("rfid_stage_seconds", "stage=\"synchronize\"")
             ->Snap()
             .sum_seconds;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

/// One inline pass of the measured stream through `server`, which holds
/// the primed state. With a `checkpoint_dir`, the server is checkpointed
/// there at the stream midpoint, as a deployment does while it serves.
void RunPass(const Workload& w, StreamingServer* server,
             const std::string& checkpoint_dir, SpanRecorder* spans,
             Pass* out) {
  EventSink sink(w, nullptr);
  sink.Subscribe(&server->bus());
  const double pipeline_before = PipelineSeconds(server);
  const size_t half = w.records.size() / 2;
  Stopwatch first_half;
  uint64_t rejected = Feed(server, w.records, 0, half, spans, &out->pump_s);
  out->pass_s = first_half.ElapsedSeconds();
  if (!checkpoint_dir.empty()) {
    std::error_code ec;
    fs::remove_all(checkpoint_dir, ec);
    out->attempted += 1;
    Status st;
    {
      ScopedSpan span(spans, "Checkpoint");
      Stopwatch checkpoint;
      st = server->Checkpoint(checkpoint_dir);
      out->checkpoint_s = checkpoint.ElapsedSeconds();
    }
    if (st.ok()) {
      out->state_bytes = DirectoryBytes(checkpoint_dir);
    } else {
      out->Fail("checkpoint: " + st.ToString());
    }
    fs::remove_all(checkpoint_dir, ec);
  }
  Stopwatch second_half;
  rejected +=
      Feed(server, w.records, half, w.records.size(), spans, &out->pump_s);
  {
    ScopedSpan span(spans, "Flush");
    Stopwatch flush;
    server->Flush();
    out->pump_s += flush.ElapsedSeconds();
  }
  out->pass_s += second_half.ElapsedSeconds();
  out->pipeline_s = PipelineSeconds(server) - pipeline_before;
  Account(*server, w, rejected, out);
  out->TakeSink(sink);
  out->error_ft = FinalErrorFt(*server, w);
}

/// A pass on a fresh server restored from the primed checkpoint, with a
/// checkpoint into `checkpoint_dir` at the stream midpoint.
Pass RunRestoredPass(const Workload& w, const std::string& primed_dir,
                     const std::string& checkpoint_dir,
                     const std::string& name, SpanRecorder* spans) {
  Pass out;
  out.name = name;
  out.attempted += 1;  // The restore.
  auto built = PrimedServer(w, primed_dir, spans, &out.restore_s);
  if (!built.ok()) {
    out.Fail(built.status().ToString());
    return out;
  }
  RunPass(w, built.value().get(), checkpoint_dir, spans, &out);
  return out;
}

/// Set-up as a deployment pays it before serving traffic: Create, then the
/// priming records, kSetups times; `setup_s` receives each build's time.
/// The first primed server is checkpointed into `primed_dir`, the state
/// every later pass restores from, and then takes the measured stream
/// itself: it was never restored, so its pass is the reference every
/// restored pass must match.
Status RunSetup(const Workload& w, const std::string& primed_dir,
                SpanRecorder* spans, std::vector<double>* setup_s,
                Pass* reference) {
  for (int k = 0; k < kSetups; ++k) {
    Stopwatch watch;
    auto built = CreateServer(w, spans);
    if (!built.ok()) return built.status();
    StreamingServer* server = built.value().get();
    if (Feed(server, w.prime, 0, w.prime.size(), spans) != 0) {
      return Status::Internal("server refused priming records");
    }
    setup_s->push_back(watch.ElapsedSeconds());
    if (k == 0) {
      std::error_code ec;
      fs::remove_all(primed_dir, ec);
      RFID_RETURN_NOT_OK(server->Checkpoint(primed_dir));
      RunPass(w, server, "", spans, reference);
    }
  }
  return Status::OK();
}

/// The traced replay: the same records through the components SitePipeline
/// wires together, each call in its own span. The priming records run
/// first, unmeasured, as the server's set-up does.
struct Replay : Phase {
  uint64_t epochs = 0;
  uint64_t dropped_late = 0;
  double emit_s = 0.0;
  double weight_s = 0.0;
  double resample_s = 0.0;
  double remap_s = 0.0;
  double compress_s = 0.0;
  uint64_t dispatched_events = 0;
  uint64_t operator_bytes = 0;
  uint64_t belief_bytes = 0;
  uint64_t tracked_objects = 0;
  uint64_t active_objects = 0;
  uint64_t hibernated_objects = 0;
  double gather_ns_per_eval = 0.0;
};

/// ns per ProbReadBatchGather element over a filter's current particles,
/// with frames built from its reader particles.
double GatherNsPerEval(const FactoredParticleFilter& filter) {
  std::vector<ReaderFrame> frames;
  for (const auto& reader : filter.reader_particles()) {
    frames.push_back(ReaderFrame::From(reader.pose));
  }
  const SensorModel& sensor = filter.model().sensor();
  const auto& states = filter.object_states();
  std::vector<double> out;
  uint64_t evals = 0;
  double checksum = 0.0;
  Stopwatch watch;
  do {
    const uint64_t before = evals;
    for (const auto& state : states) {
      const size_t n = state.particles.size();
      if (n == 0) continue;
      out.resize(n);
      sensor.ProbReadBatchGather(frames.data(),
                                 state.particles.reader_indices(),
                                 state.particles.xs(), state.particles.ys(),
                                 state.particles.zs(), n, out.data());
      checksum += out[n / 2];
      evals += n;
    }
    if (evals == before) return 0.0;
  } while (watch.ElapsedSeconds() < 0.05);
  const double elapsed = watch.ElapsedSeconds();
  // The checksum keeps the kernel calls from being optimised away.
  return checksum >= 0.0 ? elapsed * 1e9 / static_cast<double>(evals) : 0.0;
}

Replay RunReplay(const Workload& w, SpanRecorder* spans) {
  Replay out;
  out.name = "replay";
  struct Lane {
    const Site* site = nullptr;
    EngineConfig config;
    std::unique_ptr<RfidInferenceEngine> engine;
    std::unique_ptr<StreamSynchronizer> sync;
  };
  std::vector<Lane> lanes(MaxSiteId(w) + 1);
  for (const Site& site : w.sites) {
    Lane& lane = lanes[site.id];
    lane.site = &site;
    lane.config = w.serve.engine;
    // Same per-site seed the server derives (ServeConfig::engine).
    uint64_t mix = site.id;
    lane.config.factored.seed ^= SplitMix64(mix);
    auto engine = RfidInferenceEngine::Create(w.MakeModel(site), lane.config);
    if (!engine.ok()) {
      out.Fail(engine.status().ToString());
      return out;
    }
    lane.engine = std::move(engine).value();
    lane.sync = std::make_unique<StreamSynchronizer>(SyncConfigOf(w));
  }

  SubscriptionBus bus;
  EventSink sink(w, nullptr);
  std::vector<LocationEvent> events;
  // Spans and stage totals cover the measured records only.
  SpanRecorder* measured = nullptr;
  auto process = [&](Lane& lane, const std::vector<SyncedEpoch>& epochs) {
    for (const SyncedEpoch& epoch : epochs) {
      {
        ScopedSpan span(measured, "ProcessEpoch");
        lane.engine->ProcessEpoch(epoch);
      }
      {
        ScopedSpan span(measured, "TakeEvents");
        lane.engine->TakeEvents(&events);
      }
      if (!events.empty()) {
        ScopedSpan span(measured, "Dispatch");
        bus.Dispatch(lane.site->id, events);
      }
      if (measured == nullptr) continue;
      ++out.epochs;
      out.emit_s += lane.engine->last_epoch_timings().emit_seconds;
      if (const auto* filter = FactoredOf(*lane.engine)) {
        const auto& stages = filter->last_epoch_stages();
        out.weight_s += stages.weight;
        out.resample_s += stages.reader_resample;
        out.remap_s += stages.remap_replay;
        out.compress_s += stages.compress;
      }
    }
  };
  auto feed = [&](const ServeRecord& r) {
    Lane& lane = lanes[r.site];
    std::vector<SyncedEpoch> epochs;
    {
      ScopedSpan span(measured, "Synchronize");
      if (Push(lane.sync.get(), r)) epochs = lane.sync->PollWatermark();
    }
    process(lane, epochs);
  };

  for (const ServeRecord& r : w.prime) feed(r);
  sink.Subscribe(&bus);
  measured = spans;
  const size_t half = w.records.size() / 2;
  for (size_t i = 0; i < half; ++i) feed(w.records[i]);

  // In-memory snapshot round trip of every site's filter at the midpoint
  // (where the passes checkpoint): the reloaded filter must serialize
  // to the same bytes.
  for (const Site& site : w.sites) {
    const Lane& lane = lanes[site.id];
    const FactoredParticleFilter* filter = FactoredOf(*lane.engine);
    auto fresh = RfidInferenceEngine::Create(w.MakeModel(site), lane.config);
    auto* target = fresh.ok() ? dynamic_cast<FactoredParticleFilter*>(
                                    &fresh.value()->mutable_filter())
                              : nullptr;
    out.attempted += 1;
    if (filter == nullptr || target == nullptr) {
      out.Fail("snapshot targets unavailable");
      continue;
    }
    std::stringstream saved;
    std::stringstream again;
    Status st;
    {
      ScopedSpan span(spans, "SaveFilterSnapshot");
      st = SaveFilterSnapshot(*filter, saved);
    }
    if (st.ok()) {
      ScopedSpan span(spans, "LoadFilterSnapshot");
      st = LoadFilterSnapshot(saved, target);
    }
    if (st.ok()) st = SaveFilterSnapshot(*target, again);
    if (!st.ok() || again.str() != saved.str()) {
      out.Fail("snapshot round trip of site " + std::to_string(site.id) +
               " failed: " + st.ToString());
    }
  }

  for (size_t i = half; i < w.records.size(); ++i) feed(w.records[i]);
  for (const Site& site : w.sites) {
    Lane& lane = lanes[site.id];
    std::vector<SyncedEpoch> tail;
    {
      ScopedSpan span(measured, "Synchronize");
      tail = lane.sync->Finish();
    }
    process(lane, tail);
  }

  out.attempted += w.records.size();
  out.TakeSink(sink);
  out.dispatched_events = bus.dispatched_events();
  for (const BusOperatorStats& op : bus.OperatorStatsSnapshot()) {
    out.operator_bytes += op.stats.bytes_estimate;
  }
  const FactoredParticleFilter* largest = nullptr;
  for (const Site& site : w.sites) {
    const Lane& lane = lanes[site.id];
    out.dropped_late += lane.sync->dropped_late_records();
    const FactoredParticleFilter* filter = FactoredOf(*lane.engine);
    if (filter == nullptr) continue;
    out.particle_updates += filter->particle_updates();
    out.belief_bytes += filter->ApproxMemoryBytes();
    out.tracked_objects += filter->NumTrackedObjects();
    out.active_objects += filter->NumActiveObjects();
    out.hibernated_objects += filter->NumHibernatedObjects();
    if (largest == nullptr ||
        filter->NumTrackedObjects() > largest->NumTrackedObjects()) {
      largest = filter;
    }
  }
  out.failed += out.dropped_late;
  if (out.dropped_late != 0) {
    out.problems.push_back("replay: " + std::to_string(out.dropped_late) +
                           " records dropped late");
  }
  if (largest != nullptr) out.gather_ns_per_eval = GatherNsPerEval(*largest);
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

/// Cross-phase gates against the first phase, the pass of the server that
/// was primed and never restored: every phase produced the same per-site
/// event stream and query outputs, did the same work and, where scored,
/// ended with the same estimates.
void CheckAgreement(const std::vector<const Phase*>& phases,
                    RunResult* result) {
  const Phase& ref = *phases.front();
  for (const Phase* p : phases) {
    if (p->digest != ref.digest || p->events != ref.events) {
      ++result->failed;
      result->violations.push_back(
          p->name + ": event stream differs from " + ref.name + " (" +
          std::to_string(p->events) + " vs " + std::to_string(ref.events) +
          " events)");
    }
    if (p->particle_updates != ref.particle_updates) {
      result->violations.push_back(
          p->name + ": particle_updates " +
          std::to_string(p->particle_updates) + " vs " +
          std::to_string(ref.particle_updates) + " in " + ref.name);
    }
    if (p->updates != ref.updates || p->alerts != ref.alerts) {
      result->violations.push_back(p->name + ": query outputs differ from " +
                                   ref.name);
    }
    if (!std::isnan(p->error_ft) && p->error_ft != ref.error_ft) {
      result->violations.push_back(p->name + ": final estimates differ from " +
                                   ref.name);
    }
  }
  if (ref.events == 0) result->violations.push_back("no events emitted");
  for (const Phase* p : phases) {
    result->attempted += p->attempted;
    result->failed += p->failed;
    result->violations.insert(result->violations.end(), p->problems.begin(),
                              p->problems.end());
  }
}

void Add(RunResult* r, const char* name, const char* unit, double value) {
  r->metrics.push_back({name, unit, value});
}

}  // namespace

RunResult RunWorkload(const Workload& w, bool traced,
                      const std::string& out_dir) {
  RunResult result;
  std::unique_ptr<SpanRecorder> recorder;
  if (traced) recorder = std::make_unique<SpanRecorder>();
  SpanRecorder* spans = recorder.get();
  const std::string primed_dir = out_dir + "/primed_" + w.name;
  const std::string checkpoint_dir = out_dir + "/checkpoint_" + w.name;

  std::vector<double> setup_s;
  Pass reference;
  reference.name = "reference";
  const Status setup_status =
      RunSetup(w, primed_dir, spans, &setup_s, &reference);
  if (!setup_status.ok()) {
    result.failed = 1;
    result.violations.push_back("set-up: " + setup_status.ToString());
    std::error_code ec;
    fs::remove_all(primed_dir, ec);
    return result;
  }
  // A traced run follows each traced pass with an untraced one: the
  // untraced passes give records_per_s, and the pairs the tracing overhead.
  std::vector<Pass> passes;
  std::vector<Pass> bare_passes;
  for (int i = 0; i < kPasses; ++i) {
    const std::string r = std::to_string(i);
    passes.push_back(RunRestoredPass(w, primed_dir, checkpoint_dir,
                                     "restored#" + r, spans));
    if (traced) {
      bare_passes.push_back(RunRestoredPass(w, primed_dir, checkpoint_dir,
                                            "bare#" + r, nullptr));
    }
  }
  std::vector<OpenLoop> open;
  if (traced) {
    const auto closer = ClosingRecords(w);
    open.push_back(
        RunOpenLoop(w, "open_low", w.low_rate, primed_dir, closer, spans));
    open.push_back(
        RunOpenLoop(w, "open_high", w.high_rate, primed_dir, closer, spans));
  }
  std::error_code ec;
  fs::remove_all(primed_dir, ec);

  std::vector<double> pass_s;
  std::vector<double> restore_s;
  std::vector<double> checkpoint_s;
  for (const Pass& pass : passes) pass_s.push_back(pass.pass_s);
  std::vector<const Phase*> phases = {&reference};
  for (const auto* group : {&passes, &bare_passes}) {
    for (const Pass& pass : *group) {
      phases.push_back(&pass);
      restore_s.push_back(pass.restore_s);
      checkpoint_s.push_back(pass.checkpoint_s);
    }
  }
  const uint64_t state_bytes = passes.front().state_bytes;
  for (const OpenLoop& phase : open) phases.push_back(&phase);
  if (!(reference.error_ft <= kMaxErrorFt)) {
    result.violations.push_back("mean estimate error " +
                                std::to_string(reference.error_ft) +
                                " ft exceeds " + std::to_string(kMaxErrorFt));
  }
  std::unique_ptr<Replay> replay;
  if (traced) {
    replay = std::make_unique<Replay>(RunReplay(w, spans));
    phases.push_back(replay.get());
  }
  CheckAgreement(phases, &result);
  result.counters = {{"records", w.records.size()},
                     {"events", reference.events},
                     {"particle_updates", reference.particle_updates},
                     {"state_bytes", state_bytes},
                     {"digest", reference.digest}};
  const double records = static_cast<double>(w.records.size());

  if (!traced) {
    Add(&result, "setup_s", "s", Median(setup_s));
    Add(&result, "state_mb", "MB", static_cast<double>(state_bytes) / 1e6);
    Add(&result, "error_ft", "ft", reference.error_ft);
    Add(&result, "peak_rss_mb", "MB", PeakRssMb());
    // Their spread across seeds exceeds the bound an end-to-end metric may
    // have, so the result carries them from traced runs only; shown here
    // for reading.
    Add(&result, "records_per_s", "rec/s", records / Median(pass_s));
    Add(&result, "checkpoint_s", "s", Median(checkpoint_s));
    Add(&result, "restore_s", "s", Median(restore_s));
  } else {
    const OpenLoop& low = open[0];
    const OpenLoop& high = open[1];
    std::vector<double> late_ms;
    std::vector<double> ingest_us;
    std::vector<double> scrape_ms;
    for (const OpenLoop& phase : open) {
      late_ms.insert(late_ms.end(), phase.late_ms.begin(),
                     phase.late_ms.end());
      ingest_us.insert(ingest_us.end(), phase.ingest_us.begin(),
                       phase.ingest_us.end());
      scrape_ms.insert(scrape_ms.end(), phase.scrape_ms.begin(),
                       phase.scrape_ms.end());
    }
    const double late_p99 = Quantile(late_ms, 0.99);
    result.valid = late_p99 <= kMaxGeneratorLateMs;
    // Pump time the server spends outside its site pipelines: routing,
    // queues, bookkeeping and, with two lanes, waiting on the busier one.
    const int lanes = std::min(w.serve.num_threads, w.serve.num_shards);
    std::vector<double> pump_s;
    std::vector<double> runtime_s;
    std::vector<double> bare_s;
    for (const Pass& pass : passes) {
      pump_s.push_back(pass.pump_s);
      runtime_s.push_back(pass.pump_s - pass.pipeline_s / lanes);
    }
    for (const Pass& pass : bare_passes) bare_s.push_back(pass.pass_s);
    const auto totals = spans->TotalSeconds();
    auto total_s = [&totals](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second;
    };
    const double engine_s = total_s("ProcessEpoch");
    const double sync_s = total_s("Synchronize");
    const double save_s = total_s("SaveFilterSnapshot");
    Add(&result, "records_per_s", "rec/s", records / Median(bare_s));
    Add(&result, "checkpoint_s", "s", Median(checkpoint_s));
    Add(&result, "restore_s", "s", Median(restore_s));
    Add(&result, "p50_ms.low", "ms", Quantile(low.latency_ms, 0.5));
    Add(&result, "p50_ms.high", "ms", Quantile(high.latency_ms, 0.5));
    Add(&result, "p99_ms.low", "ms", Quantile(low.latency_ms, 0.99));
    Add(&result, "p99_ms.high", "ms", Quantile(high.latency_ms, 0.99));
    Add(&result, "serve.ingest_us.p50", "us", Quantile(ingest_us, 0.5));
    Add(&result, "serve.ingest_us.p99", "us", Quantile(ingest_us, 0.99));
    Add(&result, "serve.queue_high_water", "count",
        static_cast<double>(high.queue_high_water));
    Add(&result, "serve.blocked_pushes", "count",
        static_cast<double>(high.blocked_pushes));
    Add(&result, "serve.pump_s", "s", Median(pump_s));
    Add(&result, "serve.runtime_s", "s", Median(runtime_s));
    Add(&result, "serve.dispatch_s", "s", total_s("Dispatch"));
    Add(&result, "serve.dispatched_events", "count",
        static_cast<double>(replay->dispatched_events));
    Add(&result, "serve.checkpoint_io_s", "s", Median(checkpoint_s) - save_s);
    Add(&result, "serve.checkpoint_bytes", "B",
        static_cast<double>(state_bytes));
    Add(&result, "obs.scrape_ms.p99", "ms", Quantile(scrape_ms, 0.99));
    Add(&result, "obs.trace_overhead", "ratio",
        Median(pass_s) / Median(bare_s));
    Add(&result, "stream.sync_s", "s", sync_s);
    Add(&result, "stream.sync_ns_per_record", "ns", sync_s * 1e9 / records);
    Add(&result, "stream.emit_s", "s", replay->emit_s);
    Add(&result, "stream.dropped_late", "count",
        static_cast<double>(replay->dropped_late));
    Add(&result, "stream.operator_bytes", "B",
        static_cast<double>(replay->operator_bytes));
    Add(&result, "core.engine_s", "s", engine_s);
    Add(&result, "core.engine_us_per_epoch", "us",
        replay->epochs > 0
            ? engine_s * 1e6 / static_cast<double>(replay->epochs)
            : 0.0);
    Add(&result, "pf.weight_s", "s", replay->weight_s);
    Add(&result, "pf.weight_share", "ratio",
        engine_s > 0 ? replay->weight_s / engine_s : 0.0);
    Add(&result, "pf.ns_per_update", "ns",
        replay->particle_updates > 0
            ? replay->weight_s * 1e9 /
                  static_cast<double>(replay->particle_updates)
            : 0.0);
    Add(&result, "pf.particle_updates", "count",
        static_cast<double>(replay->particle_updates));
    Add(&result, "pf.reader_resample_s", "s", replay->resample_s);
    Add(&result, "pf.remap_replay_s", "s", replay->remap_s);
    Add(&result, "pf.compress_s", "s", replay->compress_s);
    Add(&result, "pf.tracked_objects", "count",
        static_cast<double>(replay->tracked_objects));
    Add(&result, "pf.active_objects", "count",
        static_cast<double>(replay->active_objects));
    Add(&result, "pf.hibernated_objects", "count",
        static_cast<double>(replay->hibernated_objects));
    Add(&result, "pf.belief_mb", "MB",
        static_cast<double>(replay->belief_bytes) / 1e6);
    Add(&result, "pf.snapshot_save_s", "s", save_s);
    Add(&result, "pf.snapshot_load_s", "s", total_s("LoadFilterSnapshot"));
    Add(&result, "model.gather_ns_per_eval", "ns",
        replay->gather_ns_per_eval);
    Add(&result, "gen.late_ms.p99", "ms", late_p99);

    const std::string trace_path = out_dir + "/trace_" + w.name + ".json";
    if (!spans->WriteChromeTrace(trace_path)) {
      result.violations.push_back("could not write " + trace_path);
    }
  }
  if (result.failed > 0 && result.violations.empty()) {
    result.violations.push_back(std::to_string(result.failed) +
                                " failed operations");
  }
  return result;
}

}  // namespace e2e
}  // namespace rfid
