// Memory bound of the checkpoint path: saving a site checkpoint streams the
// belief straight to the file, and restoring parses it straight into the
// new filter, so neither side stages a copy of the state. Measured with the
// process's peak resident set (ru_maxrss), on a filter holding > 40 MB of
// particles — big enough that one staging copy would be plain to see. The
// bounds are relative to that in-memory belief, not to the file: the file
// is run-length coded and much smaller than what a staging copy of the
// state would cost.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "serve/site_pipeline.h"
#include "test_util.h"

namespace rfid {
namespace {

using testing_util::MakeLineWorld;

constexpr SiteId kSite = 7;
constexpr int kObjects = 1200;
constexpr int kParticlesPerObject = 1000;

/// Peak resident set of this process so far, in bytes.
double PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // KiB on Linux.
}

SitePipelineConfig BigConfig() {
  SitePipelineConfig config;
  config.epoch_seconds = 1.0;
  config.max_lateness_seconds = 0.0;
  config.engine.factored.num_reader_particles = 20;
  config.engine.factored.num_object_particles = kParticlesPerObject;
  config.engine.factored.seed = 3;
  return config;
}

TEST(CheckpointMemoryTest, SaveAndRestoreStageNoCopyOfTheBelief) {
#ifdef RFID_INSTRUMENTED_BUILD
  GTEST_SKIP() << "sanitizer and coverage runtimes distort the footprint";
#endif
  auto pipeline = SitePipeline::Create(kSite, MakeLineWorld(), BigConfig());
  ASSERT_TRUE(pipeline.ok());
  // The reader stands in the aisle and reads every tag for a few epochs:
  // each tag becomes an object with a full particle set.
  for (int t = 0; t < 4; ++t) {
    ReaderLocationReport report;
    report.time = t;
    report.location = {0.0, 5.0, 0.0};
    pipeline.value()->OnRecord(ServeRecord::Location(kSite, report), nullptr);
    for (int k = 0; k < kObjects; ++k) {
      pipeline.value()->OnRecord(
          ServeRecord::Reading(kSite, {static_cast<double>(t),
                                       static_cast<TagId>(1000 + k)}),
          nullptr);
    }
  }
  pipeline.value()->Flush(nullptr);

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("checkpoint_memory_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  const double before_save = PeakRssBytes();
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(pipeline.value()->SaveCheckpoint(os).ok());
  }
  const double after_save = PeakRssBytes();
  const double checkpoint_bytes =
      static_cast<double>(std::filesystem::file_size(path));
  const double belief_bytes =
      static_cast<double>(pipeline.value()->Stats().filter_memory_bytes);
  ASSERT_GT(belief_bytes, 40e6) << "belief too small to measure";

  auto restored = SitePipeline::Create(kSite, MakeLineWorld(), BigConfig());
  ASSERT_TRUE(restored.ok());
  {
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(restored.value()->LoadCheckpoint(is).ok());
  }
  const double after_restore = PeakRssBytes();
  std::filesystem::remove(path);

  // The restored pipeline holds a second belief (~1x); anything on top of
  // that is transient staging.
  EXPECT_LT(after_save - before_save, 0.25 * belief_bytes)
      << "save grew the peak by " << (after_save - before_save) / 1e6
      << " MB for a " << belief_bytes / 1e6 << " MB belief ("
      << checkpoint_bytes / 1e6 << " MB checkpoint)";
  EXPECT_LT(after_restore - before_save, 1.5 * belief_bytes)
      << "save + restore grew the peak by "
      << (after_restore - before_save) / 1e6 << " MB for a "
      << belief_bytes / 1e6 << " MB belief (" << checkpoint_bytes / 1e6
      << " MB checkpoint)";
  EXPECT_EQ(restored.value()->Stats().engine.epochs_processed,
            pipeline.value()->Stats().engine.epochs_processed);
}

}  // namespace
}  // namespace rfid
