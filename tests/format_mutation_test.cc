// Seeded mutation sweep over every CRC-framed binary format: filter
// snapshots, site checkpoints, checkpoint manifests and dead-letter spills.
//
// Framed sections are parsed through a CRC-computing view and the checksum
// is checked only once the parser is done, so decoders see corrupt bytes
// before anything rejects them: every count must be bounded by the bytes
// left before it allocates, and every field must be validated. Each case
// below must either fail with a non-OK Status or load a state that
// re-saves to exactly the bytes it was read from. Half of the mutations
// re-seal every section's CRC afterwards, so the decoders' own validation
// (not just the checksum) is what rejects them.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "pf/snapshot.h"
#include "serve/checkpoint.h"
#include "serve/diagnostics.h"
#include "serve/site_pipeline.h"
#include "test_util.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace rfid {
namespace {

using testing_util::MakeEpoch;
using testing_util::MakeLineWorld;

constexpr SiteId kSite = 7;
constexpr int kCasesPerFormat = 2400;
/// Every format starts with an 8-byte magic and a u32 version.
constexpr size_t kHeaderBytes = 12;
/// A framed section's header: u64 length, u32 CRC.
constexpr size_t kFrameHeaderBytes = 12;
constexpr char kSnapshotMagic[] = "RFIDSNAP";

uint64_t LoadU64(const std::string& bytes, size_t at) {
  uint64_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

void StoreU64(std::string* bytes, size_t at, uint64_t value) {
  std::memcpy(&(*bytes)[at], &value, sizeof(value));
}

/// Visits the framed sections laid end to end in [begin, end), innermost
/// first: a section whose payload is a filter snapshot nests one more
/// frame. Stops at the first header whose length overruns the range.
void ForEachFrame(const std::string& bytes, size_t begin, size_t end,
                  const std::function<void(size_t header, size_t length)>& fn) {
  while (begin + kFrameHeaderBytes <= end) {
    const uint64_t length = LoadU64(bytes, begin);
    const size_t payload = begin + kFrameHeaderBytes;
    if (length > end - payload) return;
    if (length >= kHeaderBytes &&
        bytes.compare(payload, 8, kSnapshotMagic, 8) == 0) {
      ForEachFrame(bytes, payload + kHeaderBytes, payload + length, fn);
    }
    fn(begin, static_cast<size_t>(length));
    begin = payload + length;
  }
}

/// Rewrites every section's CRC to match its (mutated) payload.
void Reseal(std::string* bytes) {
  ForEachFrame(*bytes, kHeaderBytes, bytes->size(),
               [bytes](size_t header, size_t length) {
                 const uint32_t crc =
                     Crc32(bytes->data() + header + kFrameHeaderBytes, length);
                 std::memcpy(&(*bytes)[header + sizeof(uint64_t)], &crc,
                             sizeof(crc));
               });
}

/// Produces the mutated inputs of one format from a few valid encodings.
class Mutator {
 public:
  Mutator(std::vector<std::string> originals, uint64_t seed)
      : originals_(std::move(originals)), rng_(seed) {}

  /// Case `i` of the sweep; cycles through the mutation kinds.
  std::string Next(int i) {
    const std::string& base = Pick();
    std::string out = base;
    switch (i % 6) {
      case 0:  // Byte flips, anywhere (header included).
      case 1:  // Byte flips past the header, re-sealed.
        for (int k = 0, n = 1 + static_cast<int>(rng_.UniformInt(3)); k < n;
             ++k) {
          const size_t from = i % 6 == 0 ? 0 : kHeaderBytes;
          const size_t at = from + rng_.UniformInt(out.size() - from);
          out[at] = static_cast<char>(out[at] ^ (1 + rng_.UniformInt(255)));
        }
        if (i % 6 == 1) Reseal(&out);
        return out;
      case 2:  // Truncation.
        out.resize(rng_.UniformInt(out.size()));
        return out;
      case 3: {  // Splice: a prefix of one encoding onto a suffix of another.
        const std::string& other = Pick();
        out = base.substr(0, rng_.UniformInt(base.size() + 1)) +
              other.substr(rng_.UniformInt(other.size() + 1));
        if (rng_.UniformInt(2) == 0) Reseal(&out);
        return out;
      }
      case 4: {  // A section length that lies.
        std::vector<std::pair<size_t, size_t>> frames;
        ForEachFrame(out, kHeaderBytes, out.size(),
                     [&frames](size_t header, size_t length) {
                       frames.emplace_back(header, length);
                     });
        const auto [header, length] = frames[rng_.UniformInt(frames.size())];
        StoreU64(&out, header, Lie(length, out.size()));
        return out;
      }
      default: {  // A lying count (or any 8 payload bytes), re-sealed.
        const size_t at =
            kHeaderBytes + rng_.UniformInt(out.size() - kHeaderBytes - 7);
        StoreU64(&out, at, Lie(LoadU64(out, at), out.size()));
        Reseal(&out);
        return out;
      }
    }
  }

 private:
  const std::string& Pick() {
    return originals_[rng_.UniformInt(originals_.size())];
  }

  /// A wrong value for a length or count field that held `truth`.
  uint64_t Lie(uint64_t truth, size_t file_size) {
    switch (rng_.UniformInt(7)) {
      case 0: return truth + 1 + rng_.UniformInt(16);
      case 1: return truth == 0 ? 1 : truth - 1;
      case 2: return 0;
      case 3: return file_size + rng_.UniformInt(file_size + 1);
      case 4: return uint64_t{1} << (20 + rng_.UniformInt(40));
      case 5: return ~uint64_t{0} - rng_.UniformInt(16);
      default: return rng_.NextU64();
    }
  }

  std::vector<std::string> originals_;
  Rng rng_;
};

/// Loads `bytes` and, on success, re-saves the loaded state into `resaved`.
using LoadAndResave =
    std::function<Status(const std::string& bytes, std::string* resaved)>;

void Sweep(const char* format, std::vector<std::string> originals,
           uint64_t seed, const LoadAndResave& load) {
  // The originals themselves must round-trip, or the sweep proves nothing.
  for (const std::string& original : originals) {
    std::string resaved;
    const Status status = load(original, &resaved);
    ASSERT_TRUE(status.ok()) << format << ": " << status.ToString();
    ASSERT_EQ(resaved, original) << format;
  }
  Mutator mutator(std::move(originals), seed);
  int rejected = 0, accepted = 0, reported = 0;
  for (int i = 0; i < kCasesPerFormat; ++i) {
    const std::string bytes = mutator.Next(i);
    std::string resaved;
    if (!load(bytes, &resaved).ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    // Trailing bytes past the encoding are never read, so a successful
    // load must re-save to exactly the prefix it consumed.
    if (resaved.size() > bytes.size() ||
        bytes.compare(0, resaved.size(), resaved) != 0) {
      if (++reported <= 5) {
        ADD_FAILURE() << format << " case " << i << " (kind " << i % 6
                      << ") loaded but re-saved " << resaved.size()
                      << " different bytes from " << bytes.size();
      }
    }
  }
  EXPECT_EQ(reported, 0) << format << ": non-canonical loads";
  EXPECT_GT(rejected, kCasesPerFormat / 2) << format;
  // Re-sealed flips inside floating-point fields are valid encodings.
  EXPECT_GT(accepted, 0) << format;
}

// ------------------------------------------------------ filter snapshot ---

FactoredFilterConfig FilterConfig() {
  FactoredFilterConfig c;
  c.num_reader_particles = 12;
  c.num_object_particles = 24;
  c.min_object_particles = 8;
  c.compression.mode = CompressionMode::kUnseenEpochs;
  c.compression.compress_after_epochs = 5;
  c.compression.hibernate_after_epochs = 20;
  c.seed = 5;
  return c;
}

/// A snapshot after `epochs` epochs of a scan down the shelf: active,
/// compressed and (by the end) hibernated objects, and index entries.
std::string FilterSnapshotAfter(int epochs) {
  FactoredParticleFilter filter(MakeLineWorld(), FilterConfig());
  ConeSensorModel sensor;
  Rng rng(6);
  const Vec3 obj_a{1.5, 1.0, 0.0}, obj_b{1.5, 9.0, 0.0};
  for (int t = 0; t < epochs; ++t) {
    const double y = 0.1 * t;
    const Pose pose({0.0, y, 0.0}, 0.0);
    std::vector<TagId> tags;
    if (rng.Bernoulli(sensor.ProbReadAt(pose, obj_a))) tags.push_back(1000);
    if (rng.Bernoulli(sensor.ProbReadAt(pose, obj_b))) tags.push_back(1001);
    filter.ObserveEpoch(MakeEpoch(t, y, tags));
  }
  std::stringstream ss;
  EXPECT_TRUE(SaveFilterSnapshot(filter, ss).ok());
  return ss.str();
}

TEST(FormatMutationTest, FilterSnapshot) {
  Sweep("filter snapshot", {FilterSnapshotAfter(40), FilterSnapshotAfter(110)},
        101, [](const std::string& bytes, std::string* resaved) {
          std::stringstream in(bytes);
          FactoredParticleFilter filter(MakeLineWorld(), FilterConfig());
          RFID_RETURN_NOT_OK(LoadFilterSnapshot(in, &filter));
          std::stringstream out;
          RFID_RETURN_NOT_OK(SaveFilterSnapshot(filter, out));
          *resaved = out.str();
          return Status::OK();
        });
}

// ------------------------------------------------------ site checkpoint ---

SitePipelineConfig PipelineConfig() {
  SitePipelineConfig config;
  config.epoch_seconds = 1.0;
  config.max_lateness_seconds = 2.0;  // Keeps epochs pending in the sync.
  config.engine.factored = FilterConfig();
  config.engine.emitter.delay_seconds = 3.0;
  config.scan_boundary.mode = ScanBoundaryConfig::Mode::kReaderReturn;
  return config;
}

/// A checkpoint after `records` records of a reader walking the shelf,
/// reading both tags on the way.
std::string SiteCheckpointAfter(int records) {
  auto pipeline =
      SitePipeline::Create(kSite, MakeLineWorld(), PipelineConfig());
  EXPECT_TRUE(pipeline.ok());
  for (int i = 0; i < records; ++i) {
    const double time = 0.5 * i;
    if (i % 2 == 0) {
      ReaderLocationReport report;
      report.time = time;
      report.location = {0.0, 0.1 * i, 0.0};
      report.has_heading = i % 4 == 0;
      pipeline.value()->OnRecord(ServeRecord::Location(kSite, report), nullptr);
    } else {
      const TagId tag = 0.1 * i < 5.0 ? 1000 : 1001;
      pipeline.value()->OnRecord(ServeRecord::Reading(kSite, {time, tag}),
                                 nullptr);
    }
  }
  std::stringstream ss;
  EXPECT_TRUE(pipeline.value()->SaveCheckpoint(ss).ok());
  return ss.str();
}

TEST(FormatMutationTest, SiteCheckpoint) {
  Sweep("site checkpoint", {SiteCheckpointAfter(30), SiteCheckpointAfter(90)},
        202, [](const std::string& bytes, std::string* resaved) {
          auto pipeline =
              SitePipeline::Create(kSite, MakeLineWorld(), PipelineConfig());
          RFID_RETURN_NOT_OK(pipeline.status());
          std::stringstream in(bytes);
          RFID_RETURN_NOT_OK(pipeline.value()->LoadCheckpoint(in));
          std::stringstream out;
          RFID_RETURN_NOT_OK(pipeline.value()->SaveCheckpoint(out));
          *resaved = out.str();
          return Status::OK();
        });
}

// ----------------------------------------- manifest and dead-letter spill ---

class FileFormatMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("format_mutation_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Dir() const { return dir_.string(); }
  std::filesystem::path dir_;
};

std::string Slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(FileFormatMutationTest, Manifest) {
  // Manifests of one and of two generations (the second retains a
  // fallback), as the save protocol writes them.
  auto pipeline =
      SitePipeline::Create(kSite, MakeLineWorld(), PipelineConfig());
  ASSERT_TRUE(pipeline.ok());
  std::vector<std::string> originals;
  for (int generation = 1; generation <= 2; ++generation) {
    ASSERT_TRUE(SaveSiteCheckpoint(*pipeline.value(), Dir()).ok());
    originals.push_back(Slurp(SiteManifestPath(Dir(), kSite)));
  }
  const std::string header = originals.front().substr(0, kHeaderBytes);
  Sweep("manifest", originals, 303,
        [&](const std::string& bytes, std::string* resaved) {
          Spit(SiteManifestPath(Dir(), kSite), bytes);
          CheckpointManifest manifest;
          RFID_RETURN_NOT_OK(ReadSiteManifest(Dir(), kSite, &manifest));
          // The writer is internal to the save protocol; its layout is the
          // header and one framed section of the two generation numbers.
          std::string payload(2 * sizeof(uint64_t), '\0');
          StoreU64(&payload, 0, manifest.current);
          StoreU64(&payload, sizeof(uint64_t), manifest.previous);
          std::string frame(kFrameHeaderBytes, '\0');
          StoreU64(&frame, 0, payload.size());
          const uint32_t crc = Crc32(payload.data(), payload.size());
          std::memcpy(&frame[sizeof(uint64_t)], &crc, sizeof(crc));
          *resaved = header + frame + payload;
          return Status::OK();
        });
}

std::deque<DeadLetterEntry> DeadLetters(int count) {
  static const char* const kReasons[] = {"", "late record", "unknown site"};
  std::deque<DeadLetterEntry> entries;
  for (int i = 0; i < count; ++i) {
    DeadLetterEntry entry;
    entry.sequence = 10 + static_cast<uint64_t>(i);
    entry.reason = kReasons[i % 3];
    if (i % 2 == 0) {
      entry.record = ServeRecord::Reading(kSite, {0.25 * i, 1000u + i});
    } else {
      ReaderLocationReport report;
      report.time = 0.25 * i;
      report.location = {1.0, 0.5 * i, 0.0};
      report.has_heading = i % 3 == 0;
      report.heading = 0.1 * i;
      entry.record = ServeRecord::Location(kSite, report);
    }
    entries.push_back(entry);
  }
  return entries;
}

TEST_F(FileFormatMutationTest, DeadLetterSpill) {
  const std::string spill = Dir() + "/spill.dlq";
  const std::string again = Dir() + "/again.dlq";
  std::vector<std::string> originals;
  for (int count : {3, 7}) {
    ASSERT_TRUE(WriteDeadLetterSpill(kSite, DeadLetters(count), spill).ok());
    originals.push_back(Slurp(spill));
  }
  Sweep("dead-letter spill", originals, 404,
        [&](const std::string& bytes, std::string* resaved) {
          Spit(spill, bytes);
          SiteId site = 0;
          std::vector<SpilledDeadLetter> spilled;
          RFID_RETURN_NOT_OK(ReadDeadLetterSpill(spill, &site, &spilled));
          std::deque<DeadLetterEntry> entries;
          for (const SpilledDeadLetter& s : spilled) {
            DeadLetterEntry entry;
            entry.record = s.record;
            entry.reason = s.reason.c_str();
            entry.sequence = s.sequence;
            entries.push_back(entry);
          }
          RFID_RETURN_NOT_OK(WriteDeadLetterSpill(site, entries, again));
          *resaved = Slurp(again);
          return Status::OK();
        });
}

}  // namespace
}  // namespace rfid
