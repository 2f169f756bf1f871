#include "pf/snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>

#include "util/serialize.h"

namespace rfid {

namespace {

using serialize::ReadBool;
using serialize::ReadCount;
using serialize::ReadFramedSection;
using serialize::ReadPod;
using serialize::WriteFramedSection;
using serialize::WritePod;

constexpr char kMagic[8] = {'R', 'F', 'I', 'D', 'S', 'N', 'A', 'P'};
// v2 appends the RNG state and the particle-updates counter after the index
// section, making post-restore replay bit-identical to the uninterrupted
// run (v1 reseeded from the config instead).
// v3 adds the hibernation tier per object state: a `hibernated` flag plus
// the last-revived step (which hibernation idleness keys on).
// v4 wraps the entire belief payload in a CRC32 frame ([u64 len][u32 crc]
// after the header): corruption anywhere in the body is detected before a
// single field is committed. The payload layout itself is unchanged from v3.
// v5 run-length codes each object's particle block. Unmoved particles are
// bit-exact copies (ObjectLocationModel::Propagate returns its input unless
// the tag jumps) and systematic resampling gathers ancestors in order, so
// the copies sit next to each other. After the u64 particle count, every
// maximal run of bit-equal positions is [LEB128 run length][x y z],
// followed by each particle of the run as [reader index][f64 weight]; the
// reader index is u8, u16 or u32, the narrowest that holds every index
// below the snapshot's reader count.
// v6 carries the reader remaps still pending instead of resolving them at
// save time (a save must not advance attachments: where a slot resolves
// its remaps decides its draws). After the v5 body: the u64 record count,
// each record as its i64 step and its ancestor array (one reader index per
// reader, at the v5 width), each slot's u32 lag (how many of the newest
// records its attachments have not been resolved through), and the u64
// remap-resolve counter.
// v7 writes each particle run's position as three f32 instead of three
// f64, the width the filter stores positions at (ParticleCoord); everything
// else is laid out as in v6. A v6 file's positions round to f32 on load: a
// finite one past f32's range is rejected, runs are checked maximal on the
// file's own f64 values, and v6 runs that differ only below f32 resolution
// become one run when re-saved. The particle bounds of a v6 object are
// recomputed from its rounded positions.
//
// Version window: one back. Only v7 is written; v6 still loads; v5 and
// older are rejected with an error naming the oldest loadable version —
// the deprecation story is "every release loads its predecessor's files,
// so step through releases, re-saving, to migrate older state".
constexpr uint32_t kVersion = 7;
constexpr uint32_t kMinVersion = 6;

void WriteVec3(std::ostream& os, const Vec3& v) {
  WritePod(os, v.x);
  WritePod(os, v.y);
  WritePod(os, v.z);
}

bool ReadVec3(std::istream& is, Vec3* v) {
  return ReadPod(is, &v->x) && ReadPod(is, &v->y) && ReadPod(is, &v->z);
}

Status Truncated() { return Status::IOError("truncated snapshot"); }

bool IsFinite(const Vec3& v) {
  return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
}

bool IsWeight(double w) { return std::isfinite(w) && w >= 0.0; }

/// One particle run's position as the file holds it: f64 in v6, f32
/// (ParticleCoord) from v7 on.
template <typename Coord>
struct RunPosition {
  Coord x = 0;
  Coord y = 0;
  Coord z = 0;

  bool operator==(const RunPosition& o) const {
    return std::memcmp(this, &o, sizeof(RunPosition)) == 0;
  }
  Vec3 Widened() const { return {x, y, z}; }
};
static_assert(sizeof(RunPosition<ParticleCoord>) == 3 * sizeof(ParticleCoord));
static_assert(sizeof(RunPosition<double>) == 3 * sizeof(double));

/// Stored position `k` of `particles`, as v7 writes it.
RunPosition<ParticleCoord> StoredPosition(const ParticleSoa& particles,
                                          size_t k) {
  return {particles.xs()[k], particles.ys()[k], particles.zs()[k]};
}

/// Whether `v` survives rounding to ParticleCoord (a finite f64 past f32's
/// range does not).
bool FitsParticleCoord(const Vec3& v) {
  return std::isfinite(static_cast<ParticleCoord>(v.x)) &&
         std::isfinite(static_cast<ParticleCoord>(v.y)) &&
         std::isfinite(static_cast<ParticleCoord>(v.z));
}

// Smallest serialized size of each counted element, for bounding counts by
// the bytes left before anything is allocated.
constexpr uint64_t kVec3Bytes = 3 * sizeof(double);
constexpr uint64_t kReaderBytes = kVec3Bytes + 2 * sizeof(double);
constexpr uint64_t kStateBytes = sizeof(TagId) + 3 * sizeof(int64_t) +
                                 3 * kVec3Bytes + 2 * sizeof(uint8_t) +
                                 sizeof(uint64_t);
constexpr uint64_t kIndexEntryBytes = 2 * kVec3Bytes + sizeof(uint64_t);

/// Bytes of one v5 reader index: the narrowest width holding every index
/// below `reader_count`.
uint64_t ReaderIndexBytes(uint64_t reader_count) {
  if (reader_count <= uint64_t{1} << 8) return sizeof(uint8_t);
  if (reader_count <= uint64_t{1} << 16) return sizeof(uint16_t);
  return sizeof(uint32_t);
}

/// Writes `value` as a reader index of `bytes` width.
void WriteReaderIndex(std::ostream& os, uint64_t bytes, uint32_t value) {
  switch (bytes) {
    case sizeof(uint8_t):
      return WritePod(os, static_cast<uint8_t>(value));
    case sizeof(uint16_t):
      return WritePod(os, static_cast<uint16_t>(value));
    default:
      return WritePod(os, value);
  }
}

bool ReadReaderIndex(std::istream& is, uint64_t bytes, uint32_t* value) {
  if (bytes == sizeof(uint8_t)) {
    uint8_t v = 0;
    if (!ReadPod(is, &v)) return false;
    *value = v;
  } else if (bytes == sizeof(uint16_t)) {
    uint16_t v = 0;
    if (!ReadPod(is, &v)) return false;
    *value = v;
  } else if (!ReadPod(is, value)) {
    return false;
  }
  return true;
}

/// Unsigned LEB128: seven bits per byte, low group first, the high bit set
/// on every byte but the last.
void WriteVarint(std::ostream& os, uint64_t value) {
  char bytes[10] = {};
  size_t n = 0;
  for (; value >= 0x80; value >>= 7) {
    bytes[n++] = static_cast<char>((value & 0x7F) | 0x80);
  }
  bytes[n++] = static_cast<char>(value);
  os.write(bytes, static_cast<std::streamsize>(n));
}

/// Reads a v5 run length: a minimal varint (no zero final group after the
/// first byte, so every length has exactly one encoding) in [1, max_run].
Status ReadRunLength(std::istream& is, uint64_t max_run, uint64_t* run) {
  uint64_t value = 0;
  for (int shift = 0;; shift += 7) {
    uint8_t byte = 0;
    if (!ReadPod(is, &byte)) return Truncated();
    const uint64_t group = byte & 0x7F;
    // Ten or more groups overflow 63 bits: far past any possible run.
    if (shift > 56) {
      return Status::Invalid("snapshot particle run length overflows");
    }
    value |= group << shift;
    if ((byte & 0x80) == 0) {
      if (byte == 0 && shift > 0) {
        return Status::Invalid("snapshot particle run length is not minimal");
      }
      break;
    }
  }
  if (value == 0 || value > max_run) {
    return Status::Invalid("snapshot particle run length " +
                           std::to_string(value) + " outside [1, " +
                           std::to_string(max_run) + "]");
  }
  *run = value;
  return Status::OK();
}

Status CheckParticle(uint64_t reader_idx, uint64_t reader_count,
                     double weight) {
  if (reader_idx >= reader_count) {
    return Status::Invalid("snapshot particle references invalid reader");
  }
  if (!IsWeight(weight)) {
    return Status::Invalid("snapshot particle weight is negative or not "
                           "finite");
  }
  return Status::OK();
}

Status InvalidPosition() {
  return Status::Invalid("snapshot particle position is not finite");
}

// The value checks below run on both sides: a save refuses what the loader
// would reject, so a belief gone non-finite fails its checkpoint (the last
// good one stays) instead of writing bytes no restore accepts.

Status CheckReader(const FactoredParticleFilter::ReaderParticle& r) {
  if (!IsFinite(r.pose.position) || !std::isfinite(r.pose.heading) ||
      !IsWeight(r.weight)) {
    return Status::Invalid(
        "snapshot reader particle is not finite or has a negative weight");
  }
  return Status::OK();
}

Status CheckSummary(const Vec3& mean, const std::array<double, 6>& cov) {
  bool finite = IsFinite(mean);
  for (double c : cov) finite = finite && std::isfinite(c);
  if (!finite) return Status::Invalid("snapshot object summary is not finite");
  return Status::OK();
}

Status CheckIndexBox(const Aabb& box) {
  if (!IsFinite(box.min) || !IsFinite(box.max)) {
    return Status::Invalid("snapshot index box is not finite");
  }
  return Status::OK();
}

/// v7 particle block after its count: maximal runs of bit-equal stored
/// positions, each written as three f32.
template <typename Index>
Status WriteParticleRuns(std::ostream& os, uint64_t reader_count,
                         const ParticleSoa& particles) {
  const size_t n = particles.size();
  size_t end = 0;
  for (size_t begin = 0; begin < n; begin = end) {
    const RunPosition<ParticleCoord> position =
        StoredPosition(particles, begin);
    if (!IsFinite(position.Widened())) return InvalidPosition();
    for (end = begin + 1;
         end < n && StoredPosition(particles, end) == position; ++end) {
    }
    WriteVarint(os, end - begin);
    WritePod(os, position);
    for (size_t k = begin; k < end; ++k) {
      RFID_RETURN_NOT_OK(CheckParticle(particles.ReaderIdxAt(k), reader_count,
                                       particles.WeightAt(k)));
      WritePod(os, static_cast<Index>(particles.ReaderIdxAt(k)));
      WritePod(os, particles.WeightAt(k));
    }
  }
  return Status::OK();
}

/// One object's particle block, count included.
Status WriteParticles(std::ostream& os, uint64_t reader_count,
                      const ParticleSoa& particles) {
  WritePod(os, static_cast<uint64_t>(particles.size()));
  switch (ReaderIndexBytes(reader_count)) {
    case sizeof(uint8_t):
      return WriteParticleRuns<uint8_t>(os, reader_count, particles);
    case sizeof(uint16_t):
      return WriteParticleRuns<uint16_t>(os, reader_count, particles);
    default:
      return WriteParticleRuns<uint32_t>(os, reader_count, particles);
  }
}

/// Particle runs with positions of width `Coord` (f64 in v6, f32 from v7).
template <typename Coord, typename Index>
Status ReadParticleRuns(std::istream& is, uint64_t count,
                        uint64_t reader_count, ParticleSoa* particles) {
  RunPosition<Coord> previous;
  for (uint64_t left = count; left > 0;) {
    uint64_t run = 0;
    RFID_RETURN_NOT_OK(ReadRunLength(is, left, &run));
    RunPosition<Coord> stored;
    if (!ReadPod(is, &stored)) return Truncated();
    const Vec3 position = stored.Widened();
    if (!IsFinite(position)) return InvalidPosition();
    if (!FitsParticleCoord(position)) {
      return Status::Invalid("snapshot particle position is past f32 range");
    }
    // Runs are maximal at the file's own width: a run equal to its
    // predecessor would have been written as one.
    if (left < count && stored == previous) {
      return Status::Invalid("snapshot particle runs are not maximal");
    }
    previous = stored;
    left -= run;
    for (; run > 0; --run) {
      Index reader_idx = 0;
      double weight = 0.0;
      if (!ReadPod(is, &reader_idx) || !ReadPod(is, &weight)) {
        return Truncated();
      }
      RFID_RETURN_NOT_OK(CheckParticle(reader_idx, reader_count, weight));
      particles->PushBack(position, reader_idx, weight);
    }
  }
  return Status::OK();
}

template <typename Coord>
Status ReadParticleRunsAt(std::istream& is, uint64_t index_bytes,
                          uint64_t count, uint64_t reader_count,
                          ParticleSoa* particles) {
  switch (index_bytes) {
    case sizeof(uint8_t):
      return ReadParticleRuns<Coord, uint8_t>(is, count, reader_count,
                                              particles);
    case sizeof(uint16_t):
      return ReadParticleRuns<Coord, uint16_t>(is, count, reader_count,
                                               particles);
    default:
      return ReadParticleRuns<Coord, uint32_t>(is, count, reader_count,
                                               particles);
  }
}

/// One object's particle block, count included, of a `version` snapshot.
Status ReadParticles(std::istream& is, uint32_t version, uint64_t reader_count,
                     ParticleSoa* particles) {
  const uint64_t index_bytes = ReaderIndexBytes(reader_count);
  uint64_t count = 0;
  if (!ReadCount(is, &count, index_bytes + sizeof(double))) {
    return Truncated();
  }
  particles->Reset(count);
  if (version == 6) {
    return ReadParticleRunsAt<double>(is, index_bytes, count, reader_count,
                                      particles);
  }
  return ReadParticleRunsAt<ParticleCoord>(is, index_bytes, count,
                                           reader_count, particles);
}

/// v6's pending remaps after the v5 body. Canonical: what loads is exactly
/// what the filter can hold — fewer records than its history cap, steps
/// strictly increasing and before the snapshot's step, ancestors below the
/// reader count, lags at most the record count, lag 0 for slots without
/// particles (they have nothing to resolve), and the oldest record needed
/// by some slot (the filter prunes records no slot needs).
Status ReadPendingRemaps(
    std::istream& is, int64_t step, uint64_t reader_count,
    const std::vector<FactoredParticleFilter::ObjectState>& states,
    std::vector<ReaderRemapRecord>* remaps, std::vector<uint32_t>* lags,
    uint64_t* remap_resolves) {
  const uint64_t index_bytes = ReaderIndexBytes(reader_count);
  uint64_t count = 0;
  if (!ReadCount(is, &count, sizeof(int64_t) + reader_count * index_bytes)) {
    return Truncated();
  }
  if (count >= FactoredParticleFilter::kMaxRemapHistory) {
    return Status::Invalid("snapshot holds " + std::to_string(count) +
                           " pending remaps, past the history cap");
  }
  remaps->clear();
  remaps->reserve(count);
  for (size_t r = 0; r < count; ++r) {
    int64_t record_step = 0;
    if (!ReadPod(is, &record_step)) return Truncated();
    if (record_step < (r == 0 ? 0 : remaps->back().step() + 1) ||
        record_step >= step) {
      return Status::Invalid("snapshot remap steps out of order");
    }
    std::vector<uint32_t> ancestors(reader_count);
    for (uint32_t& a : ancestors) {
      if (!ReadReaderIndex(is, index_bytes, &a)) return Truncated();
      if (a >= reader_count) {
        return Status::Invalid("snapshot remap references invalid reader");
      }
    }
    remaps->emplace_back(record_step, std::move(ancestors));
  }
  lags->resize(states.size());
  uint32_t oldest_needed = 0;
  for (size_t slot = 0; slot < states.size(); ++slot) {
    uint32_t& lag = (*lags)[slot];
    if (!ReadPod(is, &lag)) return Truncated();
    if (lag > count) {
      return Status::Invalid("snapshot slot lags past its pending remaps");
    }
    if (lag > 0 && states[slot].particles.empty()) {
      return Status::Invalid("snapshot slot without particles lags");
    }
    oldest_needed = std::max(oldest_needed, lag);
  }
  if (oldest_needed != count) {
    return Status::Invalid("snapshot keeps a remap no slot needs");
  }
  if (!ReadPod(is, remap_resolves)) return Truncated();
  return Status::OK();
}

}  // namespace

Status SaveFilterSnapshot(const FactoredParticleFilter& filter,
                          std::ostream& sink) {
  // Saving reads the filter and changes nothing: pending reader remaps are
  // written as they are, not resolved.
  sink.write(kMagic, sizeof(kMagic));
  WritePod(sink, kVersion);
  // CRC frame around the whole belief payload, streamed straight into the
  // sink: the loader verifies the checksum before committing a single
  // field.
  const auto write_body = [&filter](std::ostream& os) -> Status {
    WritePod(os, filter.step_);
    WritePod(os, static_cast<uint8_t>(filter.readers_initialized_ ? 1 : 0));

    WritePod(os, static_cast<uint64_t>(filter.readers_.size()));
    for (const auto& r : filter.readers_) {
      RFID_RETURN_NOT_OK(CheckReader(r));
      WriteVec3(os, r.pose.position);
      WritePod(os, r.pose.heading);
      WritePod(os, r.weight);
    }

    WritePod(os, static_cast<uint64_t>(filter.states_.size()));
    for (const auto& state : filter.states_) {
      WritePod(os, state.tag);
      WritePod(os, state.last_observed_step);
      WritePod(os, state.last_processed_step);
      WriteVec3(os, state.last_observed_reader_position);
      WriteVec3(os, state.particle_bounds.min);
      WriteVec3(os, state.particle_bounds.max);
      WritePod(os, static_cast<uint8_t>(state.IsCompressed() ? 1 : 0));
      WritePod(os, static_cast<uint8_t>(state.hibernated ? 1 : 0));
      WritePod(os, state.last_revived_step);
      if (state.IsCompressed()) {
        RFID_RETURN_NOT_OK(CheckSummary(state.compressed->mean(),
                                        state.compressed->covariance()));
        WriteVec3(os, state.compressed->mean());
        for (double c : state.compressed->covariance()) WritePod(os, c);
      }
      RFID_RETURN_NOT_OK(
          WriteParticles(os, filter.readers_.size(), state.particles));
    }

    WritePod(os, static_cast<uint64_t>(filter.index_.num_entries()));
    Status boxes = Status::OK();
    filter.index_.ForEachEntry(
        [&os, &boxes](const Aabb& box, const std::vector<uint32_t>& slots) {
          if (boxes.ok()) boxes = CheckIndexBox(box);
          WriteVec3(os, box.min);
          WriteVec3(os, box.max);
          WritePod(os, static_cast<uint64_t>(slots.size()));
          for (uint32_t s : slots) WritePod(os, s);
        });
    RFID_RETURN_NOT_OK(boxes);

    const RngState rng_state = filter.rng_.SaveState();
    for (uint64_t word : rng_state.s) WritePod(os, word);
    WritePod(os, rng_state.cached_gaussian);
    WritePod(os, static_cast<uint8_t>(rng_state.cached_gaussian_valid ? 1 : 0));
    WritePod(os, filter.particle_updates_.load(std::memory_order_relaxed));

    const uint64_t index_bytes = ReaderIndexBytes(filter.readers_.size());
    WritePod(os, static_cast<uint64_t>(filter.remap_history_.size()));
    for (const ReaderRemapRecord& record : filter.remap_history_) {
      WritePod(os, record.step());
      for (uint32_t a : record.ancestors()) {
        WriteReaderIndex(os, index_bytes, a);
      }
    }
    for (const auto& state : filter.states_) {
      WritePod(os, static_cast<uint32_t>(filter.RemapLag(state)));
    }
    WritePod(os, filter.remap_resolves_);
    return Status::OK();
  };
  RFID_RETURN_NOT_OK(WriteFramedSection(sink, write_body));
  if (!sink.good()) return Status::IOError("failed writing snapshot");
  return Status::OK();
}

Status LoadFilterSnapshot(std::istream& source, FactoredParticleFilter* filter) {
  // Everything parses into these temporaries; the filter is touched only
  // after the whole snapshot parsed and its checksum passed — and, when the
  // snapshot is read from inside a framed section, that section's too.
  // Index entries are kept raw until then, so the R*-tree never sees
  // unverified boxes. Parsing accepts only what the writer produces, so
  // whatever v7 loads re-saves to the same bytes.
  int64_t step = 0;
  bool readers_initialized = false;
  std::vector<FactoredParticleFilter::ReaderParticle> readers;
  std::vector<FactoredParticleFilter::ObjectState> states;
  std::unordered_map<TagId, uint32_t> slot_of_tag;
  std::vector<std::pair<Aabb, std::vector<uint32_t>>> entries;
  RngState rng_state;
  uint64_t particle_updates = 0;
  std::vector<ReaderRemapRecord> remaps;
  std::vector<uint32_t> lags;
  uint64_t remap_resolves = 0;

  char magic[8];
  source.read(magic, sizeof(magic));
  if (!source.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Invalid("not a filter snapshot (bad magic)");
  }
  uint32_t version = 0;
  if (!ReadPod(source, &version)) return Truncated();
  if (version < kMinVersion || version > kVersion) {
    return Status::Invalid(
        "unsupported snapshot version " + std::to_string(version) +
        " (oldest loadable is v" + std::to_string(kMinVersion) +
        "; load windows are one version back — migrate older snapshots by "
        "re-saving them with the release that wrote them plus one)");
  }

  // Body parser (the framed payload after the header). v6 and v7 differ
  // only in the width of particle positions; floats that feed inference
  // must be finite (the bounds box is exempt: an empty box is legitimately
  // infinite).
  const auto parse_body = [&](std::istream& is) -> Status {
    if (!ReadPod(is, &step) || !ReadBool(is, &readers_initialized)) {
      return Truncated();
    }

    uint64_t reader_count = 0;
    if (!ReadCount(is, &reader_count, kReaderBytes)) return Truncated();
    readers.resize(reader_count);
    for (auto& r : readers) {
      if (!ReadVec3(is, &r.pose.position) || !ReadPod(is, &r.pose.heading) ||
          !ReadPod(is, &r.weight)) {
        return Truncated();
      }
      RFID_RETURN_NOT_OK(CheckReader(r));
    }

    uint64_t state_count = 0;
    if (!ReadCount(is, &state_count, kStateBytes)) return Truncated();
    states.resize(state_count);
    for (uint32_t slot = 0; slot < state_count; ++slot) {
      auto& state = states[slot];
      bool compressed = false;
      if (!ReadPod(is, &state.tag) || !ReadPod(is, &state.last_observed_step) ||
          !ReadPod(is, &state.last_processed_step) ||
          !ReadVec3(is, &state.last_observed_reader_position) ||
          !ReadVec3(is, &state.particle_bounds.min) ||
          !ReadVec3(is, &state.particle_bounds.max) ||
          !ReadBool(is, &compressed) || !ReadBool(is, &state.hibernated) ||
          !ReadPod(is, &state.last_revived_step)) {
        return Truncated();
      }
      if (!slot_of_tag.emplace(state.tag, slot).second) {
        return Status::Invalid("snapshot tracks a tag twice");
      }
      if (state.hibernated && !compressed) {
        return Status::Invalid(
            "snapshot has a hibernated object without a summary");
      }
      if (compressed) {
        Vec3 mean;
        std::array<double, 6> cov;
        if (!ReadVec3(is, &mean)) return Truncated();
        for (double& c : cov) {
          if (!ReadPod(is, &c)) return Truncated();
        }
        RFID_RETURN_NOT_OK(CheckSummary(mean, cov));
        state.compressed = GaussianBelief(mean, cov);
      }
      RFID_RETURN_NOT_OK(
          ReadParticles(is, version, reader_count, &state.particles));
      // v6 bounds are those of the unrounded positions; the far-field test
      // needs the box of the stored ones.
      if (version == 6 && !state.particles.empty()) {
        state.particle_bounds = state.particles.ComputeBounds();
      }
    }

    uint64_t entry_count = 0;
    if (!ReadCount(is, &entry_count, kIndexEntryBytes)) return Truncated();
    entries.resize(entry_count);
    for (auto& [box, slots] : entries) {
      uint64_t slot_count = 0;
      if (!ReadVec3(is, &box.min) || !ReadVec3(is, &box.max) ||
          !ReadCount(is, &slot_count, sizeof(uint32_t))) {
        return Truncated();
      }
      RFID_RETURN_NOT_OK(CheckIndexBox(box));
      slots.resize(slot_count);
      for (size_t k = 0; k < slots.size(); ++k) {
        if (!ReadPod(is, &slots[k])) return Truncated();
        if (slots[k] >= state_count) {
          return Status::Invalid("snapshot index references invalid slot");
        }
        // The index keeps each entry's slots sorted and deduplicated.
        if (k > 0 && slots[k] <= slots[k - 1]) {
          return Status::Invalid("snapshot index slots out of order");
        }
      }
    }

    for (uint64_t& word : rng_state.s) {
      if (!ReadPod(is, &word)) return Truncated();
    }
    if (!ReadPod(is, &rng_state.cached_gaussian) ||
        !ReadBool(is, &rng_state.cached_gaussian_valid) ||
        !ReadPod(is, &particle_updates)) {
      return Truncated();
    }
    return ReadPendingRemaps(is, step, reader_count, states, &remaps, &lags,
                             &remap_resolves);
  };

  RFID_RETURN_NOT_OK(ReadFramedSection(source, parse_body));
  RFID_RETURN_NOT_OK(serialize::VerifySection(source));

  // Saved entries come back verbatim, in their order, through the
  // non-merging RestoreEntry: re-inserting them could merge entries the
  // writer kept apart (an older writer merged only into the newest entry),
  // and the restored index must merge later boxes as the saved one would.
  SensingRegionIndex index;
  for (auto& [box, slots] : entries) index.RestoreEntry(box, std::move(slots));
  filter->rng_.RestoreState(rng_state);
  filter->particle_updates_.store(particle_updates,
                                  std::memory_order_relaxed);
  filter->step_ = step;
  filter->readers_initialized_ = readers_initialized;
  filter->readers_ = std::move(readers);
  filter->states_ = std::move(states);
  filter->index_ = std::move(index);
  filter->slot_of_tag_ = std::move(slot_of_tag);
  // Generations restart at the oldest pending record: record i is
  // generation i + 1, and a slot lagging L records is synced to
  // generation count - L.
  filter->reader_gen_ = remaps.size();
  filter->remap_base_gen_ = 0;
  for (size_t slot = 0; slot < lags.size(); ++slot) {
    filter->states_[slot].reader_gen = remaps.size() - lags[slot];
  }
  filter->remap_history_ = std::move(remaps);
  filter->remap_resolves_ = remap_resolves;
  // The index's hibernation bits are derived state; rebuild them so the
  // all-hibernated entry skip resumes exactly where the saved filter was.
  for (uint32_t slot = 0; slot < filter->states_.size(); ++slot) {
    if (filter->states_[slot].hibernated) {
      filter->index_.SetSlotHibernated(slot, true);
    }
  }
  return Status::OK();
}

}  // namespace rfid
