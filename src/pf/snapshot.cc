#include "pf/snapshot.h"

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
//
// Version window: one back. Only v5 is written; v4 still loads; v3 and
// older are rejected with an error naming the oldest loadable version —
// the deprecation story is "every release loads its predecessor's files,
// so step through releases, re-saving, to migrate older state".
constexpr uint32_t kVersion = 5;
constexpr uint32_t kMinVersion = 4;

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

bool SameBits(const Vec3& a, const Vec3& b) {
  static_assert(sizeof(Vec3) == 3 * sizeof(double));
  return std::memcmp(&a, &b, sizeof(Vec3)) == 0;
}

// Smallest serialized size of each counted element, for bounding counts by
// the bytes left before anything is allocated.
constexpr uint64_t kVec3Bytes = 3 * sizeof(double);
constexpr uint64_t kReaderBytes = kVec3Bytes + 2 * sizeof(double);
constexpr uint64_t kV4ParticleBytes =
    kVec3Bytes + sizeof(uint32_t) + sizeof(double);
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

/// v5 particle block after its count: maximal runs of bit-equal positions.
template <typename Index>
void WriteParticleRuns(std::ostream& os, const ParticleSoa& particles) {
  const size_t n = particles.size();
  size_t end = 0;
  for (size_t begin = 0; begin < n; begin = end) {
    const Vec3 position = particles.PositionAt(begin);
    for (end = begin + 1;
         end < n && SameBits(particles.PositionAt(end), position); ++end) {
    }
    WriteVarint(os, end - begin);
    WriteVec3(os, position);
    for (size_t k = begin; k < end; ++k) {
      WritePod(os, static_cast<Index>(particles.ReaderIdxAt(k)));
      WritePod(os, particles.WeightAt(k));
    }
  }
}

/// One object's v5 particle block, count included.
void WriteParticles(std::ostream& os, uint64_t reader_count,
                    const ParticleSoa& particles) {
  WritePod(os, static_cast<uint64_t>(particles.size()));
  switch (ReaderIndexBytes(reader_count)) {
    case sizeof(uint8_t):
      return WriteParticleRuns<uint8_t>(os, particles);
    case sizeof(uint16_t):
      return WriteParticleRuns<uint16_t>(os, particles);
    default:
      return WriteParticleRuns<uint32_t>(os, particles);
  }
}

template <typename Index>
Status ReadParticleRuns(std::istream& is, uint64_t count,
                        uint64_t reader_count, ParticleSoa* particles) {
  Vec3 previous;
  for (uint64_t left = count; left > 0;) {
    uint64_t run = 0;
    RFID_RETURN_NOT_OK(ReadRunLength(is, left, &run));
    Vec3 position;
    if (!ReadVec3(is, &position)) return Truncated();
    if (!IsFinite(position)) return InvalidPosition();
    // Runs are maximal: a run equal to its predecessor would re-save as one.
    if (left < count && SameBits(position, previous)) {
      return Status::Invalid("snapshot particle runs are not maximal");
    }
    previous = position;
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

/// v4 particle block after its count: 36 B per particle.
Status ReadV4Particles(std::istream& is, uint64_t count,
                       uint64_t reader_count, ParticleSoa* particles) {
  for (uint64_t k = 0; k < count; ++k) {
    Vec3 position;
    uint32_t reader_idx = 0;
    double weight = 0.0;
    if (!ReadVec3(is, &position) || !ReadPod(is, &reader_idx) ||
        !ReadPod(is, &weight)) {
      return Truncated();
    }
    if (!IsFinite(position)) return InvalidPosition();
    RFID_RETURN_NOT_OK(CheckParticle(reader_idx, reader_count, weight));
    particles->PushBack(position, reader_idx, weight);
  }
  return Status::OK();
}

/// One object's particle block, count included, in `version`'s layout.
Status ReadParticles(std::istream& is, uint32_t version,
                     uint64_t reader_count, ParticleSoa* particles) {
  const uint64_t index_bytes = ReaderIndexBytes(reader_count);
  uint64_t count = 0;
  if (!ReadCount(is, &count,
                 version == 4 ? kV4ParticleBytes
                              : index_bytes + sizeof(double))) {
    return Truncated();
  }
  particles->reserve(count);
  if (version == 4) return ReadV4Particles(is, count, reader_count, particles);
  switch (index_bytes) {
    case sizeof(uint8_t):
      return ReadParticleRuns<uint8_t>(is, count, reader_count, particles);
    case sizeof(uint16_t):
      return ReadParticleRuns<uint16_t>(is, count, reader_count, particles);
    default:
      return ReadParticleRuns<uint32_t>(is, count, reader_count, particles);
  }
}

}  // namespace

Status SaveFilterSnapshot(const FactoredParticleFilter& filter,
                          std::ostream& sink) {
  // The on-disk format has no notion of a pending reader remap: replay any
  // deferred ones so the persisted attachments equal an eager filter's (a
  // restored filter then starts with an empty remap history).
  filter.SyncAllReaderAttachments();
  sink.write(kMagic, sizeof(kMagic));
  WritePod(sink, kVersion);
  // CRC frame around the whole belief payload, streamed straight into the
  // sink: the loader verifies the checksum before committing a single
  // field.
  RFID_RETURN_NOT_OK(WriteFramedSection(sink, [&filter](std::ostream& os) {
    WritePod(os, filter.step_);
    WritePod(os, static_cast<uint8_t>(filter.readers_initialized_ ? 1 : 0));

    WritePod(os, static_cast<uint64_t>(filter.readers_.size()));
    for (const auto& r : filter.readers_) {
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
        WriteVec3(os, state.compressed->mean());
        for (double c : state.compressed->covariance()) WritePod(os, c);
      }
      WriteParticles(os, filter.readers_.size(), state.particles);
    }

    WritePod(os, static_cast<uint64_t>(filter.index_.num_entries()));
    filter.index_.ForEachEntry(
        [&os](const Aabb& box, const std::vector<uint32_t>& slots) {
          WriteVec3(os, box.min);
          WriteVec3(os, box.max);
          WritePod(os, static_cast<uint64_t>(slots.size()));
          for (uint32_t s : slots) WritePod(os, s);
        });

    const RngState rng_state = filter.rng_.SaveState();
    for (uint64_t word : rng_state.s) WritePod(os, word);
    WritePod(os, rng_state.cached_gaussian);
    WritePod(os, static_cast<uint8_t>(rng_state.cached_gaussian_valid ? 1 : 0));
    WritePod(os, filter.particle_updates_.load(std::memory_order_relaxed));
  }));
  if (!sink.good()) return Status::IOError("failed writing snapshot");
  return Status::OK();
}

Status LoadFilterSnapshot(std::istream& source, FactoredParticleFilter* filter) {
  // Everything parses into these temporaries; the filter is touched only
  // after the whole snapshot parsed and its checksum passed — and, when the
  // snapshot is read from inside a framed section, that section's too.
  // Index entries are kept raw until then, so the R*-tree never sees
  // unverified boxes. Parsing accepts only what the writer produces, so
  // whatever loads re-saves to the same bytes.
  int64_t step = 0;
  bool readers_initialized = false;
  std::vector<FactoredParticleFilter::ReaderParticle> readers;
  std::vector<FactoredParticleFilter::ObjectState> states;
  std::unordered_map<TagId, uint32_t> slot_of_tag;
  std::vector<std::pair<Aabb, std::vector<uint32_t>>> entries;
  RngState rng_state;
  uint64_t particle_updates = 0;

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

  // Body parser (the framed payload after the header). Its layout is the
  // same in every loadable version except for the particle blocks; floats
  // that feed inference must be finite (the bounds box is exempt: an empty
  // box is legitimately infinite).
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
      if (!IsFinite(r.pose.position) || !std::isfinite(r.pose.heading) ||
          !IsWeight(r.weight)) {
        return Status::Invalid(
            "snapshot reader particle is not finite or has a negative weight");
      }
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
        bool finite = IsFinite(mean);
        for (double& c : cov) {
          if (!ReadPod(is, &c)) return Truncated();
          finite = finite && std::isfinite(c);
        }
        if (!finite) {
          return Status::Invalid("snapshot object summary is not finite");
        }
        state.compressed = GaussianBelief(mean, cov);
      }
      RFID_RETURN_NOT_OK(
          ReadParticles(is, version, reader_count, &state.particles));
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
      if (!IsFinite(box.min) || !IsFinite(box.max)) {
        return Status::Invalid("snapshot index box is not finite");
      }
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
    return Status::OK();
  };

  RFID_RETURN_NOT_OK(ReadFramedSection(source, parse_body));
  RFID_RETURN_NOT_OK(serialize::VerifySection(source));

  SensingRegionIndex index(filter->config_.index);
  for (const auto& [box, slots] : entries) index.Insert(box, slots);
  // Saved entries were distinct when first inserted, so re-inserting them
  // in order merges none; a merge means the boxes were tampered with.
  if (index.num_entries() != entries.size()) {
    return Status::Invalid("snapshot index entries overlap");
  }
  filter->rng_.RestoreState(rng_state);
  filter->particle_updates_.store(particle_updates,
                                  std::memory_order_relaxed);
  filter->step_ = step;
  filter->readers_initialized_ = readers_initialized;
  filter->readers_ = std::move(readers);
  filter->states_ = std::move(states);
  filter->index_ = std::move(index);
  filter->slot_of_tag_ = std::move(slot_of_tag);
  // Snapshots are saved fully synced, so the restored filter starts with no
  // pending remaps (every loaded state carries the default reader_gen 0).
  filter->remap_history_.clear();
  filter->reader_gen_ = 0;
  filter->remap_base_gen_ = 0;
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
