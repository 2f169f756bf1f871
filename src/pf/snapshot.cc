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
//
// Version window: one back. Only v4 is written; v3 still loads (its body
// is parsed directly from the stream, without frame verification); v2 and
// older are rejected with an error naming the oldest loadable version —
// the deprecation story is "every release loads its predecessor's files,
// so step through releases, re-saving, to migrate older state".
constexpr uint32_t kVersion = 4;
constexpr uint32_t kMinVersion = 3;

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

// Smallest serialized size of each counted element, for bounding counts by
// the bytes left before anything is allocated.
constexpr uint64_t kVec3Bytes = 3 * sizeof(double);
constexpr uint64_t kReaderBytes = kVec3Bytes + 2 * sizeof(double);
constexpr uint64_t kParticleBytes =
    kVec3Bytes + sizeof(uint32_t) + sizeof(double);
constexpr uint64_t kStateBytes = sizeof(TagId) + 3 * sizeof(int64_t) +
                                 3 * kVec3Bytes + 2 * sizeof(uint8_t) +
                                 sizeof(uint64_t);
constexpr uint64_t kIndexEntryBytes = 2 * kVec3Bytes + sizeof(uint64_t);

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
  // field. The payload layout has been stable since v3.
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
      WritePod(os, static_cast<uint64_t>(state.particles.size()));
      for (const auto& p : state.particles) {
        WriteVec3(os, p.position);
        WritePod(os, p.reader_idx);
        WritePod(os, p.weight);
      }
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

  // Body parser (everything after the header); its layout is the same in
  // every loadable version.
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
        state.compressed = GaussianBelief(mean, cov);
      }
      uint64_t particle_count = 0;
      if (!ReadCount(is, &particle_count, kParticleBytes)) return Truncated();
      state.particles.reserve(particle_count);
      for (uint64_t k = 0; k < particle_count; ++k) {
        Vec3 position;
        uint32_t reader_idx = 0;
        double weight = 0.0;
        if (!ReadVec3(is, &position) || !ReadPod(is, &reader_idx) ||
            !ReadPod(is, &weight)) {
          return Truncated();
        }
        if (reader_idx >= reader_count) {
          return Status::Invalid("snapshot particle references invalid reader");
        }
        state.particles.PushBack(position, reader_idx, weight);
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
  if (version >= 4) {
    RFID_RETURN_NOT_OK(ReadFramedSection(source, parse_body));
  } else {
    RFID_RETURN_NOT_OK(parse_body(source));
  }
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
