// Checkpoint / restore of the factored filter's belief state.
//
// A long-running deployment must survive process restarts without rescanning
// the warehouse: the snapshot captures reader particles, every object's
// belief (particles or compressed Gaussian plus bookkeeping), the epoch
// counter, and (since v2) the filter's RNG state. The sensing-region index
// is rebuilt from recorded entries on load. Because per-object updates
// already draw from streams keyed by (seed, slot, step) and the shared RNG
// state round-trips exactly, replaying the same tail of a stream after a
// restore is **bit-identical** to the uninterrupted run — the property the
// serving layer's checkpoint/restore (src/serve/checkpoint.h) is built on.
//
// Format: same-architecture binary (magic + version header, then the whole
// belief payload in one CRC32 frame, so corruption is detected before
// anything is committed). Not intended as a cross-platform interchange
// format. Since v5 each object's particles are written as maximal runs of
// bit-equal positions — one position per run, then every particle of the
// run as a reader index (u8/u16/u32 by the reader count) and a weight —
// because unmoved particles are exact copies and resampling keeps copies
// adjacent. The payload streams through util/serialize.h's framed
// sections, so saving never stages a copy of the belief: the sink must be
// seekable (a file or a string stream), and a non-seekable sink fails with
// a non-OK Status.
//
// Version window: one back. The writer emits v5 only; the loader accepts v5
// and v4 and rejects anything older with an error naming the oldest
// loadable version. Migrating older files means stepping through releases,
// re-saving at each one. Decoding is canonical: whatever loads re-saves to
// the same v5 bytes (a v4 file re-saves as v5), and non-finite reader
// poses, particle positions or weights are rejected.
#pragma once

#include <iosfwd>

#include "pf/factored_filter.h"
#include "util/status.h"

namespace rfid {

/// Writes the filter's belief state into a seekable sink. The WorldModel and
/// config are NOT serialized — the caller reconstructs the filter with the
/// same model and config before restoring.
Status SaveFilterSnapshot(const FactoredParticleFilter& filter,
                          std::ostream& os);

/// Restores belief state into a freshly constructed filter (same model and
/// config as the saved one). Fails on magic/version mismatch, truncation or
/// a checksum mismatch, leaving the filter untouched. Read from inside a
/// framed section (a site checkpoint's), it also verifies that section
/// before committing anything.
Status LoadFilterSnapshot(std::istream& is, FactoredParticleFilter* filter);

}  // namespace rfid
