// CSV persistence for raw reader streams, so recorded deployments can be
// replayed through the engine offline (and synthetic traces can be exported
// for other tools).
//
// Formats (header line + rows):
//   readings:  time,tag
//   locations: time,x,y,z,heading   (heading column empty when unavailable)
// Numbers are written with max_digits10 (17) significant digits, so a trace
// reads back bit for bit. The readers accept only what a writer can
// produce: finite numbers, and tags of plain decimal digits up to
// UINT32_MAX.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "stream/readings.h"
#include "util/status.h"

namespace rfid {

/// Writes the RFID reading stream as CSV.
Status WriteReadingsCsv(const std::vector<TagReading>& readings,
                        std::ostream& os);
/// Writes the reader-location stream as CSV.
Status WriteLocationsCsv(const std::vector<ReaderLocationReport>& reports,
                         std::ostream& os);

/// Parses an RFID reading stream. Fails with line information on malformed
/// rows; requires the exact header.
Result<std::vector<TagReading>> ReadReadingsCsv(std::istream& is);
/// Parses a reader-location stream.
Result<std::vector<ReaderLocationReport>> ReadLocationsCsv(std::istream& is);

// File-path convenience wrappers.
Status WriteReadingsCsvFile(const std::vector<TagReading>& readings,
                            const std::string& path);
Status WriteLocationsCsvFile(const std::vector<ReaderLocationReport>& reports,
                             const std::string& path);
Result<std::vector<TagReading>> ReadReadingsCsvFile(const std::string& path);
Result<std::vector<ReaderLocationReport>> ReadLocationsCsvFile(
    const std::string& path);

/// Flattens a synchronized epoch stream back into raw streams (inverse of
/// StreamSynchronizer, up to within-epoch timestamps): readings get the
/// epoch time, location reports the epoch time as well.
void FlattenEpochs(const std::vector<SyncedEpoch>& epochs,
                   std::vector<TagReading>* readings,
                   std::vector<ReaderLocationReport>* reports);

}  // namespace rfid
