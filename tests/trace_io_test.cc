// Tests for CSV trace persistence and epoch flattening.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "stream/synchronizer.h"
#include "stream/trace_io.h"
#include "test_util.h"

namespace rfid {
namespace {

TEST(TraceIoTest, ReadingsRoundTrip) {
  const std::vector<TagReading> readings = {
      {0.5, 7}, {1.25, 1000}, {1.25, 1001}, {9.75, 42}};
  std::stringstream ss;
  ASSERT_TRUE(WriteReadingsCsv(readings, ss).ok());
  const auto back = ReadReadingsCsv(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), readings.size());
  for (size_t i = 0; i < readings.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.value()[i].time, readings[i].time);
    EXPECT_EQ(back.value()[i].tag, readings[i].tag);
  }
}

TEST(TraceIoTest, LocationsRoundTripWithAndWithoutHeading) {
  std::vector<ReaderLocationReport> reports(2);
  reports[0].time = 1.0;
  reports[0].location = {1.5, -2.25, 0.5};
  reports[0].has_heading = true;
  reports[0].heading = 1.57;
  reports[1].time = 2.0;
  reports[1].location = {0, 0, 0};
  reports[1].has_heading = false;
  std::stringstream ss;
  ASSERT_TRUE(WriteLocationsCsv(reports, ss).ok());
  const auto back = ReadLocationsCsv(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), 2u);
  EXPECT_TRUE(back.value()[0].has_heading);
  EXPECT_DOUBLE_EQ(back.value()[0].heading, 1.57);
  EXPECT_DOUBLE_EQ(back.value()[0].location.y, -2.25);
  EXPECT_FALSE(back.value()[1].has_heading);
}

TEST(TraceIoTest, EmptyStreamsRoundTrip) {
  std::stringstream ss;
  ASSERT_TRUE(WriteReadingsCsv({}, ss).ok());
  const auto back = ReadReadingsCsv(ss);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(TraceIoTest, MissingHeaderFails) {
  std::stringstream ss("1.0,42\n");
  EXPECT_FALSE(ReadReadingsCsv(ss).ok());
  std::stringstream ss2("time,tag\n");  // Wrong header for locations.
  EXPECT_FALSE(ReadLocationsCsv(ss2).ok());
}

TEST(TraceIoTest, MalformedRowsReportLineNumber) {
  std::stringstream ss("time,tag\n1.0,42\nnot_a_number,7\n");
  const auto back = ReadReadingsCsv(ss);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("line 3"), std::string::npos);
}

TEST(TraceIoTest, WrongArityFails) {
  std::stringstream ss("time,tag\n1.0,42,extra\n");
  EXPECT_FALSE(ReadReadingsCsv(ss).ok());
  std::stringstream ss2("time,x,y,z,heading\n1.0,2.0,3.0\n");
  EXPECT_FALSE(ReadLocationsCsv(ss2).ok());
}

TEST(TraceIoTest, BlankLinesAreSkipped) {
  std::stringstream ss("time,tag\n1.0,42\n\n2.0,43\n");
  const auto back = ReadReadingsCsv(ss);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().size(), 2u);
}

TEST(TraceIoTest, RoundTripsEveryDoubleBitForBit) {
  // Six significant digits would read 1234.56789 back as 1234.57; the
  // writers print max_digits10, so every value comes back bit for bit.
  const double values[] = {1234.56789, 0.1 + 0.2, -1.0 / 3.0, 1e-300,
                           4.9e-324, -0.0, 1.7976931348623157e308};
  std::vector<TagReading> readings;
  std::vector<ReaderLocationReport> reports;
  for (double v : values) {
    readings.push_back({v, 4294967295u});
    ReaderLocationReport r;
    r.time = v;
    r.location = {v, -v, v / 7.0};
    r.has_heading = true;
    r.heading = v;
    reports.push_back(r);
  }
  std::stringstream rs, ls;
  ASSERT_TRUE(WriteReadingsCsv(readings, rs).ok());
  ASSERT_TRUE(WriteLocationsCsv(reports, ls).ok());
  // The caller's stream precision is left as it was.
  EXPECT_EQ(rs.precision(), 6);
  const auto readings_back = ReadReadingsCsv(rs);
  const auto reports_back = ReadLocationsCsv(ls);
  ASSERT_TRUE(readings_back.ok()) << readings_back.status().ToString();
  ASSERT_TRUE(reports_back.ok()) << reports_back.status().ToString();
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (size_t i = 0; i < readings.size(); ++i) {
    EXPECT_TRUE(same_bits(readings_back.value()[i].time, readings[i].time))
        << i;
    EXPECT_EQ(readings_back.value()[i].tag, 4294967295u);
    const ReaderLocationReport& a = reports_back.value()[i];
    const ReaderLocationReport& b = reports[i];
    EXPECT_TRUE(same_bits(a.time, b.time)) << i;
    EXPECT_TRUE(same_bits(a.location.x, b.location.x)) << i;
    EXPECT_TRUE(same_bits(a.location.y, b.location.y)) << i;
    EXPECT_TRUE(same_bits(a.location.z, b.location.z)) << i;
    EXPECT_TRUE(same_bits(a.heading, b.heading)) << i;
  }
}

TEST(TraceIoTest, RejectsNonFiniteNumbers) {
  // The writers never print NaN or infinities, so the readers refuse them
  // in every numeric column.
  for (const char* cell : {"nan", "NAN", "-nan", "inf", "-inf", "Infinity",
                           "1e400"}) {
    SCOPED_TRACE(cell);
    const std::string c(cell);
    std::stringstream readings("time,tag\n" + c + ",7\n");
    EXPECT_FALSE(ReadReadingsCsv(readings).ok());
    for (int column = 0; column < 5; ++column) {
      std::string row = "1.0,2.0,3.0,4.0,0.5";
      std::vector<std::string> cells;
      std::stringstream split(row);
      for (std::string x; std::getline(split, x, ',');) cells.push_back(x);
      cells[column] = c;
      row = cells[0];
      for (int k = 1; k < 5; ++k) row += "," + cells[k];
      std::stringstream locations("time,x,y,z,heading\n" + row + "\n");
      EXPECT_FALSE(ReadLocationsCsv(locations).ok()) << "column " << column;
    }
  }
}

TEST(TraceIoTest, TagsArePlainDecimalDigitsWithinUint32) {
  // strtoul wrapped "-1" to 4294967295 and "4294967296" to 0; only plain
  // digits up to UINT32_MAX are tags.
  for (const char* tag : {"-1", "+5", " 5", "5 ", "0x10", "4294967296",
                          "99999999999999999999", "1.0", "5a"}) {
    std::stringstream ss("time,tag\n1.0," + std::string(tag) + "\n");
    EXPECT_FALSE(ReadReadingsCsv(ss).ok()) << "'" << tag << "'";
  }
  std::stringstream ss("time,tag\n1.0,4294967295\n2.0,007\n");
  const auto back = ReadReadingsCsv(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value()[0].tag, 4294967295u);
  EXPECT_EQ(back.value()[1].tag, 7u);
}

TEST(TraceIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/readings.csv";
  const std::vector<TagReading> readings = {{0.5, 7}, {1.5, 8}};
  ASSERT_TRUE(WriteReadingsCsvFile(readings, path).ok());
  const auto back = ReadReadingsCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().size(), 2u);
}

TEST(TraceIoTest, MissingFileFails) {
  EXPECT_EQ(ReadReadingsCsvFile("/nonexistent/path.csv").status().code(),
            StatusCode::kIOError);
}

TEST(TraceIoTest, FlattenThenResynchronizeRoundTrips) {
  // Epochs -> raw streams -> synchronizer -> identical epochs.
  std::vector<SyncedEpoch> epochs(3);
  for (int t = 0; t < 3; ++t) {
    epochs[t].step = t;
    epochs[t].time = static_cast<double>(t);
    epochs[t].has_location = true;
    epochs[t].reported_location = {0.0, 0.1 * t, 0.0};
    epochs[t].has_heading = true;
    epochs[t].reported_heading = 0.25;
  }
  epochs[0].tags = {5, 7};
  epochs[2].tags = {9};

  std::vector<TagReading> readings;
  std::vector<ReaderLocationReport> reports;
  FlattenEpochs(epochs, &readings, &reports);
  EXPECT_EQ(readings.size(), 3u);
  EXPECT_EQ(reports.size(), 3u);

  StreamSynchronizer sync;
  const auto back = testing_util::SynchronizeAll(&sync, readings, reports);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0].tags, (std::vector<TagId>{5, 7}));
  EXPECT_TRUE(back[1].tags.empty());
  EXPECT_EQ(back[2].tags, (std::vector<TagId>{9}));
  EXPECT_TRUE(back[1].has_location);
  EXPECT_TRUE(back[2].has_heading);
  EXPECT_NEAR(back[2].reported_heading, 0.25, 1e-9);
}

}  // namespace
}  // namespace rfid
