#include "ars/hpcm/schema.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace ars::hpcm {
namespace {

ApplicationSchema tree_schema() {
  ApplicationSchema schema{"test_tree"};
  schema.set_characteristic(AppCharacteristic::kComputeIntensive);
  schema.set_est_comm_bytes(40 * 1024 * 1024);
  schema.set_est_exec_time(600.0);
  schema.set_data_locality(0.1);
  ResourceRequirements req;
  req.min_memory_bytes = 64 * 1024 * 1024;
  req.min_disk_bytes = 0;
  req.min_cpu_speed = 0.5;
  schema.set_requirements(req);
  return schema;
}

TEST(Schema, XmlRoundTrip) {
  const ApplicationSchema schema = tree_schema();
  const std::string xml = schema.to_xml();
  const auto back = ApplicationSchema::from_xml(xml);
  ASSERT_TRUE(back.has_value()) << back.error().to_string();
  EXPECT_EQ(back->name(), "test_tree");
  EXPECT_EQ(back->characteristic(), AppCharacteristic::kComputeIntensive);
  EXPECT_EQ(back->est_comm_bytes(), 40U * 1024 * 1024);
  EXPECT_DOUBLE_EQ(back->est_exec_time(), 600.0);
  EXPECT_NEAR(back->data_locality(), 0.1, 1e-9);
  EXPECT_EQ(back->requirements().min_memory_bytes, 64U * 1024 * 1024);
  EXPECT_DOUBLE_EQ(back->requirements().min_cpu_speed, 0.5);
}

TEST(Schema, CharacteristicNamesRoundTrip) {
  for (const AppCharacteristic c :
       {AppCharacteristic::kComputeIntensive,
        AppCharacteristic::kCommunicationIntensive,
        AppCharacteristic::kDataIntensive}) {
    const auto parsed = characteristic_from_string(to_string(c));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, c);
  }
  EXPECT_FALSE(characteristic_from_string("io-bound").has_value());
}

TEST(Schema, FirstObservationSeedsEstimate) {
  ApplicationSchema schema{"fresh"};
  EXPECT_DOUBLE_EQ(schema.est_exec_time(), 0.0);
  schema.record_execution(500.0);
  EXPECT_DOUBLE_EQ(schema.est_exec_time(), 500.0);
  EXPECT_EQ(schema.observed_runs(), 1);
}

TEST(Schema, EstimateSmoothsTowardObservations) {
  ApplicationSchema schema = tree_schema();  // est 600
  schema.record_execution(1000.0);
  EXPECT_GT(schema.est_exec_time(), 600.0);
  EXPECT_LT(schema.est_exec_time(), 1000.0);
  // Repeated observations converge.
  for (int i = 0; i < 50; ++i) {
    schema.record_execution(1000.0);
  }
  EXPECT_NEAR(schema.est_exec_time(), 1000.0, 1.0);
}

TEST(Schema, FromXmlRejectsMalformedInput) {
  EXPECT_FALSE(ApplicationSchema::from_xml("").has_value());
  EXPECT_FALSE(ApplicationSchema::from_xml("<other/>").has_value());
  EXPECT_FALSE(
      ApplicationSchema::from_xml("<application_schema/>").has_value());
  EXPECT_FALSE(ApplicationSchema::from_xml(
                   "<application_schema name=\"x\">"
                   "<est_comm_bytes>lots</est_comm_bytes>"
                   "</application_schema>")
                   .has_value());
  EXPECT_FALSE(ApplicationSchema::from_xml(
                   "<application_schema name=\"x\">"
                   "<characteristic>psychic</characteristic>"
                   "</application_schema>")
                   .has_value());
  // Numbers outside their member's range are malformed, never wrapped or
  // truncated (-1 bytes of memory would read as 2^64 - 1).
  for (const char* body :
       {"<requirements><min_memory>-1</min_memory></requirements>",
        "<requirements><min_disk>-1</min_disk></requirements>",
        "<observed_runs>4294967297</observed_runs>",
        "<observed_runs>-3</observed_runs>",
        "<observed_runs>many</observed_runs>"}) {
    const auto schema = ApplicationSchema::from_xml(
        std::string("<application_schema name=\"x\">") + body +
        "</application_schema>");
    EXPECT_EQ(schema.has_value() ? "accepted" : schema.error().code,
              "schema_parse")
        << body;
  }
}

TEST(Schema, UnsignedFieldsRoundTripTheirWholeRange) {
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{9223372036854775807ULL},
        std::uint64_t{9223372036854775808ULL},
        std::uint64_t{18446744073709551615ULL}}) {
    ApplicationSchema schema = tree_schema();
    schema.set_est_comm_bytes(value);
    schema.set_requirements({value, value, 0.5});
    const auto back = ApplicationSchema::from_xml(schema.to_xml());
    ASSERT_TRUE(back.has_value()) << back.error().to_string();
    EXPECT_EQ(back->est_comm_bytes(), value);
    EXPECT_EQ(back->requirements().min_memory_bytes, value);
    EXPECT_EQ(back->requirements().min_disk_bytes, value);
  }
}

TEST(Schema, DefaultsAreUsable) {
  const auto schema = ApplicationSchema::from_xml(
      "<application_schema name=\"minimal\"/>");
  ASSERT_TRUE(schema.has_value()) << schema.error().to_string();
  EXPECT_EQ(schema->name(), "minimal");
  EXPECT_EQ(schema->characteristic(), AppCharacteristic::kComputeIntensive);
  EXPECT_EQ(schema->est_comm_bytes(), 0U);
}

}  // namespace
}  // namespace ars::hpcm
