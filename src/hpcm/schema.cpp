#include "ars/hpcm/schema.hpp"

#include <optional>

#include "ars/support/strings.hpp"
#include "ars/xmlproto/xml.hpp"

namespace ars::hpcm {

using support::Expected;
using support::make_error;

std::string_view to_string(AppCharacteristic c) noexcept {
  switch (c) {
    case AppCharacteristic::kComputeIntensive:
      return "computing-intensive";
    case AppCharacteristic::kCommunicationIntensive:
      return "communication-intensive";
    case AppCharacteristic::kDataIntensive:
      return "data-intensive";
  }
  return "?";
}

Expected<AppCharacteristic> characteristic_from_string(
    std::string_view name) {
  if (support::iequals(name, "computing-intensive")) {
    return AppCharacteristic::kComputeIntensive;
  }
  if (support::iequals(name, "communication-intensive")) {
    return AppCharacteristic::kCommunicationIntensive;
  }
  if (support::iequals(name, "data-intensive")) {
    return AppCharacteristic::kDataIntensive;
  }
  return make_error("schema_parse",
                    "unknown characteristic '" + std::string(name) + "'");
}

void ApplicationSchema::record_execution(double actual_seconds) {
  ++observed_runs_;
  if (observed_runs_ == 1 && est_exec_time_ <= 0.0) {
    est_exec_time_ = actual_seconds;
    return;
  }
  // Exponential smoothing: history-weighted, as the paper's "updated
  // according to the statistics of actual executions".
  constexpr double kAlpha = 0.3;
  est_exec_time_ = (1.0 - kAlpha) * est_exec_time_ + kAlpha * actual_seconds;
}

std::string ApplicationSchema::to_xml() const {
  std::string xml;
  xmlproto::XmlWriter out{xml};
  out.open("application_schema");
  out.attr("name", name_);
  out.element("characteristic", to_string(characteristic_));
  out.element("est_comm_bytes", est_comm_bytes_);
  out.element("est_exec_time", est_exec_time_, 3);
  out.element("data_locality", data_locality_, 3);
  out.element("observed_runs", observed_runs_);
  out.open("requirements");
  out.element("min_memory", requirements_.min_memory_bytes);
  out.element("min_disk", requirements_.min_disk_bytes);
  out.element("min_cpu_speed", requirements_.min_cpu_speed, 3);
  out.close("requirements");
  out.close("application_schema");
  return xml;
}

namespace {

/// The value of `parent`'s child `name` (0 when there is none), or nullopt
/// when it is malformed or outside T's range (the wire protocol's rule).
template <typename T>
std::optional<T> number(xmlproto::XmlElement parent, std::string_view name) {
  const auto child = parent.child(name);
  return xmlproto::from_text<T>(child.has_value() ? child->text() : "0");
}

}  // namespace

Expected<ApplicationSchema> ApplicationSchema::from_xml(
    std::string_view xml) {
  xmlproto::XmlReader reader;
  const auto root = reader.parse(xml);
  if (!root.has_value()) {
    return root.error();
  }
  if (root->name() != "application_schema") {
    return make_error("schema_parse",
                      "unexpected root <" + std::string(root->name()) + ">");
  }
  const auto name = root->attr("name");
  if (!name.has_value() || name->empty()) {
    return make_error("schema_parse", "missing name attribute");
  }
  ApplicationSchema schema{std::string(*name)};
  const auto tag = root->child("characteristic");
  auto characteristic = characteristic_from_string(
      tag.has_value() ? tag->text() : "computing-intensive");
  if (!characteristic.has_value()) {
    return characteristic.error();
  }
  schema.set_characteristic(*characteristic);
  const auto comm = number<std::uint64_t>(*root, "est_comm_bytes");
  if (!comm.has_value()) {
    return make_error("schema_parse", "bad est_comm_bytes");
  }
  schema.set_est_comm_bytes(*comm);
  const auto exec = number<double>(*root, "est_exec_time");
  if (!exec.has_value()) {
    return make_error("schema_parse", "bad est_exec_time");
  }
  schema.set_est_exec_time(*exec);
  const auto locality = number<double>(*root, "data_locality");
  if (!locality.has_value()) {
    return make_error("schema_parse", "bad data_locality");
  }
  schema.set_data_locality(*locality);
  const auto runs = number<int>(*root, "observed_runs");
  if (!runs.has_value() || *runs < 0) {
    return make_error("schema_parse", "bad observed_runs");
  }
  schema.observed_runs_ = *runs;
  if (const auto req = root->child("requirements"); req.has_value()) {
    const auto memory = number<std::uint64_t>(*req, "min_memory");
    const auto disk = number<std::uint64_t>(*req, "min_disk");
    const auto speed = number<double>(*req, "min_cpu_speed");
    if (!memory.has_value() || !disk.has_value() || !speed.has_value()) {
      return make_error("schema_parse", "bad requirements block");
    }
    schema.set_requirements({*memory, *disk, *speed});
  }
  return schema;
}

}  // namespace ars::hpcm
