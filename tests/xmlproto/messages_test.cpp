#include "ars/xmlproto/messages.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ars/xmlproto/xml.hpp"

namespace ars::xmlproto {
namespace {

template <typename T>
T round_trip(const T& message) {
  const std::string wire = encode(ProtocolMessage{message});
  auto decoded = decode(wire);
  EXPECT_TRUE(decoded.has_value()) << wire;
  EXPECT_TRUE(std::holds_alternative<T>(*decoded)) << wire;
  return std::get<T>(*decoded);
}

TEST(Messages, RegisterRoundTrip) {
  RegisterMsg m;
  m.info.host = "ws1";
  m.info.ip = "10.0.0.1";
  m.info.os = "SunOS 5.8";
  m.info.memory_bytes = 128ULL * 1024 * 1024;
  m.info.disk_bytes = 20ULL * 1024 * 1024 * 1024;
  m.info.cpu_speed = 1.0;
  m.info.byte_order = "big";
  m.monitor_port = 5001;
  m.commander_port = 5002;
  const RegisterMsg back = round_trip(m);
  EXPECT_EQ(back.info.host, "ws1");
  EXPECT_EQ(back.info.ip, "10.0.0.1");
  EXPECT_EQ(back.info.os, "SunOS 5.8");
  EXPECT_EQ(back.info.memory_bytes, m.info.memory_bytes);
  EXPECT_EQ(back.info.disk_bytes, m.info.disk_bytes);
  EXPECT_EQ(back.info.byte_order, "big");
  EXPECT_EQ(back.monitor_port, 5001);
  EXPECT_EQ(back.commander_port, 5002);
}

TEST(Messages, UpdateRoundTrip) {
  UpdateMsg m;
  m.status.host = "ws2";
  m.status.state = "overloaded";
  m.status.load1 = 2.52;
  m.status.load5 = 1.75;
  m.status.cpu_util = 0.97;
  m.status.processes = 151;
  m.status.mem_available_pct = 42.5;
  m.status.disk_available = 1234567;
  m.status.net_in_bps = 6.71e6;
  m.status.net_out_bps = 7.78e6;
  m.status.sockets_established = 703;
  m.status.timestamp = 280.0;
  const UpdateMsg back = round_trip(m);
  EXPECT_EQ(back.status.host, "ws2");
  EXPECT_EQ(back.status.state, "overloaded");
  EXPECT_NEAR(back.status.load1, 2.52, 1e-6);
  EXPECT_NEAR(back.status.cpu_util, 0.97, 1e-6);
  EXPECT_EQ(back.status.processes, 151);
  EXPECT_NEAR(back.status.net_in_bps, 6.71e6, 1.0);
  EXPECT_EQ(back.status.sockets_established, 703);
}

TEST(Messages, ConsultRoundTrip) {
  ConsultMsg m;
  m.host = "ws1";
  m.reason = "load1>2";
  const ConsultMsg back = round_trip(m);
  EXPECT_EQ(back.host, "ws1");
  EXPECT_EQ(back.reason, "load1>2");
}

TEST(Messages, EscalatedConsultRoundTrip) {
  // The optional routing fields an escalated consult carries: process
  // selection and the command return-path.
  ConsultMsg m;
  m.host = "ws1";
  m.reason = "overloaded (escalated by ws2)";
  m.origin_registry = "ws2";
  m.pid = 1042;
  m.process_name = "test_tree";
  m.schema_name = "tree20";
  m.commander_port = 5002;
  const ConsultMsg back = round_trip(m);
  EXPECT_EQ(back.origin_registry, "ws2");
  EXPECT_EQ(back.pid, 1042);
  EXPECT_EQ(back.process_name, "test_tree");
  EXPECT_EQ(back.schema_name, "tree20");
  EXPECT_EQ(back.commander_port, 5002);
}

TEST(Messages, PlainConsultOmitsRoutingFields) {
  // A monitor's plain consult must keep its original wire shape: the
  // routing fields are encoded only when set.
  ConsultMsg m;
  m.host = "ws1";
  m.reason = "load1>2";
  const std::string wire = encode(ProtocolMessage{m});
  EXPECT_EQ(wire.find("origin_registry"), std::string::npos);
  EXPECT_EQ(wire.find("commander_port"), std::string::npos);
  EXPECT_EQ(wire.find("pid"), std::string::npos);
  const ConsultMsg back = round_trip(m);
  EXPECT_EQ(back.pid, 0);
  EXPECT_EQ(back.commander_port, 0);
  EXPECT_TRUE(back.origin_registry.empty());
}

TEST(Messages, UpdateBatchRoundTrip) {
  UpdateBatchMsg m;
  for (int i = 1; i <= 3; ++i) {
    LeaseRenewal renewal;
    renewal.host = "ws" + std::to_string(i);
    renewal.state = i == 2 ? "busy" : "free";
    renewal.timestamp = 100.0 + i;
    m.renewals.push_back(renewal);
  }
  const UpdateBatchMsg back = round_trip(m);
  ASSERT_EQ(back.renewals.size(), 3U);
  EXPECT_EQ(back.renewals[0].host, "ws1");
  EXPECT_EQ(back.renewals[1].state, "busy");
  EXPECT_DOUBLE_EQ(back.renewals[2].timestamp, 103.0);
}

TEST(Messages, EmptyUpdateBatchRoundTrip) {
  const UpdateBatchMsg back = round_trip(UpdateBatchMsg{});
  EXPECT_TRUE(back.renewals.empty());
}

TEST(Messages, MigrateRoundTrip) {
  MigrateCmd m;
  m.pid = 1042;
  m.process_name = "test_tree";
  m.dest_host = "ws4";
  m.dest_ip = "10.0.0.4";
  m.dest_port = 5002;
  m.schema_name = "tree20";
  const MigrateCmd back = round_trip(m);
  EXPECT_EQ(back.pid, 1042);
  EXPECT_EQ(back.process_name, "test_tree");
  EXPECT_EQ(back.dest_host, "ws4");
  EXPECT_EQ(back.dest_port, 5002);
  EXPECT_EQ(back.schema_name, "tree20");
}

TEST(Messages, AckRoundTrip) {
  AckMsg m;
  m.of = "migrate";
  m.ok = false;
  m.detail = "no such pid";
  const AckMsg back = round_trip(m);
  EXPECT_EQ(back.of, "migrate");
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.detail, "no such pid");
}

TEST(Messages, ProcessRegisterRoundTrip) {
  ProcessRegisterMsg m;
  m.host = "ws1";
  m.pid = 1001;
  m.name = "test_tree";
  m.start_time = 280.0;
  m.migration_enabled = true;
  m.schema_name = "tree20";
  const ProcessRegisterMsg back = round_trip(m);
  EXPECT_EQ(back.pid, 1001);
  EXPECT_TRUE(back.migration_enabled);
  EXPECT_DOUBLE_EQ(back.start_time, 280.0);
}

TEST(Messages, ProcessDeregisterRoundTrip) {
  ProcessDeregisterMsg m;
  m.host = "ws1";
  m.pid = 1001;
  const ProcessDeregisterMsg back = round_trip(m);
  EXPECT_EQ(back.host, "ws1");
  EXPECT_EQ(back.pid, 1001);
}

TEST(Messages, HealthRoundTrip) {
  HealthReportMsg m;
  m.registry_host = "cluster-a";
  m.registry_port = 5050;
  m.free_hosts = 3;
  m.busy_hosts = 2;
  m.overloaded_hosts = 1;
  m.timestamp = 99.5;
  const HealthReportMsg back = round_trip(m);
  EXPECT_EQ(back.registry_port, 5050);
  EXPECT_EQ(back.free_hosts, 3);
  EXPECT_EQ(back.overloaded_hosts, 1);
}

TEST(Messages, MigrationOutcomeRoundTrip) {
  MigrationOutcomeMsg m;
  m.process = "test_tree";
  m.source = "ws1";
  m.destination = "ws4";
  m.outcome = "aborted";
  m.reason = "dest-failed";
  m.phase = "eager";
  const MigrationOutcomeMsg back = round_trip(m);
  EXPECT_EQ(back.process, "test_tree");
  EXPECT_EQ(back.source, "ws1");
  EXPECT_EQ(back.destination, "ws4");
  EXPECT_EQ(back.outcome, "aborted");
  EXPECT_EQ(back.reason, "dest-failed");
  EXPECT_EQ(back.phase, "eager");
}

TEST(Messages, CommittedOutcomeOmitsFailureDetail) {
  // A committed outcome keeps the compact wire shape: reason/phase are
  // encoded only when non-empty.
  MigrationOutcomeMsg m;
  m.process = "test_tree";
  m.source = "ws1";
  m.destination = "ws4";
  m.outcome = "committed";
  const std::string wire = encode(ProtocolMessage{m});
  EXPECT_EQ(wire.find("reason"), std::string::npos);
  EXPECT_EQ(wire.find("phase"), std::string::npos);
  const MigrationOutcomeMsg back = round_trip(m);
  EXPECT_EQ(back.outcome, "committed");
  EXPECT_TRUE(back.reason.empty());
  EXPECT_TRUE(back.phase.empty());
}

TEST(Messages, PrecopyAccountingRoundTripsWhenRoundsShipped) {
  MigrationOutcomeMsg m;
  m.process = "test_tree";
  m.source = "ws1";
  m.destination = "ws4";
  m.outcome = "committed";
  m.precopy_rounds = 3;
  m.precopy_bytes = 12582912;  // 12 MiB moved outside the freeze window
  const MigrationOutcomeMsg back = round_trip(m);
  EXPECT_EQ(back.precopy_rounds, 3);
  EXPECT_EQ(back.precopy_bytes, 12582912U);
}

TEST(Messages, StopAndCopyOutcomeOmitsPrecopyFields) {
  // Zero rounds means a stop-and-copy transaction: the wire form must stay
  // byte-compatible with pre-precopy peers, so the fields are absent — and
  // a decoder reading a legacy document defaults them to zero.
  MigrationOutcomeMsg m;
  m.process = "test_tree";
  m.source = "ws1";
  m.destination = "ws4";
  m.outcome = "committed";
  const std::string wire = encode(ProtocolMessage{m});
  EXPECT_EQ(wire.find("precopy"), std::string::npos);
  const MigrationOutcomeMsg back = round_trip(m);
  EXPECT_EQ(back.precopy_rounds, 0);
  EXPECT_EQ(back.precopy_bytes, 0U);
}

TEST(Messages, MigrationOutcomeRejectsMissingFields) {
  // Every routing field is mandatory: the registry keys its debit-credit
  // bookkeeping on (process, source, destination, outcome).
  EXPECT_FALSE(decode("<ars type=\"migration_outcome\"/>").has_value());
  EXPECT_FALSE(decode("<ars type=\"migration_outcome\">"
                      "<process>p</process><source>ws1</source>"
                      "<destination>ws4</destination></ars>")
                   .has_value());
}

TEST(Messages, ResizeCmdRoundTrip) {
  ResizeCmd m;
  m.job = "stencil";
  m.verb = "expand";
  m.delta = 3;
  m.strategy = "tree";
  m.hosts = {"ws4", "ws5", "ws6"};
  const ResizeCmd back = round_trip(m);
  EXPECT_EQ(back.job, "stencil");
  EXPECT_EQ(back.verb, "expand");
  EXPECT_EQ(back.delta, 3);
  EXPECT_EQ(back.strategy, "tree");
  EXPECT_EQ(back.hosts, m.hosts);
}

TEST(Messages, ShrinkCmdWithoutHostsRoundTrip) {
  ResizeCmd m;
  m.job = "stencil";
  m.verb = "shrink";
  m.delta = 2;
  const ResizeCmd back = round_trip(m);
  EXPECT_EQ(back.verb, "shrink");
  EXPECT_EQ(back.delta, 2);
  EXPECT_TRUE(back.hosts.empty());
  EXPECT_TRUE(back.strategy.empty());
}

TEST(Messages, ResizeOutcomeRoundTrip) {
  ResizeOutcomeMsg m;
  m.job = "stencil";
  m.verb = "expand";
  m.delta = 3;
  m.outcome = "aborted";
  m.reason = "spawn-timeout";
  m.phase = "spawn";
  m.ranks_after = 4;
  const ResizeOutcomeMsg back = round_trip(m);
  EXPECT_EQ(back.job, "stencil");
  EXPECT_EQ(back.verb, "expand");
  EXPECT_EQ(back.delta, 3);
  EXPECT_EQ(back.outcome, "aborted");
  EXPECT_EQ(back.reason, "spawn-timeout");
  EXPECT_EQ(back.phase, "spawn");
  EXPECT_EQ(back.ranks_after, 4);
}

TEST(Messages, CommittedResizeOutcomeOmitsFailureDetail) {
  ResizeOutcomeMsg m;
  m.job = "stencil";
  m.verb = "shrink";
  m.delta = 1;
  m.outcome = "committed";
  m.ranks_after = 3;
  const std::string wire = encode(ProtocolMessage{m});
  EXPECT_EQ(wire.find("reason"), std::string::npos);
  EXPECT_EQ(wire.find("phase"), std::string::npos);
  const ResizeOutcomeMsg back = round_trip(m);
  EXPECT_EQ(back.outcome, "committed");
  EXPECT_TRUE(back.reason.empty());
  EXPECT_EQ(back.ranks_after, 3);
}

TEST(Messages, ResizeRejectsMissingFields) {
  EXPECT_FALSE(decode("<ars type=\"resize\"/>").has_value());
  EXPECT_FALSE(decode("<ars type=\"resize_outcome\"/>").has_value());
  EXPECT_FALSE(decode("<ars type=\"resize\">"
                      "<job>j</job><verb>expand</verb></ars>")
                   .has_value());
}

TEST(Messages, MessageTypeNames) {
  EXPECT_EQ(message_type(ProtocolMessage{RegisterMsg{}}), "register");
  EXPECT_EQ(message_type(ProtocolMessage{UpdateMsg{}}), "update");
  EXPECT_EQ(message_type(ProtocolMessage{MigrateCmd{}}), "migrate");
  EXPECT_EQ(message_type(ProtocolMessage{ResizeCmd{}}), "resize");
  EXPECT_EQ(message_type(ProtocolMessage{ResizeOutcomeMsg{}}),
            "resize_outcome");
}

TEST(Messages, DecodeRejectsGarbage) {
  EXPECT_FALSE(decode("not xml").has_value());
  EXPECT_FALSE(decode("<other/>").has_value());
  EXPECT_FALSE(decode("<ars/>").has_value());
  EXPECT_FALSE(decode("<ars type=\"nosuch\"/>").has_value());
  // No message answers to "recommend" any more: it is an unknown type.
  const auto recommend = decode(
      "<ars type=\"recommend\"><found>true</found><dest_host>ws4"
      "</dest_host><dest_port>5002</dest_port></ars>");
  ASSERT_FALSE(recommend.has_value());
  EXPECT_EQ(recommend.error().code, "proto_decode");
}

TEST(Messages, DeeplyNestedDocumentIsRejected) {
  // ~300 KB of nested tags used to recurse once per level in the parser and
  // overflow the stack; the reader rejects nesting past its cap instead.
  std::string wire = "<ars type=\"update\">";
  for (int i = 0; i < 100'000; ++i) {
    wire += "<a>";
  }
  const auto decoded = decode_envelope(wire);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, "xml_parse");
}

TEST(Messages, DecodeRejectsMissingFields) {
  // A consult without its mandatory <host>.
  EXPECT_FALSE(decode("<ars type=\"consult\"/>").has_value());
  // An update whose load1 is not numeric.
  const std::string wire = encode(ProtocolMessage{UpdateMsg{}});
  std::string broken = wire;
  const auto pos = broken.find("<load1>");
  broken.replace(pos, broken.find("</load1>") - pos + 8,
                 "<load1>abc</load1>");
  EXPECT_FALSE(decode(broken).has_value());
}

TEST(Messages, CkptIoRequestRoundTrip) {
  CkptIoRequestMsg m;
  m.host = "ws3";
  m.process = "job2.0";
  m.verb = "request";
  m.bytes = 40'000'000;
  m.risk = 1.75;
  const CkptIoRequestMsg back = round_trip(m);
  EXPECT_EQ(back.host, "ws3");
  EXPECT_EQ(back.process, "job2.0");
  EXPECT_EQ(back.verb, "request");
  EXPECT_EQ(back.bytes, 40'000'000u);
  EXPECT_DOUBLE_EQ(back.risk, 1.75);
}

TEST(Messages, CkptIoDoneOmitsOptionalFields) {
  CkptIoRequestMsg m;
  m.host = "ws1";
  m.process = "job1.0";
  m.verb = "done";
  const std::string wire = encode(ProtocolMessage{m});
  // Compact wire rule: zero bytes/risk are not serialized at all.
  EXPECT_EQ(wire.find("<bytes>"), std::string::npos);
  EXPECT_EQ(wire.find("<risk>"), std::string::npos);
  const CkptIoRequestMsg back = round_trip(m);
  EXPECT_EQ(back.verb, "done");
  EXPECT_EQ(back.bytes, 0u);
  EXPECT_DOUBLE_EQ(back.risk, 0.0);
}

TEST(Messages, CkptIoGrantRoundTrip) {
  CkptIoGrantMsg m;
  m.process = "job2.0";
  m.verb = "defer";
  m.retry_after = 7.5;
  const CkptIoGrantMsg back = round_trip(m);
  EXPECT_EQ(back.process, "job2.0");
  EXPECT_EQ(back.verb, "defer");
  EXPECT_DOUBLE_EQ(back.retry_after, 7.5);

  CkptIoGrantMsg admit;
  admit.process = "job1.0";
  admit.verb = "admit";
  const std::string wire = encode(ProtocolMessage{admit});
  EXPECT_EQ(wire.find("<retry_after>"), std::string::npos);
  const CkptIoGrantMsg admit_back = round_trip(admit);
  EXPECT_EQ(admit_back.verb, "admit");
  EXPECT_DOUBLE_EQ(admit_back.retry_after, 0.0);
}

TEST(Messages, CkptIoDecodeRejectsMissingFields) {
  EXPECT_FALSE(decode("<ars type=\"ckpt_io_request\"/>").has_value());
  EXPECT_FALSE(decode("<ars type=\"ckpt_io_grant\"/>").has_value());
}

// The range rule: a number outside its field's type range is malformed, so
// it is a decode error for a required field and the default otherwise —
// never a wrapped or truncated value.

/// encode(message) with the text of its first <name> element replaced.
std::string with_field(const ProtocolMessage& message, const std::string& name,
                       const std::string& text) {
  std::string wire = encode(message);
  const std::string open = "<" + name + ">";
  const auto begin = wire.find(open) + open.size();
  wire.replace(begin, wire.find("</" + name + ">", begin) - begin, text);
  return wire;
}

RegisterMsg sample_register() {
  RegisterMsg m;
  m.info.host = "ws1";
  m.info.memory_bytes = 128ULL * 1024 * 1024;
  m.info.disk_bytes = 20ULL * 1024 * 1024 * 1024;
  m.monitor_port = 5001;
  m.commander_port = 5002;
  return m;
}

TEST(Messages, NegativeMemoryIsRejected) {
  // Wrapped to 2^64-1, it would pass every schema's memory check.
  EXPECT_FALSE(decode(with_field(sample_register(), "memory", "-1")));
}

TEST(Messages, NegativeDiskIsRejected) {
  EXPECT_FALSE(decode(with_field(sample_register(), "disk", "-1")));
}

TEST(Messages, NegativeDiskAvailableIsRejected) {
  UpdateMsg m;
  m.status.host = "ws1";
  EXPECT_FALSE(decode(with_field(m, "disk_avail", "-1")));
}

TEST(Messages, PidBeyondIntIsRejected) {
  MigrateCmd migrate;
  migrate.pid = 1042;
  migrate.dest_host = "ws4";
  // 2^32 + 1042 would truncate to pid 1042.
  EXPECT_FALSE(decode(with_field(migrate, "pid", "4294968338")));

  ConsultMsg consult;
  consult.host = "ws1";
  consult.pid = 1042;
  const auto decoded = decode(with_field(consult, "pid", "4294968338"));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<ConsultMsg>(*decoded).pid, 0);
}

TEST(Messages, PortBeyondIntIsRejected) {
  EXPECT_FALSE(
      decode(with_field(sample_register(), "monitor_port", "4294972297")));

  // A defaulted port beyond int decodes as the default.
  HealthReportMsg health;
  health.registry_host = "cluster-a";
  health.registry_port = 5050;
  const auto decoded =
      decode(with_field(health, "registry_port", "4294972298"));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<HealthReportMsg>(*decoded).registry_port, 0);
}

TEST(Messages, CountBeyondIntIsRejected) {
  HealthReportMsg health;
  health.registry_host = "cluster-a";
  EXPECT_FALSE(decode(with_field(health, "free_hosts", "4294967299")));

  UpdateMsg update;
  update.status.host = "ws1";
  EXPECT_FALSE(decode(with_field(update, "processes", "2147483648")));
}

// Unsigned fields read as unsigned 64-bit numbers, so every value they hold
// comes back, 2^63 and above included.

TEST(Messages, UnsignedFieldsRoundTripTheirWholeRange) {
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{9223372036854775807ULL},
        std::uint64_t{9223372036854775808ULL},
        std::uint64_t{18446744073709551615ULL}}) {
    RegisterMsg reg = sample_register();
    reg.info.memory_bytes = value;
    reg.info.disk_bytes = value;
    EXPECT_EQ(round_trip(reg), reg) << value;

    UpdateMsg update;
    update.status.host = "ws1";
    update.status.disk_available = value;
    EXPECT_EQ(round_trip(update), update) << value;

    MigrationOutcomeMsg outcome;
    outcome.process = "test_tree";
    outcome.source = "ws1";
    outcome.destination = "ws4";
    outcome.outcome = "committed";
    outcome.precopy_rounds = 2;
    outcome.precopy_bytes = value;
    EXPECT_EQ(round_trip(outcome), outcome) << value;

    CkptIoRequestMsg request;
    request.host = "ws1";
    request.process = "test_tree";
    request.verb = "request";
    request.bytes = value;
    EXPECT_EQ(round_trip(request), request) << value;
  }
  // Past 2^64 - 1 a number is out of range, never wrapped.
  EXPECT_FALSE(decode(with_field(sample_register(), "memory",
                                 "18446744073709551616")));
}

// ---- field lookup -----------------------------------------------------------
//
// The decoder looks each field up by trying the child after the last one it
// found, then scanning from the first child.  Whatever the order of the
// children, the result must be a full scan's: the first child of each name.

/// The children that carry a message's fields (those of <status> for an
/// update, of the root otherwise) as (name, text), in wire order.
struct FieldList {
  std::string type;
  std::string block;  // the record element between root and fields, if any
  std::vector<std::pair<std::string, std::string>> children;
};

FieldList fields_of(const ProtocolMessage& message) {
  const std::string wire = encode(message);
  XmlReader reader;
  const auto root = reader.parse(wire);
  EXPECT_TRUE(root.has_value()) << wire;
  FieldList list;
  list.type = std::string(root->attr("type").value_or(""));
  XmlElement holder = *root;
  if (const auto status = root->child("status")) {
    list.block = "status";
    holder = *status;
  }
  for (auto child = holder.child(); child.has_value();
       child = child->next_sibling()) {
    list.children.emplace_back(child->name(), child->text());
  }
  return list;
}

std::string document(const FieldList& list) {
  std::string wire;
  XmlWriter out{wire};
  out.open("ars");
  out.attr("type", list.type);
  if (!list.block.empty()) {
    out.open(list.block);
  }
  for (const auto& [name, text] : list.children) {
    out.element(name, text);
  }
  if (!list.block.empty()) {
    out.close(list.block);
  }
  out.close("ars");
  return wire;
}

/// `list` without the later children of each name: what a full scan reads.
FieldList first_of_each_name(FieldList list) {
  std::vector<std::pair<std::string, std::string>> kept;
  for (const auto& child : list.children) {
    if (std::none_of(kept.begin(), kept.end(), [&](const auto& other) {
          return other.first == child.first;
        })) {
      kept.push_back(child);
    }
  }
  list.children = std::move(kept);
  return list;
}

ProtocolMessage decoded(const FieldList& list) {
  const std::string wire = document(list);
  auto message = decode(wire);
  EXPECT_TRUE(message.has_value())
      << wire << ": " << (message ? "" : message.error().to_string());
  return message ? std::move(message).value() : ProtocolMessage{};
}

/// Two messages of each of three types whose fields all differ.
std::vector<std::pair<ProtocolMessage, ProtocolMessage>> lookup_samples() {
  UpdateMsg u1;
  u1.status = {"ws1", "busy", 0.97, 0.64, 0.42, 84, 61.2, 1234567890,
               5990.0, 5820.0, 14, 280.0};
  UpdateMsg u2;
  u2.status = {"ws2", "free", 1.5, 1.25, 0.5, 7, 12.5, 42, 1.0, 2.0, 3, 9.0};
  ConsultMsg c1{"ws1", "load1>2", "ws9", 1042, "test_tree", "tree20", 5002};
  ConsultMsg c2{"ws3", "overloaded", "ws8", 77, "matmul", "mm", 6001};
  MigrationOutcomeMsg o1{"test_tree", "ws1", "ws4", "aborted",
                         "dest-failed", "eager", 3, 12582912};
  MigrationOutcomeMsg o2{"matmul", "ws2", "ws5", "rolled-back",
                         "init-timeout", "init", 1, 99};
  return {{u1, u2}, {c1, c2}, {o1, o2}};
}

TEST(FieldLookup, TheFirstOfTwoChildrenOfANameWins) {
  for (const auto& [m1, m2] : lookup_samples()) {
    const FieldList first = fields_of(m1);
    const FieldList second = fields_of(m2);
    ASSERT_EQ(first.children.size(), second.children.size());
    for (std::size_t i = 0; i < first.children.size(); ++i) {
      FieldList after = first;  // the repeat follows the original
      after.children.insert(after.children.begin() + i + 1,
                            second.children[i]);
      EXPECT_EQ(decoded(after), m1) << document(after);

      FieldList before = first;  // the repeat leads the document
      before.children.insert(before.children.begin(), second.children[i]);
      EXPECT_EQ(decoded(before), decoded(first_of_each_name(before)))
          << document(before);
      EXPECT_NE(decoded(before), m1) << document(before);
    }
  }
}

TEST(FieldLookup, FieldsInReverseOrderDecodeTheSame) {
  for (const auto& [m1, m2] : lookup_samples()) {
    for (const ProtocolMessage& message : {m1, m2}) {
      FieldList list = fields_of(message);
      std::reverse(list.children.begin(), list.children.end());
      EXPECT_EQ(decoded(list), message) << document(list);
    }
  }
}

TEST(FieldLookup, UnknownChildrenAreSkipped) {
  for (const auto& [m1, m2] : lookup_samples()) {
    FieldList leading = fields_of(m1);
    leading.children.insert(leading.children.begin(), {"unknown", "1"});
    EXPECT_EQ(decoded(leading), m1) << document(leading);

    FieldList between = fields_of(m1);
    for (std::size_t i = between.children.size(); i > 0; --i) {
      between.children.insert(between.children.begin() + i - 1,
                              {"x" + std::to_string(i), "y"});
    }
    EXPECT_EQ(decoded(between), m1) << document(between);
  }
}

TEST(FieldLookup, AbsentSparseFieldsDecodeToTheirDefaults) {
  ConsultMsg consult;
  consult.host = "ws1";
  consult.reason = "load1>2";
  MigrationOutcomeMsg outcome;
  outcome.process = "test_tree";
  outcome.source = "ws1";
  outcome.destination = "ws4";
  outcome.outcome = "committed";
  for (const ProtocolMessage& message :
       {ProtocolMessage{consult}, ProtocolMessage{outcome}}) {
    FieldList list = fields_of(message);
    EXPECT_EQ(decoded(list), message) << document(list);
    std::reverse(list.children.begin(), list.children.end());
    EXPECT_EQ(decoded(list), message) << document(list);
  }
  // Dropping the sparse fields from a full message reads their defaults.
  FieldList full = fields_of(lookup_samples()[2].first);
  std::erase_if(full.children, [](const auto& child) {
    return child.first == "reason" || child.first == "precopy_bytes";
  });
  auto expected = std::get<MigrationOutcomeMsg>(lookup_samples()[2].first);
  expected.reason.clear();
  expected.precopy_bytes = 0;
  EXPECT_EQ(decoded(full), ProtocolMessage{expected}) << document(full);
}

TEST(Messages, EscapedContentSurvives) {
  AckMsg m;
  m.of = "migrate";
  m.detail = "reason: <load & sockets>";
  const AckMsg back = round_trip(m);
  EXPECT_EQ(back.detail, "reason: <load & sockets>");
}

}  // namespace
}  // namespace ars::xmlproto
