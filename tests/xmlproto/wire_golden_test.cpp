// Golden wire corpus.  Every document was captured from the hand-written
// per-message encoders that the table codec replaced, and the codec must
// reproduce each one byte for byte: datagram sizes set simulated transfer
// times, so every campaign trace hash depends on these bytes.  The corpus
// covers every message type, sparse fields set and unset, nested and
// repeated blocks, escaped text, and envelopes with and without a trace
// context.

#include "wire_golden.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace ars::xmlproto::golden {

std::vector<Document> corpus() {
  std::vector<Document> docs;
  const auto add = [&docs](const char* name, ProtocolMessage message,
                           obs::TraceCtx trace, std::string_view wire) {
    docs.push_back({name, std::move(message), trace, wire});
  };

  RegisterMsg reg;
  reg.info.host = "ws1";
  reg.info.ip = "10.0.0.1";
  reg.info.os = "SunOS 5.8";
  reg.info.memory_bytes = 128ULL * 1024 * 1024;
  reg.info.disk_bytes = 20ULL * 1024 * 1024 * 1024;
  reg.info.cpu_speed = 1.25;
  reg.info.byte_order = "little";
  reg.monitor_port = 5001;
  reg.commander_port = 5002;
  add("register", reg, {},
      R"(<ars type="register"><static><host>ws1</host><ip>10.0.0.1</ip>)"
      R"(<os>SunOS 5.8</os><memory>134217728</memory><disk>21474836480)"
      R"(</disk><cpu_speed>1.250000</cpu_speed><byte_order>little)"
      R"(</byte_order></static><monitor_port>5001</monitor_port>)"
      R"(<commander_port>5002</commander_port></ars>)");
  add("register/txn", reg, {/*txn=*/42},
      R"(<ars txn="42" type="register"><static><host>ws1</host><ip>10.0.0.1)"
      R"(</ip><os>SunOS 5.8</os><memory>134217728</memory><disk>21474836480)"
      R"(</disk><cpu_speed>1.250000</cpu_speed><byte_order>little)"
      R"(</byte_order></static><monitor_port>5001</monitor_port>)"
      R"(<commander_port>5002</commander_port></ars>)");
  // Defaulted text fields are still sent, as empty elements.
  RegisterMsg bare;
  bare.info.host = "ws9";
  add("register/empty-defaults", bare, {},
      R"(<ars type="register"><static><host>ws9</host><ip/><os/><memory>0)"
      R"(</memory><disk>0</disk><cpu_speed>1.000000</cpu_speed>)"
      R"(<byte_order/></static><monitor_port>0</monitor_port>)"
      R"(<commander_port>0</commander_port></ars>)");

  UpdateMsg update;
  update.status.host = "ws2";
  update.status.state = "overloaded";
  update.status.load1 = 2.52;
  update.status.load5 = 1.75;
  update.status.cpu_util = 0.97;
  update.status.processes = 151;
  update.status.mem_available_pct = 42.5;
  update.status.disk_available = 9876543210ULL;
  update.status.net_in_bps = 6.71e6;
  update.status.net_out_bps = 7.78e6;
  update.status.sockets_established = 703;
  update.status.timestamp = 280.125;
  add("update", update, {/*txn=*/7, /*parent_span=*/3},
      R"(<ars pspan="3" txn="7" type="update"><status><host>ws2</host>)"
      R"(<state>overloaded</state><load1>2.520000</load1><load5>1.750000)"
      R"(</load5><cpu_util>0.970000</cpu_util><processes>151</processes>)"
      R"(<mem_avail_pct>42.500000</mem_avail_pct><disk_avail>9876543210)"
      R"(</disk_avail><net_in>6710000.000000</net_in>)"
      R"(<net_out>7780000.000000</net_out><sockets>703</sockets>)"
      R"(<timestamp>280.125000</timestamp></status></ars>)");
  add("update/zero", UpdateMsg{}, {},
      R"(<ars type="update"><status><host/><state/><load1>0.000000</load1>)"
      R"(<load5>0.000000</load5><cpu_util>0.000000</cpu_util><processes>0)"
      R"(</processes><mem_avail_pct>0.000000</mem_avail_pct><disk_avail>0)"
      R"(</disk_avail><net_in>0.000000</net_in><net_out>0.000000</net_out>)"
      R"(<sockets>0</sockets><timestamp>0.000000</timestamp></status></ars>)");

  UpdateBatchMsg batch;
  for (int i = 1; i <= 3; ++i) {
    batch.renewals.push_back(
        {"ws" + std::to_string(i), i == 2 ? "busy" : "free", 100.0 + i});
  }
  add("update_batch", batch, {/*txn=*/9, /*parent_span=*/4},
      R"(<ars pspan="4" txn="9" type="update_batch"><renewal><host>ws1)"
      R"(</host><state>free</state><timestamp>101.000000</timestamp>)"
      R"(</renewal><renewal><host>ws2</host><state>busy</state>)"
      R"(<timestamp>102.000000</timestamp></renewal><renewal><host>ws3)"
      R"(</host><state>free</state><timestamp>103.000000</timestamp>)"
      R"(</renewal></ars>)");
  add("update_batch/empty", UpdateBatchMsg{}, {},
      R"(<ars type="update_batch"/>)");

  ConsultMsg consult;
  consult.host = "ws1";
  consult.reason = "load1>2 && sockets<700";
  add("consult/plain", consult, {},
      R"(<ars type="consult"><host>ws1</host>)"
      R"(<reason>load1&gt;2 &amp;&amp; sockets&lt;700</reason></ars>)");
  consult.reason = "overloaded (escalated by ws2)";
  consult.origin_registry = "ws2";
  consult.pid = 1042;
  consult.process_name = "test_tree";
  consult.schema_name = "tree20";
  consult.commander_port = 5002;
  add("consult/escalated", consult, {/*txn=*/11, /*parent_span=*/2},
      R"(<ars pspan="2" txn="11" type="consult"><host>ws1</host>)"
      R"(<reason>overloaded (escalated by ws2)</reason><origin_registry>ws2)"
      R"(</origin_registry><pid>1042</pid><process_name>test_tree)"
      R"(</process_name><schema_name>tree20</schema_name>)"
      R"(<commander_port>5002</commander_port></ars>)");

  MigrateCmd migrate;
  migrate.pid = 1042;
  migrate.process_name = "test_tree";
  migrate.dest_host = "ws4";
  migrate.dest_ip = "10.0.0.4";
  migrate.dest_port = 5002;
  migrate.schema_name = "tree20";
  add("migrate", migrate, {/*txn=*/11, /*parent_span=*/5},
      R"(<ars pspan="5" txn="11" type="migrate"><pid>1042</pid>)"
      R"(<process_name>test_tree</process_name><dest_host>ws4</dest_host>)"
      R"(<dest_ip>10.0.0.4</dest_ip><dest_port>5002</dest_port>)"
      R"(<schema_name>tree20</schema_name></ars>)");

  AckMsg ack;
  ack.of = "migrate";
  add("ack/ok", ack, {},
      R"(<ars type="ack"><of>migrate</of><ok>true</ok><detail/></ars>)");
  ack.ok = false;
  ack.detail = "reason: <load & \"sockets\"> isn't low";
  add("ack/escaped", ack, {},
      R"(<ars type="ack"><of>migrate</of><ok>false</ok>)"
      R"(<detail>reason: &lt;load &amp; &quot;sockets&quot;&gt; isn&apos;t low)"
      R"(</detail></ars>)");

  ProcessRegisterMsg preg;
  preg.host = "ws1";
  preg.pid = 1001;
  preg.name = "test_tree";
  preg.start_time = 280.5;
  preg.migration_enabled = true;
  preg.schema_name = "tree20";
  add("process_register", preg, {},
      R"(<ars type="process_register"><host>ws1</host><pid>1001</pid>)"
      R"(<name>test_tree</name><start_time>280.500000</start_time>)"
      R"(<migration_enabled>true</migration_enabled><schema_name>tree20)"
      R"(</schema_name></ars>)");

  ProcessDeregisterMsg dereg;
  dereg.host = "ws1";
  dereg.pid = 1001;
  add("process_deregister", dereg, {},
      R"(<ars type="process_deregister"><host>ws1</host><pid>1001</pid>)"
      R"(</ars>)");

  HealthReportMsg health;
  health.registry_host = "cluster-a";
  health.registry_port = 5050;
  health.free_hosts = 3;
  health.busy_hosts = 2;
  health.overloaded_hosts = 1;
  health.timestamp = 99.5;
  add("health", health, {},
      R"(<ars type="health"><registry_host>cluster-a</registry_host>)"
      R"(<registry_port>5050</registry_port><free_hosts>3</free_hosts>)"
      R"(<busy_hosts>2</busy_hosts><overloaded_hosts>1</overloaded_hosts>)"
      R"(<timestamp>99.500000</timestamp></ars>)");

  EvacuateMsg evacuate;
  evacuate.host = "ws3";
  evacuate.reason = "planned shutdown";
  add("evacuate", evacuate, {},
      R"(<ars type="evacuate"><host>ws3</host><reason>planned shutdown)"
      R"(</reason></ars>)");

  RelaunchCmd relaunch;
  relaunch.process_name = "test_tree.0";
  relaunch.lost_host = "ws3";
  relaunch.schema_name = "tree20";
  add("relaunch", relaunch, {/*txn=*/13, /*parent_span=*/1},
      R"(<ars pspan="1" txn="13" type="relaunch"><process_name>test_tree.0)"
      R"(</process_name><lost_host>ws3</lost_host><schema_name>tree20)"
      R"(</schema_name></ars>)");

  MigrationOutcomeMsg outcome;
  outcome.process = "test_tree.0";
  outcome.source = "ws1";
  outcome.destination = "ws4";
  outcome.outcome = "committed";
  add("migration_outcome/committed", outcome, {/*txn=*/11, /*parent_span=*/8},
      R"(<ars pspan="8" txn="11" type="migration_outcome">)"
      R"(<process>test_tree.0</process><source>ws1</source><destination>ws4)"
      R"(</destination><outcome>committed</outcome></ars>)");
  outcome.precopy_rounds = 3;
  outcome.precopy_bytes = 12582912;
  add("migration_outcome/precopy", outcome, {},
      R"(<ars type="migration_outcome"><process>test_tree.0</process>)"
      R"(<source>ws1</source><destination>ws4</destination>)"
      R"(<outcome>committed</outcome><precopy_rounds>3</precopy_rounds>)"
      R"(<precopy_bytes>12582912</precopy_bytes></ars>)");
  outcome.outcome = "aborted";
  outcome.reason = "dest-failed";
  outcome.phase = "eager";
  outcome.precopy_rounds = 0;
  outcome.precopy_bytes = 0;
  add("migration_outcome/aborted", outcome, {},
      R"(<ars type="migration_outcome"><process>test_tree.0</process>)"
      R"(<source>ws1</source><destination>ws4</destination><outcome>aborted)"
      R"(</outcome><reason>dest-failed</reason><phase>eager</phase></ars>)");

  ResizeCmd resize;
  resize.job = "stencil";
  resize.verb = "expand";
  resize.delta = 3;
  resize.strategy = "tree";
  resize.hosts = {"ws4", "ws5", "ws6"};
  add("resize/expand", resize, {/*txn=*/21, /*parent_span=*/2},
      R"(<ars pspan="2" txn="21" type="resize"><job>stencil</job>)"
      R"(<verb>expand</verb><delta>3</delta><strategy>tree</strategy>)"
      R"(<target>ws4</target><target>ws5</target><target>ws6</target></ars>)");
  ResizeCmd shrink;
  shrink.job = "stencil";
  shrink.verb = "shrink";
  shrink.delta = 2;
  add("resize/shrink", shrink, {},
      R"(<ars type="resize"><job>stencil</job><verb>shrink</verb><delta>2)"
      R"(</delta></ars>)");

  ResizeOutcomeMsg resized;
  resized.job = "stencil";
  resized.verb = "shrink";
  resized.delta = 1;
  resized.outcome = "committed";
  resized.ranks_after = 3;
  add("resize_outcome/committed", resized, {},
      R"(<ars type="resize_outcome"><job>stencil</job><verb>shrink</verb>)"
      R"(<delta>1</delta><outcome>committed</outcome><ranks_after>3)"
      R"(</ranks_after></ars>)");
  resized.verb = "expand";
  resized.delta = 3;
  resized.outcome = "aborted";
  resized.reason = "spawn-timeout";
  resized.phase = "spawn";
  resized.ranks_after = 4;
  add("resize_outcome/aborted", resized, {/*txn=*/21, /*parent_span=*/6},
      R"(<ars pspan="6" txn="21" type="resize_outcome"><job>stencil</job>)"
      R"(<verb>expand</verb><delta>3</delta><outcome>aborted</outcome>)"
      R"(<ranks_after>4</ranks_after><reason>spawn-timeout</reason>)"
      R"(<phase>spawn</phase></ars>)");

  CkptIoRequestMsg request;
  request.host = "ws3";
  request.process = "job2.0";
  request.verb = "request";
  request.bytes = 40'000'000;
  request.risk = 1.75;
  add("ckpt_io_request/request", request, {/*txn=*/31},
      R"(<ars txn="31" type="ckpt_io_request"><host>ws3</host>)"
      R"(<process>job2.0</process><verb>request</verb><bytes>40000000)"
      R"(</bytes><risk>1.750000</risk></ars>)");
  request.verb = "done";
  request.bytes = 0;
  request.risk = 0.0;
  add("ckpt_io_request/done", request, {},
      R"(<ars type="ckpt_io_request"><host>ws3</host><process>job2.0)"
      R"(</process><verb>done</verb></ars>)");

  CkptIoGrantMsg grant;
  grant.process = "job2.0";
  grant.verb = "defer";
  grant.retry_after = 7.5;
  add("ckpt_io_grant/defer", grant, {/*txn=*/31, /*parent_span=*/9},
      R"(<ars pspan="9" txn="31" type="ckpt_io_grant"><process>job2.0)"
      R"(</process><verb>defer</verb><retry_after>7.500000</retry_after>)"
      R"(</ars>)");
  grant.verb = "admit";
  grant.retry_after = 0.0;
  add("ckpt_io_grant/admit", grant, {},
      R"(<ars type="ckpt_io_grant"><process>job2.0</process><verb>admit)"
      R"(</verb></ars>)");
  return docs;
}

namespace {

TEST(WireGolden, CorpusCoversEveryMessageType) {
  std::set<std::string> types;
  for (const Document& doc : corpus()) {
    types.insert(message_type(doc.message));
  }
  EXPECT_EQ(types.size(), std::variant_size_v<ProtocolMessage>);
}

TEST(WireGolden, EncoderReproducesEveryDocument) {
  for (const Document& doc : corpus()) {
    EXPECT_EQ(encode(doc.message, doc.trace), doc.wire) << doc.name;
  }
}

TEST(WireGolden, EveryDocumentDecodesToItsMessage) {
  for (const Document& doc : corpus()) {
    const auto envelope = decode_envelope(doc.wire);
    ASSERT_TRUE(envelope.has_value())
        << doc.name << ": " << envelope.error().to_string();
    EXPECT_TRUE(envelope->message == doc.message) << doc.name;
    EXPECT_EQ(envelope->trace.txn, doc.trace.txn) << doc.name;
    EXPECT_EQ(envelope->trace.parent_span, doc.trace.parent_span)
        << doc.name;
  }
}

TEST(WireGolden, MissingByteOrderDecodesAsBig) {
  // The one defaulted field whose decode default is not its struct default:
  // a host that does not state its byte order is taken to be big-endian.
  std::string wire(corpus().front().wire);
  const std::string element = "<byte_order>little</byte_order>";
  wire.erase(wire.find(element), element.size());
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value()) << wire;
  EXPECT_EQ(std::get<RegisterMsg>(*decoded).info.byte_order, "big");
}

}  // namespace
}  // namespace ars::xmlproto::golden
