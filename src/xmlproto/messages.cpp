#include "ars/xmlproto/messages.hpp"

#include <array>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>

#include "ars/support/strings.hpp"
#include "ars/xmlproto/xml.hpp"

namespace ars::xmlproto {

using support::Expected;
using support::make_error;
using support::Status;

namespace {

// ---- table vocabulary -------------------------------------------------------
//
// Every wire format is one table: its tag, then its fields in wire order.
// Each scalar field has one presence rule:
//   kRequired   always sent; missing or malformed on decode is an error.
//   kDefaulted  always sent; missing or malformed decodes to the default.
//   kSparse     sent only when not the default; decodes like kDefaulted.
// A number outside its member's type range is malformed.  To change a wire
// format, edit its table.

enum class Presence { kRequired, kDefaulted, kSparse };

/// A field's default: T{} unless a table names another (text as a literal).
template <typename T>
using Fallback =
    std::conditional_t<std::is_same_v<T, std::string>, std::string_view, T>;

/// One child element <name>value</name> bound to `member`.
template <typename Owner, typename T>
struct Field {
  std::string_view name;
  T Owner::*member;
  Presence presence;
  Fallback<T> fallback;
};

/// A required nested record, sent as a child element named by its table.
template <typename Owner, typename Record, typename RecordTable>
struct Block {
  Record Owner::*member;
  const RecordTable* table;
};

/// Zero or more nested records, one child element each.
template <typename Owner, typename Record, typename RecordTable>
struct Blocks {
  std::vector<Record> Owner::*member;
  const RecordTable* table;
};

/// Zero or more text elements <name>...</name>.
template <typename Owner>
struct Texts {
  std::string_view name;
  std::vector<std::string> Owner::*member;
};

template <typename... Fields>
struct Table {
  std::string_view tag;
  std::tuple<Fields...> fields;
};

template <typename... Fields>
constexpr Table<Fields...> table(std::string_view tag, Fields... fields) {
  return {tag, {fields...}};
}
template <typename Owner, typename T>
constexpr Field<Owner, T> required(std::string_view name, T Owner::*member) {
  return {name, member, Presence::kRequired, {}};
}
template <typename Owner, typename T>
constexpr Field<Owner, T> defaulted(std::string_view name, T Owner::*member,
                                    Fallback<T> fallback = {}) {
  return {name, member, Presence::kDefaulted, fallback};
}
template <typename Owner, typename T>
constexpr Field<Owner, T> sparse(std::string_view name, T Owner::*member) {
  return {name, member, Presence::kSparse, {}};
}
template <typename Owner, typename Record, typename RecordTable>
constexpr Block<Owner, Record, RecordTable> block(Record Owner::*member,
                                                  const RecordTable& table) {
  return {member, &table};
}
template <typename Owner, typename Record, typename RecordTable>
constexpr Blocks<Owner, Record, RecordTable> blocks(
    std::vector<Record> Owner::*member, const RecordTable& table) {
  return {member, &table};
}
template <typename Owner>
constexpr Texts<Owner> texts(std::string_view name,
                             std::vector<std::string> Owner::*member) {
  return {name, member};
}

// ---- the tables -------------------------------------------------------------

constexpr auto kStatic = table(
    "static", required("host", &StaticInfo::host),
    defaulted("ip", &StaticInfo::ip), defaulted("os", &StaticInfo::os),
    required("memory", &StaticInfo::memory_bytes),
    required("disk", &StaticInfo::disk_bytes),
    required("cpu_speed", &StaticInfo::cpu_speed),
    defaulted("byte_order", &StaticInfo::byte_order, "big"));

constexpr auto kStatus = table(
    "status", required("host", &DynamicStatus::host),
    required("state", &DynamicStatus::state),
    required("load1", &DynamicStatus::load1),
    required("load5", &DynamicStatus::load5),
    required("cpu_util", &DynamicStatus::cpu_util),
    required("processes", &DynamicStatus::processes),
    required("mem_avail_pct", &DynamicStatus::mem_available_pct),
    required("disk_avail", &DynamicStatus::disk_available),
    required("net_in", &DynamicStatus::net_in_bps),
    required("net_out", &DynamicStatus::net_out_bps),
    required("sockets", &DynamicStatus::sockets_established),
    required("timestamp", &DynamicStatus::timestamp));

constexpr auto kRenewal =
    table("renewal", required("host", &LeaseRenewal::host),
          required("state", &LeaseRenewal::state),
          required("timestamp", &LeaseRenewal::timestamp));

/// One table per message, in ProtocolMessage's alternative order; the tag is
/// the root's type attribute.
constexpr std::tuple kMessages{
    table("register", block(&RegisterMsg::info, kStatic),
          required("monitor_port", &RegisterMsg::monitor_port),
          required("commander_port", &RegisterMsg::commander_port)),
    table("update", block(&UpdateMsg::status, kStatus)),
    table("update_batch", blocks(&UpdateBatchMsg::renewals, kRenewal)),
    // The hierarchy-routing fields ride along only when a registry escalates
    // or routes the consult.
    table("consult", required("host", &ConsultMsg::host),
          defaulted("reason", &ConsultMsg::reason),
          sparse("origin_registry", &ConsultMsg::origin_registry),
          sparse("pid", &ConsultMsg::pid),
          sparse("process_name", &ConsultMsg::process_name),
          sparse("schema_name", &ConsultMsg::schema_name),
          sparse("commander_port", &ConsultMsg::commander_port)),
    table("migrate", required("pid", &MigrateCmd::pid),
          defaulted("process_name", &MigrateCmd::process_name),
          required("dest_host", &MigrateCmd::dest_host),
          defaulted("dest_ip", &MigrateCmd::dest_ip),
          required("dest_port", &MigrateCmd::dest_port),
          defaulted("schema_name", &MigrateCmd::schema_name)),
    table("ack", required("of", &AckMsg::of), required("ok", &AckMsg::ok),
          defaulted("detail", &AckMsg::detail)),
    table("process_register", required("host", &ProcessRegisterMsg::host),
          required("pid", &ProcessRegisterMsg::pid),
          defaulted("name", &ProcessRegisterMsg::name),
          required("start_time", &ProcessRegisterMsg::start_time),
          required("migration_enabled",
                   &ProcessRegisterMsg::migration_enabled),
          defaulted("schema_name", &ProcessRegisterMsg::schema_name)),
    table("process_deregister", required("host", &ProcessDeregisterMsg::host),
          required("pid", &ProcessDeregisterMsg::pid)),
    table("health", required("registry_host", &HealthReportMsg::registry_host),
          defaulted("registry_port", &HealthReportMsg::registry_port),
          required("free_hosts", &HealthReportMsg::free_hosts),
          required("busy_hosts", &HealthReportMsg::busy_hosts),
          required("overloaded_hosts", &HealthReportMsg::overloaded_hosts),
          required("timestamp", &HealthReportMsg::timestamp)),
    table("evacuate", required("host", &EvacuateMsg::host),
          defaulted("reason", &EvacuateMsg::reason)),
    table("relaunch", required("process_name", &RelaunchCmd::process_name),
          defaulted("lost_host", &RelaunchCmd::lost_host),
          defaulted("schema_name", &RelaunchCmd::schema_name)),
    // Failure detail rides along only on aborts/rollbacks and pre-copy
    // accounting only when rounds shipped, so a committed stop-and-copy
    // outcome keeps its compact form.
    table("migration_outcome",
          required("process", &MigrationOutcomeMsg::process),
          required("source", &MigrationOutcomeMsg::source),
          required("destination", &MigrationOutcomeMsg::destination),
          required("outcome", &MigrationOutcomeMsg::outcome),
          sparse("reason", &MigrationOutcomeMsg::reason),
          sparse("phase", &MigrationOutcomeMsg::phase),
          sparse("precopy_rounds", &MigrationOutcomeMsg::precopy_rounds),
          sparse("precopy_bytes", &MigrationOutcomeMsg::precopy_bytes)),
    table("resize", required("job", &ResizeCmd::job),
          required("verb", &ResizeCmd::verb),
          required("delta", &ResizeCmd::delta),
          sparse("strategy", &ResizeCmd::strategy),
          texts("target", &ResizeCmd::hosts)),
    table("resize_outcome", required("job", &ResizeOutcomeMsg::job),
          required("verb", &ResizeOutcomeMsg::verb),
          required("delta", &ResizeOutcomeMsg::delta),
          required("outcome", &ResizeOutcomeMsg::outcome),
          required("ranks_after", &ResizeOutcomeMsg::ranks_after),
          sparse("reason", &ResizeOutcomeMsg::reason),
          sparse("phase", &ResizeOutcomeMsg::phase)),
    // bytes/risk only matter on "request"; done/abort keep the compact
    // three-field form.
    table("ckpt_io_request", required("host", &CkptIoRequestMsg::host),
          required("process", &CkptIoRequestMsg::process),
          required("verb", &CkptIoRequestMsg::verb),
          sparse("bytes", &CkptIoRequestMsg::bytes),
          sparse("risk", &CkptIoRequestMsg::risk)),
    table("ckpt_io_grant", required("process", &CkptIoGrantMsg::process),
          required("verb", &CkptIoGrantMsg::verb),
          sparse("retry_after", &CkptIoGrantMsg::retry_after)),
};

/// The table of message type M.
template <typename M, std::size_t I = 0>
constexpr const auto& table_of() {
  using Alternative = std::variant_alternative_t<I, ProtocolMessage>;
  if constexpr (std::is_same_v<M, Alternative>) {
    return std::get<I>(kMessages);
  } else {
    return table_of<M, I + 1>();
  }
}

/// The child element name each kind of field reads.
template <typename Owner, typename T>
constexpr std::string_view name_of(const Field<Owner, T>& field) {
  return field.name;
}
template <typename Owner, typename Record, typename RecordTable>
constexpr std::string_view name_of(
    const Block<Owner, Record, RecordTable>& field) {
  return field.table->tag;
}
template <typename Owner, typename Record, typename RecordTable>
constexpr std::string_view name_of(
    const Blocks<Owner, Record, RecordTable>& field) {
  return field.table->tag;
}
template <typename Owner>
constexpr std::string_view name_of(const Texts<Owner>& field) {
  return field.name;
}

/// True when no two fields of `t` read children of the same name, which
/// the decoder's in-order lookup (Children) relies on.
template <typename... Fields>
constexpr bool distinct_names(const Table<Fields...>& t) {
  return std::apply(
      [](const auto&... field) {
        const std::array<std::string_view, sizeof...(Fields)> names{
            name_of(field)...};
        for (std::size_t i = 0; i < names.size(); ++i) {
          for (std::size_t j = i + 1; j < names.size(); ++j) {
            if (names[i] == names[j]) {
              return false;
            }
          }
        }
        return true;
      },
      t.fields);
}

static_assert(distinct_names(kStatic) && distinct_names(kStatus) &&
              distinct_names(kRenewal));
static_assert(std::apply(
    [](const auto&... t) { return (distinct_names(t) && ...); }, kMessages));

// ---- scalar text ------------------------------------------------------------

template <typename T>
constexpr const char* kind_of() {
  if constexpr (std::is_same_v<T, bool>) return "a boolean";
  if constexpr (std::is_same_v<T, double>) return "a number";
  if constexpr (std::is_same_v<T, int>) return "an int";
  return "an unsigned integer";
}

// ---- the generic codec ------------------------------------------------------
//
// Encoding streams each field straight into the wire string; decoding looks
// each field up among the direct children of its element in the reader's
// flat arrays (the first match wins, order is free, unknown children are
// ignored).

/// The direct children of one element, as its record's fields look them up.
/// A lookup first tries the child after the last one such a try found, and
/// on a miss scans from the first child, which leaves that place alone.  So
/// a record sent in table order costs one name compare per field, and the
/// answer is always the first child of that name: every child before the
/// place was found by an earlier field, and no two fields of a table share
/// a name (distinct_names).  Repeated fields scan and leave it alone too.
class Children {
 public:
  explicit Children(XmlElement parent)
      : parent_(parent), next_(parent.child()) {}

  [[nodiscard]] XmlElement parent() const { return parent_; }

  /// The first child named `name`.
  std::optional<XmlElement> first(std::string_view name) {
    if (next_.has_value() && detail::same(next_->name(), name)) {
      const XmlElement hit = *next_;
      next_ = hit.next_sibling();
      return hit;
    }
    return parent_.child(name);
  }

 private:
  XmlElement parent_;
  std::optional<XmlElement> next_;
};

template <typename... Fields, typename Record>
void encode_fields(XmlWriter& out, const Table<Fields...>& t,
                   const Record& record) {
  std::apply(
      [&](const auto&... field) { (encode_field(out, field, record), ...); },
      t.fields);
}

template <typename... Fields, typename Record>
Status decode_fields(XmlElement node, const Table<Fields...>& t,
                     Record& record) {
  Status status;
  Children children{node};
  std::apply(
      [&](const auto&... field) {
        (void)(decode_field(children, field, record, status) && ...);
      },
      t.fields);
  return status;
}

template <typename Owner, typename T>
void encode_field(XmlWriter& out, const Field<Owner, T>& field,
                  const Owner& record) {
  const T& value = record.*field.member;
  if (field.presence == Presence::kSparse && value == field.fallback) {
    return;
  }
  if constexpr (std::is_same_v<T, bool>) {
    out.element(field.name, value ? "true" : "false");
  } else if constexpr (std::is_same_v<T, double>) {
    out.element(field.name, value, 6);
  } else {
    out.element(field.name, value);
  }
}

template <typename Owner, typename T>
bool decode_field(Children& children, const Field<Owner, T>& field,
                  Owner& record, Status& status) {
  const auto child = children.first(field.name);
  auto value = child.has_value() ? from_text<T>(child->text()) : std::nullopt;
  if (value.has_value()) {
    record.*field.member = std::move(*value);
    return true;
  }
  if (field.presence != Presence::kRequired) {
    record.*field.member = T(field.fallback);
    return true;
  }
  const std::string name(field.name);
  status = !child.has_value()
               ? make_error("proto_decode", "missing field <" + name +
                                                "> in <" +
                                                std::string(
                                                    children.parent().name()) +
                                                ">")
               : make_error("proto_decode", "field <" + name + "> is not " +
                                                kind_of<T>() + ": " +
                                                std::string(child->text()));
  return false;
}

template <typename Owner, typename Record, typename RecordTable>
void encode_field(XmlWriter& out,
                  const Block<Owner, Record, RecordTable>& field,
                  const Owner& record) {
  out.open(field.table->tag);
  encode_fields(out, *field.table, record.*field.member);
  out.close(field.table->tag);
}

template <typename Owner, typename Record, typename RecordTable>
bool decode_field(Children& children,
                  const Block<Owner, Record, RecordTable>& field,
                  Owner& record, Status& status) {
  const auto child = children.first(field.table->tag);
  if (!child.has_value()) {
    status = make_error("proto_decode", "missing <" +
                                            std::string(field.table->tag) +
                                            "> block");
    return false;
  }
  status = decode_fields(*child, *field.table, record.*field.member);
  return status.is_ok();
}

template <typename Owner, typename Record, typename RecordTable>
void encode_field(XmlWriter& out,
                  const Blocks<Owner, Record, RecordTable>& field,
                  const Owner& record) {
  for (const Record& item : record.*field.member) {
    out.open(field.table->tag);
    encode_fields(out, *field.table, item);
    out.close(field.table->tag);
  }
}

template <typename Owner, typename Record, typename RecordTable>
bool decode_field(Children& children,
                  const Blocks<Owner, Record, RecordTable>& field,
                  Owner& record, Status& status) {
  for (auto child = children.parent().child(field.table->tag);
       child.has_value();
       child = child->next_sibling(field.table->tag)) {
    Record item;
    status = decode_fields(*child, *field.table, item);
    if (!status.is_ok()) {
      return false;
    }
    (record.*field.member).push_back(std::move(item));
  }
  return true;
}

template <typename Owner>
void encode_field(XmlWriter& out, const Texts<Owner>& field,
                  const Owner& record) {
  for (const std::string& text : record.*field.member) {
    out.element(field.name, text);
  }
}

template <typename Owner>
bool decode_field(Children& children, const Texts<Owner>& field,
                  Owner& record, Status& /*status*/) {
  for (auto child = children.parent().child(field.name); child.has_value();
       child = child->next_sibling(field.name)) {
    (record.*field.member).emplace_back(child->text());
  }
  return true;
}

/// Decodes the body of a message whose type attribute is `type` into
/// `message`.
template <std::size_t I = 0>
Status decode_body(XmlElement root, std::string_view type,
                   ProtocolMessage& message) {
  if constexpr (I == std::tuple_size_v<decltype(kMessages)>) {
    return make_error("proto_decode",
                      "unknown message type '" + std::string(type) + "'");
  } else {
    const auto& t = std::get<I>(kMessages);
    if (!detail::same(type, t.tag)) {
      return decode_body<I + 1>(root, type, message);
    }
    return decode_fields(root, t, message.emplace<I>());
  }
}

}  // namespace

std::string encode(const ProtocolMessage& message) {
  return encode(message, obs::TraceCtx{});
}

std::string encode(const ProtocolMessage& message, const obs::TraceCtx& ctx) {
  std::string wire;
  XmlWriter out{wire};
  out.open("ars");
  // The context rides as envelope attributes, emitted only when set (same
  // rule as a sparse field) so a context-free message keeps its pre-v2 byte
  // layout.  The envelope's attributes are in key order: pspan, txn, type.
  if (ctx.set()) {
    if (ctx.parent_span != 0) {
      out.attr("pspan", std::to_string(ctx.parent_span));
    }
    out.attr("txn", std::to_string(ctx.txn));
  }
  std::visit(
      [&out](const auto& body) {
        const auto& t = table_of<std::decay_t<decltype(body)>>();
        out.attr("type", t.tag);
        encode_fields(out, t, body);
      },
      message);
  out.close("ars");
  return wire;
}

std::string message_type(const ProtocolMessage& message) {
  return std::visit(
      [](const auto& body) {
        return std::string(table_of<std::decay_t<decltype(body)>>().tag);
      },
      message);
}

namespace {

/// Decodes `wire` into `envelope`, which decode() and decode_envelope()
/// then return without another copy of the message.
Status decode_into(std::string_view wire, Envelope& envelope) {
  // One reader per thread: shards decode concurrently, and each reuses its
  // reader's arrays from one datagram to the next.
  thread_local XmlReader reader;
  const auto root = reader.parse(wire);
  if (!root.has_value()) {
    return root.error();
  }
  if (root->name() != "ars") {
    return make_error("proto_decode",
                      "unexpected root <" + std::string(root->name()) + ">");
  }
  const auto type = root->attr("type");
  if (!type.has_value()) {
    return make_error("proto_decode", "missing type attribute");
  }
  if (Status status = decode_body(*root, *type, envelope.message);
      !status.is_ok()) {
    return status;
  }
  // Malformed context attrs degrade to "no context" rather than rejecting
  // the message: causality is advisory, the payload is not.
  if (const auto txn = root->attr("txn"); txn.has_value()) {
    if (const auto id = support::parse_int(*txn); id.has_value() && *id > 0) {
      envelope.trace.txn = static_cast<std::uint64_t>(*id);
      if (const auto pspan = root->attr("pspan"); pspan.has_value()) {
        if (const auto sid = support::parse_int(*pspan);
            sid.has_value() && *sid > 0) {
          envelope.trace.parent_span = static_cast<std::uint64_t>(*sid);
        }
      }
    }
  }
  return Status::ok();
}

}  // namespace

Expected<ProtocolMessage> decode(std::string_view wire) {
  Envelope envelope;
  if (const Status status = decode_into(wire, envelope); !status.is_ok()) {
    return status.error();
  }
  return std::move(envelope.message);
}

Expected<Envelope> decode_envelope(std::string_view wire) {
  Envelope envelope;
  if (const Status status = decode_into(wire, envelope); !status.is_ok()) {
    return status.error();
  }
  return envelope;
}

}  // namespace ars::xmlproto
