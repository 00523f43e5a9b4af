#pragma once
// Golden wire corpus: one document per message type and presence state,
// shared by the codec tests and the decoder fuzz sweep.

#include <string_view>
#include <vector>

#include "ars/obs/trace_ctx.hpp"
#include "ars/xmlproto/messages.hpp"

namespace ars::xmlproto::golden {

struct Document {
  const char* name;
  ProtocolMessage message;
  obs::TraceCtx trace;
  std::string_view wire;  // encode(message, trace), byte for byte
};

std::vector<Document> corpus();

}  // namespace ars::xmlproto::golden
