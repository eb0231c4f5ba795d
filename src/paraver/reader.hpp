// Minimal Paraver .prv reader: parses header, state, event, and
// communication records back into a TimedTrace (the writer emits
// communication records for host<->device transfers, an extension beyond
// the paper). Used for round-trip tests and for analyzing traces produced
// elsewhere.
#pragma once

#include <string>

#include "trace/timed_trace.hpp"

namespace hlsprof::paraver {

/// Parse the textual content of a .prv file. Throws Error on malformed
/// input. Unknown record types are rejected; communication records (type
/// 3) are stored in `trace.comms` and counted in `comm_records`.
struct ParseResult {
  trace::TimedTrace trace;
  long long comm_records = 0;
};

ParseResult parse_prv(const std::string& prv_text);

/// Read and parse `<path>`.
ParseResult read_prv_file(const std::string& path);

}  // namespace hlsprof::paraver
