// Paraver trace emission (.prv trace, .pcf config, .row names) from a
// reconstructed timeline. The emitted files use the real Paraver text
// format so they load in the actual tool; the state/color table matches
// the paper's Fig. 6 legend (Running green, Spinning red, Critical blue,
// Idle black). Paraver has no notion of cycles, so — exactly as the paper
// does (§V-A) — cycle counts are emitted in the time fields.
#pragma once

#include <string>

#include "trace/timed_trace.hpp"

namespace hlsprof::paraver {

/// Paraver state ids used in .prv records and the .pcf STATES table.
int state_id(sim::ThreadState s);

/// Paraver event-type ids for the sampled counters (.pcf EVENT_TYPE).
int event_type_id(trace::EventKind k);

struct ParaverFiles {
  std::string prv;
  std::string pcf;
  std::string row;
};

/// Render the three Paraver files in memory.
ParaverFiles to_paraver(const trace::TimedTrace& trace,
                        const std::string& app_name);

/// Write `<base>.prv`, `<base>.pcf`, `<base>.row`. The .prv streams to
/// the file in 64 KiB chunks from the same formatter to_paraver uses, so
/// the bytes are identical and no whole-file string is built. Throws an
/// Error naming the file on any I/O failure, including the final flush.
void write_paraver(const trace::TimedTrace& trace, const std::string& app_name,
                   const std::string& base_path);

}  // namespace hlsprof::paraver
