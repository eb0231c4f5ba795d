#include "paraver/writer.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hlsprof::paraver {

using sim::ThreadState;
using trace::EventKind;

int state_id(ThreadState s) {
  switch (s) {
    case ThreadState::idle: return 0;
    case ThreadState::running: return 1;
    case ThreadState::critical: return 2;
    case ThreadState::spinning: return 3;
  }
  return 0;
}

int event_type_id(EventKind k) {
  return 42000000 + int(k);
}

namespace {

// The .prv emitter formats into one chunk of this size and hands it on
// whenever less than kMaxRecord bytes are left. The widest record, a
// communication record with every 64-bit field at 20 digits, is 171 bytes.
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::size_t kMaxRecord = 256;

/// The one .prv formatter: header, state, event and communication records,
/// formatted with std::to_chars into a reused chunk. Every full chunk, and
/// the tail, goes to `sink(std::string_view)`; to_paraver appends them to a
/// string and write_paraver writes them to the file, so the two cannot
/// disagree on a byte.
template <class Sink>
void emit_prv(const trace::TimedTrace& t, Sink&& sink) {
  const std::unique_ptr<char[]> chunk(new char[kChunkBytes]);
  char* const begin = chunk.get();
  char* const end = begin + kChunkBytes;
  char* p = begin;
  const auto text = [&p](std::string_view s) {
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  };
  // Every field fits in 20 characters (UINT64_MAX, or INT_MIN with its
  // sign), so to_chars cannot fail and the chunk's end is never reached.
  const auto num = [&p](auto v) { p = std::to_chars(p, p + 20, v).ptr; };
  const auto field = [&](auto v) {
    *p++ = ':';
    num(v);
  };
  // cpu:appl:task:thread — one node whose CPU i runs thread i, one
  // application with one task.
  const auto object = [&](auto thread1) {
    num(thread1);
    text(":1:1:");
    num(thread1);
  };
  const auto end_record = [&] {
    *p++ = '\n';
    if (std::size_t(end - p) < kMaxRecord) {
      sink(std::string_view(begin, std::size_t(p - begin)));
      p = begin;
    }
  };

  // #Paraver (dd/mm/yyyy at hh:mm):endTime:nNodes(cpus):nAppl:appInfo
  text("#Paraver (07/07/2026 at 12:00)");
  field(t.duration);
  text(":1(");
  num(t.num_threads);
  text("):1:1(");
  num(t.num_threads);
  text(":1)");
  end_record();
  // State records: 1:cpu:appl:task:thread:begin:end:state
  for (int th = 0; th < t.num_threads; ++th) {
    for (const trace::StateInterval& iv : t.thread_states[std::size_t(th)]) {
      text("1:");
      object(th + 1);
      field(iv.begin);
      field(iv.end);
      field(state_id(iv.state));
      end_record();
    }
  }
  // Event records: 2:cpu:appl:task:thread:time:type:value
  for (const trace::EventSample& e : t.events) {
    text("2:");
    object(e.thread + 1);
    field(e.t);
    field(event_type_id(e.kind));
    field(e.value);
    end_record();
  }
  // Communication records (host<->device transfers, an extension beyond
  // the paper): 3:cpu:appl:task:thread:lsend:psend:
  //             cpu:appl:task:thread:lrecv:precv:size:tag
  for (const trace::CommRecord& c : t.comms) {
    text("3:");
    object(c.thread + 1);
    field(c.send);
    field(c.send);
    text(":");
    object(c.thread + 1);
    field(c.recv);
    field(c.recv);
    field(c.bytes);
    field(c.tag);
    end_record();
  }
  if (p != begin) sink(std::string_view(begin, std::size_t(p - begin)));
}

std::string pcf_text() {
  std::string pcf =
      "DEFAULT_OPTIONS\n"
      "\n"
      "LEVEL               THREAD\n"
      "UNITS               NANOSEC\n"
      "LOOK_BACK           100\n"
      "SPEED               1\n"
      "FLAG_ICONS          ENABLED\n"
      "NUM_OF_STATE_COLORS 1000\n"
      "YMAX_SCALE          37\n"
      "\n"
      "DEFAULT_SEMANTIC\n"
      "\n"
      "THREAD_FUNC         State As Is\n"
      "\n"
      "STATES\n"
      "0    Idle\n"
      "1    Running\n"
      "2    Critical\n"
      "3    Spinning\n"
      "\n"
      "STATES_COLOR\n"
      "0    {0,0,0}\n"      // Idle: black (paper Fig. 6 legend)
      "1    {0,255,0}\n"    // Running: green
      "2    {0,0,255}\n"    // Critical: blue
      "3    {255,0,0}\n"    // Spinning: red
      "\n";
  const EventKind kinds[] = {EventKind::stall_cycles, EventKind::int_ops,
                             EventKind::fp_ops, EventKind::bytes_read,
                             EventKind::bytes_written};
  const char* kind_labels[] = {
      "Pipeline stall cycles", "Integer operations",
      "Floating-point operations", "Bytes read (Avalon)",
      "Bytes written (Avalon)"};
  for (int i = 0; i < 5; ++i) {
    pcf += "EVENT_TYPE\n";
    pcf += strf("0    %d    %s\n\n", event_type_id(kinds[i]), kind_labels[i]);
  }
  return pcf;
}

std::string row_text(int num_threads, const std::string& app_name) {
  std::string row = strf("LEVEL CPU SIZE %d\n", num_threads);
  for (int i = 0; i < num_threads; ++i) {
    row += strf("CPU %d (%s)\n", i + 1, app_name.c_str());
  }
  row += strf("\nLEVEL THREAD SIZE %d\n", num_threads);
  for (int i = 0; i < num_threads; ++i) {
    row += strf("HW thread 1.1.%d\n", i + 1);
  }
  return row;
}

/// A file opened for writing. Every failure — open, a write, the final
/// flush and close — throws an Error that names the path.
class OutFile {
 public:
  explicit OutFile(std::string path)
      : path_(std::move(path)), f_(std::fopen(path_.c_str(), "wb")) {
    if (f_ == nullptr) fail_io("cannot open");
    // Callers hand over whole chunks; stdio's own buffer would only copy.
    std::setvbuf(f_, nullptr, _IONBF, 0);
  }
  OutFile(const OutFile&) = delete;
  OutFile& operator=(const OutFile&) = delete;
  ~OutFile() {
    if (f_ != nullptr) std::fclose(f_);
  }

  void write(std::string_view s) {
    if (std::fwrite(s.data(), 1, s.size(), f_) != s.size()) {
      fail_io("write failed for");
    }
  }

  void close() {
    std::FILE* f = std::exchange(f_, nullptr);
    const bool flushed = std::fflush(f) == 0;
    if (std::fclose(f) != 0 || !flushed) fail_io("closing failed for");
  }

 private:
  [[noreturn]] void fail_io(const char* what) const {
    fail(strf("%s '%s': %s", what, path_.c_str(), std::strerror(errno)));
  }

  std::string path_;
  std::FILE* f_;
};

}  // namespace

ParaverFiles to_paraver(const trace::TimedTrace& t,
                        const std::string& app_name) {
  ParaverFiles out;
  emit_prv(t, [&out](std::string_view chunk) { out.prv.append(chunk); });
  out.pcf = pcf_text();
  out.row = row_text(t.num_threads, app_name);
  return out;
}

void write_paraver(const trace::TimedTrace& t, const std::string& app_name,
                   const std::string& base_path) {
  OutFile prv(base_path + ".prv");
  emit_prv(t, [&prv](std::string_view chunk) { prv.write(chunk); });
  prv.close();
  const std::pair<const char*, std::string> small_files[] = {
      {".pcf", pcf_text()}, {".row", row_text(t.num_threads, app_name)}};
  for (const auto& [ext, content] : small_files) {
    OutFile f(base_path + ext);
    f.write(content);
    f.close();
  }
}

}  // namespace hlsprof::paraver
