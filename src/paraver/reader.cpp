#include "paraver/reader.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <climits>
#include <fstream>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hlsprof::paraver {

namespace {

sim::ThreadState state_from_id(int id) {
  switch (id) {
    case 0: return sim::ThreadState::idle;
    case 1: return sim::ThreadState::running;
    case 2: return sim::ThreadState::critical;
    case 3: return sim::ThreadState::spinning;
  }
  fail(strf("unknown Paraver state id %d", id));
}

trace::EventKind kind_from_type(int type) {
  const int k = type - 42000000;
  HLSPROF_CHECK(k >= 1 && k <= 5,
                strf("unknown Paraver event type %d", type));
  return trace::EventKind(k);
}

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

std::string_view trim_view(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

/// Checked numeric field parse. .prv fields are non-negative decimal
/// integers; anything else — text, sign, overflow, an empty field from a
/// doubled separator — is a diagnostic naming the line and field, in the
/// decoder's offset-error style.
unsigned long long parse_u64_field(std::string_view raw, int lineno,
                                   std::size_t field, const char* what) {
  const std::string_view v = trim_view(raw);
  // A leading sign is never valid, but a signed value that overflows is
  // reported as out of range (strtoull's reading of it).
  const bool sign = !v.empty() && (v.front() == '-' || v.front() == '+');
  const char* first = v.data() + (sign ? 1 : 0);
  const char* last = v.data() + v.size();
  unsigned long long out = 0;
  const auto [end, ec] = std::from_chars(first, last, out);
  if (ec == std::errc::result_out_of_range) {
    fail(strf("prv:%d: field %zu (%s): value \"%.*s\" out of 64-bit range",
              lineno, field + 1, what, int(raw.size()), raw.data()));
  }
  if (ec != std::errc{} || end != last || sign) {
    fail(strf("prv:%d: field %zu (%s): expected an unsigned integer, "
              "got \"%.*s\"",
              lineno, field + 1, what, int(raw.size()), raw.data()));
  }
  return out;
}

/// Split `line` at ':' and parse every field into `out` (reused across
/// lines, so a record costs no allocation).
void parse_fields(std::string_view line, int lineno,
                  std::vector<unsigned long long>& out) {
  out.clear();
  const char* p = line.data();
  const char* const end = p + line.size();
  for (;;) {
    // Every field the writer emits is 1 to 20 plain digits; up to 19
    // cannot overflow, so they are accumulated here. Anything else
    // (padding, a sign, text, 20 digits) takes the checked parse.
    const char* q = p;
    unsigned long long v = 0;
    while (q != end && q - p < 19 && unsigned(*q - '0') < 10) {
      v = v * 10 + unsigned(*q - '0');
      ++q;
    }
    if (q == p || (q != end && *q != ':')) {
      q = std::find(p, end, ':');
      v = parse_u64_field(std::string_view(p, std::size_t(q - p)), lineno,
                          out.size(), "record field");
    }
    out.push_back(v);
    if (q == end) return;
    p = q + 1;
  }
}

/// Checked narrowing for fields consumed as int (thread ids, state ids,
/// event types): a value that would wrap the int cast must be an error,
/// not an aliased in-range id.
int narrow_int(unsigned long long v, int lineno, std::size_t field,
               const char* what) {
  if (v > (unsigned long long)INT_MAX) {
    fail(strf("prv:%d: field %zu (%s): value %llu exceeds int range",
              lineno, field + 1, what, v));
  }
  return int(v);
}

}  // namespace

ParseResult parse_prv(const std::string& prv_text) {
  ParseResult result;
  trace::TimedTrace& t = result.trace;

  std::string_view rest = prv_text;
  std::vector<unsigned long long> f;
  bool have_header = false;
  int lineno = 0;
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    std::string_view line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    ++lineno;
    line = trim_view(line);
    if (line.empty()) continue;
    if (line.starts_with("#Paraver")) {
      HLSPROF_CHECK(!have_header,
                    strf("prv:%d: duplicate #Paraver header", lineno));
      have_header = true;
      // #Paraver (...):endTime:nNodes(cpus):nAppl:appInfo
      const auto paren = line.find(')');
      HLSPROF_CHECK(paren != std::string_view::npos &&
                        paren + 2 <= line.size(),
                    strf("prv:%d: malformed header", lineno));
      const auto fields = split(std::string(line.substr(paren + 2)), ':');
      HLSPROF_CHECK(fields.size() >= 4,
                    strf("prv:%d: malformed header field count", lineno));
      t.duration =
          cycle_t(parse_u64_field(fields[0], lineno, 0, "header endTime"));
      // nNodes(cpus)
      const auto open2 = fields[1].find('(');
      HLSPROF_CHECK(open2 != std::string::npos,
                    strf("prv:%d: malformed node field", lineno));
      const auto close2 = fields[1].find(')');
      HLSPROF_CHECK(close2 != std::string::npos && close2 > open2,
                    strf("prv:%d: malformed node field", lineno));
      const int cpus = narrow_int(
          parse_u64_field(std::string_view(fields[1]).substr(
                              open2 + 1, close2 - open2 - 1),
                          lineno, 1, "header cpu count"),
          lineno, 1, "header cpu count");
      t.num_threads = cpus;
      t.thread_states.resize(std::size_t(cpus));
      continue;
    }
    HLSPROF_CHECK(have_header,
                  strf("prv:%d: record before #Paraver header", lineno));
    parse_fields(line, lineno, f);
    HLSPROF_CHECK(!f.empty(), strf("prv:%d: empty record", lineno));
    switch (f[0]) {
      case 1: {  // state: 1:cpu:appl:task:thread:begin:end:state
        HLSPROF_CHECK(f.size() == 8,
                      strf("prv:%d: state record needs 8 fields", lineno));
        const int th = narrow_int(f[4], lineno, 4, "thread id") - 1;
        HLSPROF_CHECK(th >= 0 && th < t.num_threads,
                      strf("prv:%d: state record thread out of range",
                           lineno));
        t.thread_states[std::size_t(th)].push_back(trace::StateInterval{
            state_from_id(narrow_int(f[7], lineno, 7, "state id")),
            cycle_t(f[5]), cycle_t(f[6])});
        break;
      }
      case 2: {  // event: 2:cpu:appl:task:thread:time:type:value[...]
        HLSPROF_CHECK(f.size() >= 8 && f.size() % 2 == 0,
                      strf("prv:%d: event record needs 6 fields + type/value "
                           "pairs",
                           lineno));
        const int th = narrow_int(f[4], lineno, 4, "thread id") - 1;
        HLSPROF_CHECK(th >= 0 && th < t.num_threads,
                      strf("prv:%d: event record thread out of range",
                           lineno));
        for (std::size_t i = 6; i + 1 < f.size(); i += 2) {
          t.events.push_back(trace::EventSample{
              kind_from_type(narrow_int(f[i], lineno, i, "event type")),
              thread_id_t(th), cycle_t(f[5]), std::uint64_t(f[i + 1])});
        }
        break;
      }
      case 3: {  // communication: host<->device transfer (extension)
        HLSPROF_CHECK(f.size() == 15,
                      strf("prv:%d: communication record needs 15 fields",
                           lineno));
        const int th = narrow_int(f[4], lineno, 4, "thread id") - 1;
        HLSPROF_CHECK(th >= 0 && th < t.num_threads,
                      strf("prv:%d: communication record thread out of range",
                           lineno));
        t.comms.push_back(trace::CommRecord{
            thread_id_t(th), cycle_t(f[5]), cycle_t(f[11]),
            std::uint64_t(f[13]),
            narrow_int(f[14], lineno, 14, "transfer direction")});
        ++result.comm_records;
        break;
      }
      default:
        fail(strf("prv:%d: unknown Paraver record type %llu", lineno, f[0]));
    }
  }
  HLSPROF_CHECK(have_header, "missing #Paraver header");
  return result;
}

ParseResult read_prv_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  HLSPROF_CHECK(f.good(), "cannot open '" + path + "'");
  // One read of the whole file into a buffer of its size.
  std::string text(static_cast<std::size_t>(f.tellg()), '\0');
  f.seekg(0);
  f.read(text.data(), static_cast<std::streamsize>(text.size()));
  HLSPROF_CHECK(f.gcount() == static_cast<std::streamsize>(text.size()),
                "cannot read '" + path + "'");
  return parse_prv(text);
}

}  // namespace hlsprof::paraver
