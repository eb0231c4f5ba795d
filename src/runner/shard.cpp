#include "runner/shard.hpp"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "runner/manifest.hpp"
#include "runner/pool.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace hlsprof::runner {

namespace fs = std::filesystem;

namespace {

/// Key of a `key = value` manifest line; empty for blanks and comments.
std::string line_key(const std::string& line) {
  const std::string t = trim(line);
  if (t.empty() || t[0] == '#') return std::string();
  const auto eq = t.find('=');
  if (eq == std::string::npos) return std::string();
  return trim(t.substr(0, eq));
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) return std::string();
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

}  // namespace

std::vector<std::vector<int>> split_indices(const std::vector<int>& universe,
                                            int shards) {
  HLSPROF_CHECK(shards >= 1, "shard: shard count must be >= 1");
  std::vector<std::vector<int>> out(static_cast<std::size_t>(shards));
  for (std::size_t i = 0; i < universe.size(); ++i) {
    out[i % std::size_t(shards)].push_back(universe[i]);
  }
  return out;
}

std::string make_sub_manifest(const std::string& manifest_text,
                              const std::vector<int>& indices,
                              long long seed_override, bool approx_trace) {
  HLSPROF_CHECK(!indices.empty(), "shard: empty index list");
  std::string out;
  std::istringstream in(manifest_text);
  std::string line;
  while (std::getline(in, line)) {
    const std::string key = line_key(line);
    if (key == "select" || key == "out") continue;
    if (key == "seed" && seed_override >= 0) continue;
    if (key == "approx_trace" && approx_trace) continue;
    out += line;
    out += '\n';
  }
  out += "select = ";
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(indices[i]);
  }
  out += '\n';
  if (seed_override >= 0) {
    out += "seed = " + std::to_string(seed_override) + "\n";
  }
  if (approx_trace) out += "approx_trace = on\n";
  return out;
}

namespace {

/// One message from a shard's reader thread to the coordinator thread.
struct Event {
  enum class Kind {
    job,    // a progress event: one finished job's record
    fault,  // the stream carried something that is not a progress event
    exit,   // the shard is done streaming (process exited / daemon answered)
  };
  Kind kind = Kind::job;
  int shard = 0;
  ProgressEvent progress;  // job
  std::string error;       // fault: why; exit: why, empty for a clean exit
};

/// The coordinator's one stderr funnel: merged progress lines must never
/// tear mid-line. Lines accumulate into a pending buffer under a mutex
/// and are flushed as a single fwrite per event-loop drain, so output
/// from the coordinator interleaves with the childrens' inherited stderr
/// only at batch boundaries, never inside a line.
class ProgressWriter {
 public:
  explicit ProgressWriter(
      const std::function<void(const std::string&)>& emit)
      : emit_(emit) {}

  /// Queue one line (no trailing newline).
  void note(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ += line;
    pending_ += '\n';
  }

  /// Write everything queued since the last flush in one atomic batch.
  void flush() {
    std::string batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.empty()) return;
      batch.swap(pending_);
    }
    if (emit_) {
      emit_(batch);
      return;
    }
    std::fwrite(batch.data(), 1, batch.size(), stderr);
    std::fflush(stderr);
  }

 private:
  const std::function<void(const std::string&)>& emit_;
  std::mutex mu_;
  std::string pending_;
};

struct ShardTelemetry {
  telemetry::Counter& launched;
  telemetry::Counter& redispatched;
  telemetry::Counter& jobs_redispatched;
  telemetry::Histogram& wall_ms;
  static ShardTelemetry& get() {
    auto& reg = telemetry::Registry::global();
    static ShardTelemetry t{
        reg.counter("shard.launched"),
        reg.counter("shard.redispatched"),
        reg.counter("shard.jobs_redispatched"),
        reg.histogram("shard.wall_ms",
                      telemetry::exp_bounds(16.0, 2.0, 16), "ms"),
    };
    return t;
  }
};

/// One launched shard (initial or replacement).
struct Shard {
  int id = 0;
  std::vector<int> indices;  // original job indices it was given
  std::thread thread;
  int pid = -1;  // process mode; -1 in daemon mode
  std::chrono::steady_clock::time_point start;
  bool exited = false;
  /// Streamed something it should not have; its jobs were handed to a
  /// replacement and the rest of its stream is ignored.
  bool faulty = false;
  /// Launch time on the coordinator's telemetry clock (µs since the
  /// registry epoch): the offset that rebases this child's trace onto
  /// the fleet timeline.
  std::uint64_t t0_us = 0;
  std::string chrome_path;  // child's own Perfetto file (merge input)
};

class Coordinator {
 public:
  Coordinator(std::string manifest_text, const ShardOptions& opt)
      : text_(std::move(manifest_text)), opt_(opt) {}

  ~Coordinator() {
    // Defensive: on any exit path, no child outlives the coordinator and
    // every reader thread is joined.
    kill_running();
    for (auto& s : shards_) {
      if (s->thread.joinable()) s->thread.join();
    }
    for (auto& s : shards_) {
      // Reap children whose exit events were never processed (error
      // paths); ECHILD for already-reaped ones is harmless.
      if (s->pid > 0 && !s->exited) {
        int status = 0;
        while (::waitpid(pid_t(s->pid), &status, 0) < 0 && errno == EINTR) {
        }
      }
    }
    if (!tmpdir_.empty()) {
      std::error_code ec;
      fs::remove_all(tmpdir_, ec);
    }
  }

  ShardResult run();

 private:
  using clock = std::chrono::steady_clock;

  void prepare();
  void launch(std::vector<int> indices);
  void launch_process_shard(Shard& s);
  void launch_daemon_shard(Shard& s);
  void handle_event(Event& e);
  void merge(Shard& s, ProgressEvent e);
  void fault(Shard& s, const std::string& why);
  void handle_exit(Shard& s, const std::string& error);
  void release(const Shard& s, const std::string& why);
  void kill_running();
  double elapsed_ms(clock::time_point since) const {
    return std::chrono::duration<double, std::milli>(clock::now() - since)
        .count();
  }

  void push(Event e) {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(e));
    cv_.notify_one();
  }

  void write_merged_chrome_trace();

  std::string text_;
  const ShardOptions& opt_;
  ProgressWriter progress_{opt_.emit_progress};

  ManifestRun run_;           // parsed once for label/out/size
  std::vector<int> universe_;  // indices the merged result must cover
  std::unordered_map<int, std::size_t> slot_of_;
  std::vector<JobResult> slots_;
  /// Per slot: id of the live shard that owns the job, -1 once merged.
  std::vector<int> owner_;
  std::size_t unmerged_ = 0;

  std::string tmpdir_;
  std::string runner_binary_;
  int workers_per_shard_ = 1;
  int redispatches_ = 0;
  int max_redispatch_ = 0;
  std::size_t daemon_rr_ = 0;  // round-robin cursor over opt_.connect
  std::string fatal_;

  // unique_ptr: Shard holds a thread and is referenced by id across
  // reallocation of the vector.
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Event> events_;
};

void Coordinator::prepare() {
  HLSPROF_CHECK(opt_.shards >= 1, "shard: --shards must be >= 1");
  const bool daemon_mode = !opt_.connect.empty();
  if (daemon_mode) {
    HLSPROF_CHECK(opt_.submit_watch != nullptr,
                  "shard: daemon mode requires a submit_watch hook");
  }

  run_ = parse_manifest(text_);
  HLSPROF_CHECK(run_.batch.size() > 0, "shard: manifest expands to no jobs");
  if (run_.options.select.empty()) {
    universe_.resize(run_.batch.size());
    for (std::size_t i = 0; i < universe_.size(); ++i) universe_[i] = int(i);
  } else {
    universe_ = run_.options.select;  // shard over the manifest's own subset
  }
  slots_.resize(universe_.size());
  owner_.assign(universe_.size(), -1);
  unmerged_ = universe_.size();
  for (std::size_t k = 0; k < universe_.size(); ++k) {
    slot_of_.emplace(universe_[k], k);
  }

  max_redispatch_ =
      opt_.max_redispatch > 0 ? opt_.max_redispatch : 2 * opt_.shards;
  workers_per_shard_ =
      opt_.workers_per_shard > 0
          ? opt_.workers_per_shard
          : std::max(1, Pool::resolve_workers(0) / opt_.shards);

  if (!daemon_mode) {
    if (!opt_.runner_binary.empty()) {
      runner_binary_ = opt_.runner_binary;
    } else {
      char buf[4096];
      const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
      HLSPROF_CHECK(n > 0, "shard: cannot resolve the runner binary "
                           "(/proc/self/exe unreadable)");
      buf[n] = '\0';
      runner_binary_ = buf;
    }
    if (::access(runner_binary_.c_str(), X_OK) != 0) {
      fail("shard: runner binary is not executable: " + runner_binary_);
    }
    std::string tmpl =
        (fs::temp_directory_path() / "hlsprof-shard-XXXXXX").string();
    std::vector<char> mut(tmpl.begin(), tmpl.end());
    mut.push_back('\0');
    HLSPROF_CHECK(::mkdtemp(mut.data()) != nullptr,
                  "shard: cannot create scratch directory");
    tmpdir_ = mut.data();
  }
}

void Coordinator::launch(std::vector<int> indices) {
  auto shard = std::make_unique<Shard>();
  shard->id = int(shards_.size());
  shard->indices = std::move(indices);
  shard->start = clock::now();
  for (const int i : shard->indices) owner_[slot_of_.at(i)] = shard->id;
  Shard& s = *shards_.emplace_back(std::move(shard));
  auto& reg = telemetry::Registry::global();
  if (reg.enabled()) ShardTelemetry::get().launched.add(1);
  if (opt_.connect.empty()) {
    launch_process_shard(s);
  } else {
    launch_daemon_shard(s);
  }
}

void Coordinator::launch_process_shard(Shard& s) {
  const std::string manifest_path =
      (fs::path(tmpdir_) / strf("shard-%d.manifest", s.id)).string();
  {
    std::ofstream f(manifest_path, std::ios::trunc);
    HLSPROF_CHECK(f.good(), "shard: cannot write " + manifest_path);
    f << make_sub_manifest(text_, s.indices, opt_.seed_override,
                           opt_.approx_trace);
  }

  std::vector<std::string> args = {
      runner_binary_,
      manifest_path,
      "--canonical",
      "--quiet",
      "--progress",
      "--workers=" + std::to_string(workers_per_shard_),
  };
  if (!opt_.cache_dir.empty()) {
    args.push_back("--cache-dir=" + opt_.cache_dir);
    if (opt_.cache_max_bytes != 0) {
      args.push_back("--cache-max-bytes=" +
                     std::to_string(opt_.cache_max_bytes));
    }
  }
  if (!opt_.child_telemetry_prefix.empty()) {
    args.push_back("--telemetry-out=" + opt_.child_telemetry_prefix +
                   std::to_string(s.id) + ".json");
  }
  if (!opt_.chrome_trace_out.empty()) {
    s.chrome_path =
        (fs::path(tmpdir_) / strf("shard-%d.trace.json", s.id)).string();
    args.push_back("--chrome-trace=" + s.chrome_path);
  }
  s.t0_us = telemetry::Registry::global().now_us();
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  HLSPROF_CHECK(::pipe(fds) == 0, "shard: pipe failed");
  const pid_t pid = ::fork();
  HLSPROF_CHECK(pid >= 0, "shard: fork failed");
  if (pid == 0) {
    // Child: progress events go up the pipe; stderr stays inherited.
    // Only async-signal-safe calls between fork and exec.
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  s.pid = int(pid);
  if (opt_.on_spawn) opt_.on_spawn(s.id, s.pid);

  const int shard_id = s.id;
  const int read_fd = fds[0];
  s.thread = std::thread([this, shard_id, read_fd, pid] {
    std::FILE* f = ::fdopen(read_fd, "r");
    if (f != nullptr) {
      char* line = nullptr;
      std::size_t cap = 0;
      ssize_t n = 0;
      while ((n = ::getline(&line, &cap, f)) >= 0) {
        Event e;
        e.shard = shard_id;
        try {
          e.progress =
              parse_progress_event(std::string_view(line, std::size_t(n)));
        } catch (const std::exception& ex) {
          e.kind = Event::Kind::fault;
          e.error = strf("streamed a malformed line (%s)", ex.what());
        }
        push(std::move(e));
      }
      std::free(line);
      std::fclose(f);
    } else {
      ::close(read_fd);
    }
    // Peek the exit status WITHOUT reaping (WNOWAIT): the coordinator
    // may still SIGKILL this pid (a faulty shard, or teardown on an
    // error path), which must never race with pid recycling. The
    // coordinator reaps after it marks the shard exited, at which point
    // it will never signal the pid again.
    siginfo_t si{};
    while (::waitid(P_PID, id_t(pid), &si, WEXITED | WNOWAIT) < 0 &&
           errno == EINTR) {
    }
    Event e;
    e.kind = Event::Kind::exit;
    e.shard = shard_id;
    // Exit 1 means some jobs failed — their failures were streamed like
    // any other job, so the shard itself still succeeded.
    if (si.si_code == CLD_KILLED || si.si_code == CLD_DUMPED) {
      e.error = strf("killed by signal %d", si.si_status);
    } else if (si.si_status != 0 && si.si_status != 1) {
      e.error = strf("exited with status %d%s", si.si_status,
                     si.si_status == 127 ? " (exec failed?)" : "");
    }
    push(std::move(e));
  });
}

void Coordinator::launch_daemon_shard(Shard& s) {
  const std::string socket = opt_.connect[daemon_rr_++ % opt_.connect.size()];
  const std::string manifest = make_sub_manifest(
      text_, s.indices, opt_.seed_override, opt_.approx_trace);
  const int shard_id = s.id;
  s.thread = std::thread([this, shard_id, socket, manifest] {
    Event done;
    done.kind = Event::Kind::exit;
    done.shard = shard_id;
    try {
      opt_.submit_watch(socket, manifest, strf("shard-%d", shard_id),
                        [this, shard_id](const ProgressEvent& p) {
                          Event e;
                          e.shard = shard_id;
                          e.progress = p;
                          push(std::move(e));
                        });
    } catch (const std::exception& ex) {
      done.error = ex.what();
    }
    push(std::move(done));
  });
}

void Coordinator::release(const Shard& s, const std::string& why) {
  std::vector<int> owned;
  for (const int i : s.indices) {
    if (owner_[slot_of_.at(i)] == s.id) owned.push_back(i);
  }
  if (owned.empty() || !fatal_.empty()) return;
  if (redispatches_ >= max_redispatch_) {
    fatal_ = strf("shard: re-dispatch budget (%d) exhausted; shard %d %s "
                  "with %zu jobs outstanding",
                  max_redispatch_, s.id, why.c_str(), owned.size());
    return;
  }
  ++redispatches_;
  auto& reg = telemetry::Registry::global();
  if (reg.enabled()) {
    ShardTelemetry& t = ShardTelemetry::get();
    t.redispatched.add(1);
    t.jobs_redispatched.add(static_cast<long long>(owned.size()));
  }
  if (!opt_.quiet) {
    progress_.note(strf("hlsprof-run: shard %d %s; re-dispatching %zu jobs "
                        "as shard %zu",
                        s.id, why.c_str(), owned.size(), shards_.size()));
  }
  launch(std::move(owned));
}

void Coordinator::merge(Shard& s, ProgressEvent e) {
  if (s.faulty) return;  // its jobs already belong to a replacement
  const int index = e.job.index;
  const auto it = slot_of_.find(index);
  if (it == slot_of_.end() || owner_[it->second] != s.id) {
    fault(s, strf("streamed job index %d, which it does not own", index));
    return;
  }
  owner_[it->second] = -1;
  --unmerged_;
  if (opt_.on_job_event) opt_.on_job_event(s.id, e);
  if (!opt_.quiet) {
    progress_.note(strf("hlsprof-run: [shard %d] %s %s (%zu/%zu)", s.id,
                        e.job.name.c_str(), job_status_name(e.job.status),
                        universe_.size() - unmerged_, universe_.size()));
  }
  slots_[it->second] = std::move(e.job);
}

void Coordinator::fault(Shard& s, const std::string& why) {
  if (s.faulty) return;
  s.faulty = true;
  // Not yet reaped (exited is unset), so the pid cannot have been
  // recycled.
  if (s.pid > 0 && !s.exited) ::kill(pid_t(s.pid), SIGKILL);
  release(s, why);
}

void Coordinator::handle_exit(Shard& s, const std::string& error) {
  s.exited = true;
  if (s.pid > 0) {
    // Safe to reap now: with `exited` set, this pid is never signalled
    // again, so recycling cannot misdirect a kill.
    int status = 0;
    while (::waitpid(pid_t(s.pid), &status, 0) < 0 && errno == EINTR) {
    }
  }
  const double wall = elapsed_ms(s.start);
  auto& reg = telemetry::Registry::global();
  if (reg.enabled()) ShardTelemetry::get().wall_ms.observe(wall);
  // Whatever it streamed is merged; only the jobs it still owns go on.
  release(s, error.empty() ? std::string("exited before streaming all its "
                                         "jobs")
                           : error);
}

void Coordinator::handle_event(Event& e) {
  Shard& s = *shards_[std::size_t(e.shard)];
  switch (e.kind) {
    case Event::Kind::job: merge(s, std::move(e.progress)); return;
    case Event::Kind::fault: fault(s, e.error); return;
    case Event::Kind::exit: handle_exit(s, e.error); return;
  }
}

void Coordinator::kill_running() {
  for (auto& sp : shards_) {
    if (!sp->exited && sp->pid > 0) ::kill(pid_t(sp->pid), SIGKILL);
  }
}

ShardResult Coordinator::run() {
  const clock::time_point t0 = clock::now();
  prepare();

  for (auto& part : split_indices(universe_, opt_.shards)) {
    if (!part.empty()) launch(std::move(part));
  }

  const auto all_exited = [&] {
    for (const auto& sp : shards_) {
      if (!sp->exited) return false;
    }
    return true;
  };

  // Drive events until every job is merged (or the run is doomed) and
  // every shard has come home. Every launched shard reports its exit
  // through the queue, so the loop also serves as the drain.
  for (;;) {
    std::deque<Event> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !events_.empty(); });
      batch.swap(events_);
    }
    for (Event& e : batch) handle_event(e);
    progress_.flush();
    if ((unmerged_ == 0 || !fatal_.empty()) && all_exited()) break;
  }
  for (auto& sp : shards_) {
    if (sp->thread.joinable()) sp->thread.join();
  }
  if (!fatal_.empty()) fail(fatal_);
  HLSPROF_CHECK(unmerged_ == 0, "shard: jobs left unmerged");

  // Child trace files live in tmpdir_ (removed by the destructor), so
  // the fleet trace must be assembled before run() returns.
  write_merged_chrome_trace();

  ShardResult out;
  out.merged.jobs = std::move(slots_);
  rebase_cache_stats(out.merged);
  out.merged.workers = workers_per_shard_ * opt_.shards;
  out.merged.wall_ms = elapsed_ms(t0);
  out.label = run_.label;
  out.out_prefix = run_.out_prefix;
  out.shards_launched = int(shards_.size());
  out.shards_redispatched = redispatches_;
  return out;
}

void Coordinator::write_merged_chrome_trace() {
  if (opt_.chrome_trace_out.empty() || !opt_.connect.empty()) return;
  std::vector<telemetry::ChromeTraceInput> inputs;
  auto& reg = telemetry::Registry::global();
  if (reg.enabled()) {
    telemetry::ChromeTraceInput own;
    own.label = "coordinator";
    own.json_text = telemetry::chrome_trace_json(reg.snapshot(true));
    own.ts_offset_us = 0;  // children rebase onto this clock
    inputs.push_back(std::move(own));
  }
  for (const auto& sp : shards_) {
    if (sp->chrome_path.empty()) continue;
    telemetry::ChromeTraceInput in;
    in.label = strf("shard-%d", sp->id);
    in.json_text = read_file_or_empty(sp->chrome_path);
    in.ts_offset_us = sp->t0_us;
    if (!in.json_text.empty()) inputs.push_back(std::move(in));
  }
  telemetry::write_text_file(opt_.chrome_trace_out,
                             telemetry::merge_chrome_traces(inputs));
}

}  // namespace

ShardResult run_sharded_text(const std::string& manifest_text,
                             const ShardOptions& options) {
  Coordinator c(manifest_text, options);
  return c.run();
}

ShardResult run_sharded(const std::string& manifest_path,
                        const ShardOptions& options) {
  std::ifstream f(manifest_path, std::ios::binary);
  HLSPROF_CHECK(f.good(), "cannot open '" + manifest_path + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return run_sharded_text(ss.str(), options);
}

}  // namespace hlsprof::runner
