// Tests for the multi-process shard coordinator (src/runner/shard):
// index partitioning, sub-manifest construction, the `select` control
// key's slice determinism, the job record and progress event round trip
// (the only thing a shard streams), and end-to-end child-process and
// daemon fleets including SIGKILL recovery, stream faults, and a warm
// shared design cache across the fleet.
#include <gtest/gtest.h>

#include <signal.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "runner/runner.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace hlsprof {
namespace {

namespace fs = std::filesystem;

// A small sweep whose six jobs have six distinct designs, cheap enough
// for child processes in CI.
const char* kManifest = R"(
workload = vecadd
n = 48,64,80,96,112,128
profiling = off
verify = on
workers = 2
seed = 7
label = shard-suite
)";

// Sweep sharing ONE design across all jobs (sampling period only changes
// run behaviour... no — identical n => identical design): exercises the
// cache-rebase path where per-shard real counters cannot simply add up.
const char* kSharedDesignManifest = R"(
workload = pi
steps = 4000
threads = 2
sampling_period = 1024,8192,65536
profiling = on
verify = on
workers = 2
label = shard-shared
)";

std::vector<int> iota_universe(int n) {
  std::vector<int> u(static_cast<std::size_t>(n));
  std::iota(u.begin(), u.end(), 0);
  return u;
}

std::string canonical_report(const runner::BatchResult& result,
                             const std::string& label) {
  runner::ReportOptions opts;
  opts.canonical = true;
  opts.label = label;
  return runner::report_json(result, opts);
}

std::string canonical_csv(const runner::BatchResult& result,
                          const std::string& label) {
  runner::ReportOptions opts;
  opts.canonical = true;
  opts.label = label;
  return runner::report_csv(result, opts);
}

/// The single-process truth the merged output must reproduce.
runner::BatchResult run_whole(const std::string& text) {
  runner::ManifestRun run = runner::parse_manifest(text);
  return run.batch.run(run.options);
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir =
      fs::path(testing::TempDir()) / "hlsprof_shard" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---- index partitioning ----------------------------------------------------

TEST(ShardSplit, RoundRobinIsDisjointAndCovering) {
  const std::vector<int> universe = {0, 1, 2, 3, 4, 5, 6};
  const auto parts = runner::split_indices(universe, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<int>{0, 3, 6}));
  EXPECT_EQ(parts[1], (std::vector<int>{1, 4}));
  EXPECT_EQ(parts[2], (std::vector<int>{2, 5}));
}

TEST(ShardSplit, MoreShardsThanJobsLeavesEmptyParts) {
  const auto parts = runner::split_indices(iota_universe(2), 5);
  ASSERT_EQ(parts.size(), 5u);
  std::multiset<int> seen;
  for (const auto& p : parts) seen.insert(p.begin(), p.end());
  EXPECT_EQ(seen, (std::multiset<int>{0, 1}));
}

// ---- sub-manifests and the select key --------------------------------------

TEST(ShardManifest, SubManifestReplacesSelectOutAndSeed) {
  const std::string text =
      "workload = vecadd\nn = 8,16,32\nout = orig\nselect = 0\nseed = 3\n";
  const std::string sub = runner::make_sub_manifest(text, {1, 2}, 11);
  EXPECT_EQ(sub.find("out ="), std::string::npos);
  EXPECT_EQ(sub.find("select = 0"), std::string::npos);
  EXPECT_EQ(sub.find("seed = 3"), std::string::npos);
  EXPECT_NE(sub.find("select = 1,2"), std::string::npos);
  EXPECT_NE(sub.find("seed = 11"), std::string::npos);
  // Still a valid manifest that expands to exactly the selection.
  runner::ManifestRun run = runner::parse_manifest(sub);
  EXPECT_EQ(run.options.select, (std::vector<int>{1, 2}));
  EXPECT_EQ(run.options.seed, 11u);
}

TEST(ShardManifest, SelectKeyErrors) {
  EXPECT_THROW(
      runner::parse_manifest("workload = vecadd\nn = 8,16\nselect = 5\n"),
      Error);
  EXPECT_THROW(
      runner::parse_manifest("workload = vecadd\nn = 8,16\nselect = -1\n"),
      Error);
  EXPECT_THROW(
      runner::parse_manifest("workload = vecadd\nn = 8,16\nselect = one\n"),
      Error);
}

TEST(ShardSelect, SelectedRunIsTheSliceOfTheFullRun) {
  const runner::BatchResult full = run_whole(kManifest);

  runner::ManifestRun sub =
      runner::parse_manifest(runner::make_sub_manifest(kManifest, {1, 4}));
  const runner::BatchResult part = sub.batch.run(sub.options);
  ASSERT_EQ(part.jobs.size(), 2u);

  // Selected jobs keep their original indices, seeds, and every metric —
  // compare via the canonical report of an equivalent hand-built slice.
  runner::BatchResult slice;
  slice.jobs = {full.jobs[1], full.jobs[4]};
  runner::rebase_cache_stats(slice);
  runner::BatchResult rebased_part = part;
  runner::rebase_cache_stats(rebased_part);
  EXPECT_EQ(canonical_report(rebased_part, "x"),
            canonical_report(slice, "x"));
  EXPECT_EQ(part.jobs[0].index, 1);
  EXPECT_EQ(part.jobs[1].index, 4);
}

// ---- progress events -------------------------------------------------------

TEST(ShardProgress, RoundTripsNamesWithSpaces) {
  runner::JobResult j;
  j.index = 12;
  j.status = runner::JobStatus::timed_out;
  for (const std::string name :
       {"gemm dim=48 threads=4, blocked", "say \"hi\" name=x\\y",
        "name=", " padded  \t"}) {
    j.name = name;
    const std::string line = runner::format_progress_event(j, 3, 9);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const runner::ProgressEvent e = runner::parse_progress_event(line);
    EXPECT_EQ(e.job.index, 12);
    EXPECT_EQ(e.job.status, runner::JobStatus::timed_out);
    EXPECT_EQ(e.job.name, name);
    EXPECT_EQ(e.done, 3);
    EXPECT_EQ(e.jobs, 9);
  }
}

TEST(ShardProgress, MalformedLinesAreRejectedWithByteOffset) {
  // Truncated JSON: json_parse's message says where it stopped.
  try {
    runner::parse_progress_event(R"({"event":"progress","done":1,)");
    ADD_FAILURE() << "truncated event parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(runner::parse_progress_event("plain stdout chatter"), Error);
  EXPECT_THROW(runner::parse_progress_event(""), Error);
  // Valid JSON that is not a progress event, or lacks a member.
  EXPECT_THROW(runner::parse_progress_event(R"({"event":"done"})"), Error);
  runner::JobResult j;
  j.index = 1;
  const std::string line = runner::format_progress_event(j, 1, 1);
  const auto broken = [&line](const std::string& from, const std::string& to) {
    std::string out = line;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return out.replace(at, from.size(), to);
  };
  EXPECT_THROW(runner::parse_progress_event(broken("\"bytes\"", "\"bites\"")),
               Error);
  EXPECT_THROW(runner::parse_progress_event(
                   broken("\"state_cycles\":[0,0,0,0]", "\"state_cycles\":[0,0,0]")),
               Error);
  // The job record inside is checked member by member too.
  EXPECT_THROW(runner::parse_progress_event(broken("\"seed\"", "\"sead\"")),
               Error);
  EXPECT_THROW(runner::parse_progress_event(
                   broken("\"status\":\"ok\"", "\"status\":\"fine\"")),
               Error);
  EXPECT_THROW(runner::parse_progress_event(
                   broken("\"design_key\":\"", "\"design_key\":\"xyz")),
               Error);
}

// ---- job records -----------------------------------------------------------

TEST(ShardRecord, RoundTripsExtremeValuesExactly) {
  runner::JobResult j;
  j.index = 41;
  j.name = "gemm \"dim\"=48,\nblocked\t\\";
  j.status = runner::JobStatus::failed;
  j.error = "check failed: \"C[3]\" differs\nexpected 1.5\r\ngot 2";
  j.seed = std::numeric_limits<std::uint64_t>::max();
  j.design_key = 0x8000000000000001ULL;
  j.fmax_mhz = 0.1 + 0.2;  // 0.30000000000000004: needs all 17 digits
  j.alm = 1.0 / 3.0;
  j.bram_bits = 6.02214076e23;
  j.num_threads = 16;
  j.total_cycles = std::numeric_limits<cycle_t>::max();
  j.kernel_cycles = 1ULL << 63;
  j.stall_cycles = 7;
  j.fp_ops = std::numeric_limits<long long>::max();
  j.gflops = 2.0 / 3.0;
  j.row_hit_rate = 5e-324;  // smallest subnormal
  j.has_trace = true;
  j.state_idle = 0.1;
  j.state_running = 0.7000000000000001;
  j.state_critical = 1e-17;
  j.state_spinning = 0.19999999999999998;
  j.state_records = 123456789012LL;
  j.event_records = 3;
  j.flush_bursts = 2;
  j.trace_bytes = 1ULL << 40;
  j.peak_trace_buffer_bytes = 4096;
  j.overhead_alm_pct = 1.25;
  j.overhead_register_pct = 99.99999999999999;

  JsonWriter a;
  runner::write_job_json(a, j);
  const runner::JobResult r = runner::parse_job_json(json_parse(a.str()));
  EXPECT_EQ(r.index, j.index);
  EXPECT_EQ(r.name, j.name);
  EXPECT_EQ(r.status, j.status);
  EXPECT_EQ(r.error, j.error);
  EXPECT_EQ(r.seed, j.seed);
  EXPECT_EQ(r.design_key, j.design_key);
  EXPECT_EQ(r.total_cycles, j.total_cycles);
  EXPECT_EQ(r.kernel_cycles, j.kernel_cycles);
  EXPECT_EQ(r.fp_ops, j.fp_ops);
  EXPECT_EQ(r.state_records, j.state_records);
  EXPECT_EQ(r.trace_bytes, j.trace_bytes);
  // Doubles compare bit for bit, not within a tolerance.
  for (const auto& [got, want] :
       std::vector<std::pair<double, double>>{
           {r.fmax_mhz, j.fmax_mhz}, {r.alm, j.alm},
           {r.bram_bits, j.bram_bits}, {r.gflops, j.gflops},
           {r.row_hit_rate, j.row_hit_rate}, {r.state_idle, j.state_idle},
           {r.state_running, j.state_running},
           {r.state_critical, j.state_critical},
           {r.state_spinning, j.state_spinning},
           {r.overhead_register_pct, j.overhead_register_pct}}) {
    EXPECT_EQ(got, want);
  }
  // The strongest statement: the record re-serializes to the same bytes.
  JsonWriter b;
  runner::write_job_json(b, r);
  EXPECT_EQ(a.str(), b.str());
}

TEST(ShardMerge, ReportJobsRoundTripExactly) {
  // A canonical report's "jobs" entries are job records: parse_job_json
  // recovers every job of a real run exactly.
  const runner::BatchResult single = run_whole(kManifest);
  const JsonValue doc = json_parse(canonical_report(single, "rt"));
  const auto& jobs = doc.find("jobs")->items();
  ASSERT_EQ(jobs.size(), single.jobs.size());
  runner::BatchResult parsed;
  for (const JsonValue& v : jobs) {
    parsed.jobs.push_back(runner::parse_job_json(v));
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Seeds are full-range uint64 (SplitMix64) — the round trip must be
    // exact, not a double approximation.
    EXPECT_EQ(parsed.jobs[i].seed, single.jobs[i].seed);
    EXPECT_EQ(parsed.jobs[i].design_key, single.jobs[i].design_key);
    EXPECT_EQ(parsed.jobs[i].total_cycles, single.jobs[i].total_cycles);
    EXPECT_EQ(parsed.jobs[i].gflops, single.jobs[i].gflops);
  }
  runner::rebase_cache_stats(parsed);
  EXPECT_EQ(canonical_report(parsed, "rt"), canonical_report(single, "rt"));
  EXPECT_THROW(runner::parse_job_json(json_parse("[]")), Error);
  EXPECT_THROW(runner::parse_job_json(json_parse("{\"index\":1}")), Error);
}

TEST(ShardMerge, MergedReportIsByteIdenticalToSingleRun) {
  // What the coordinator does, in process: run each shard's slice with
  // its own fresh cache, pass every job through its progress event, and
  // slot the records back by index.
  for (const char* text : {kManifest, kSharedDesignManifest}) {
    const runner::BatchResult single = run_whole(text);
    const std::string label = runner::parse_manifest(text).label;
    runner::BatchResult merged;
    merged.jobs.resize(single.jobs.size());
    for (const auto& part :
         runner::split_indices(iota_universe(int(single.jobs.size())), 3)) {
      runner::ManifestRun sub =
          runner::parse_manifest(runner::make_sub_manifest(text, part));
      for (const runner::JobResult& j : sub.batch.run(sub.options).jobs) {
        const runner::ProgressEvent e = runner::parse_progress_event(
            runner::format_progress_event(j, 1, int(part.size())));
        merged.jobs[std::size_t(e.job.index)] = e.job;
      }
    }
    runner::rebase_cache_stats(merged);
    EXPECT_EQ(canonical_report(merged, label),
              canonical_report(single, label));
    EXPECT_EQ(canonical_csv(merged, label), canonical_csv(single, label));
  }
}

// ---- end to end with real child processes ----------------------------------

runner::ShardOptions e2e_options(int shards) {
  runner::ShardOptions o;
  o.shards = shards;
  o.runner_binary = HLSPROF_RUN_BIN;
  o.workers_per_shard = 1;
  o.quiet = true;
  return o;
}

TEST(ShardE2E, FourShardsByteIdenticalToSingleProcess) {
  const runner::BatchResult single = run_whole(kManifest);
  const runner::ShardResult sharded =
      runner::run_sharded_text(kManifest, e2e_options(4));
  EXPECT_EQ(sharded.label, "shard-suite");
  EXPECT_EQ(sharded.shards_launched, 4);
  EXPECT_EQ(sharded.shards_redispatched, 0);
  EXPECT_EQ(canonical_report(sharded.merged, sharded.label),
            canonical_report(single, sharded.label));
  EXPECT_EQ(canonical_csv(sharded.merged, sharded.label),
            canonical_csv(single, sharded.label));
}

TEST(ShardE2E, KilledShardIsRedispatchedAndOutputUnchanged) {
  const runner::BatchResult single = run_whole(kManifest);
  runner::ShardOptions o = e2e_options(3);
  std::atomic<bool> killed{false};
  o.on_spawn = [&killed](int, int pid) {
    // SIGKILL the first shard the moment it exists; its jobs must come
    // back through a re-dispatched replacement.
    if (!killed.exchange(true)) ::kill(pid_t(pid), SIGKILL);
  };
  const runner::ShardResult sharded = runner::run_sharded_text(kManifest, o);
  EXPECT_GE(sharded.shards_redispatched, 1);
  EXPECT_GE(sharded.shards_launched, 4);
  EXPECT_EQ(canonical_report(sharded.merged, sharded.label),
            canonical_report(single, sharded.label));
}

/// A shard-child wrapper: the first child the coordinator launches runs
/// `first_child` (shell, with "$@" the coordinator's arguments and $1
/// the sub-manifest), every later child is the real hlsprof-run.
/// `mkdir` is the atomic "first child" test.
std::string faulty_first_child(const std::string& name,
                               const std::string& first_child) {
  const std::string dir = fresh_dir(name);
  const std::string path = (fs::path(dir) / "runner.sh").string();
  {
    std::ofstream f(path);
    f << "#!/bin/sh\n"
      << "RUN='" << HLSPROF_RUN_BIN << "'\n"
      << "if mkdir '" << dir << "/first' 2>/dev/null; then\n"
      << first_child << "\n"
      << "fi\n"
      << "exec \"$RUN\" \"$@\"\n";
  }
  fs::permissions(path, fs::perms::owner_all);
  return path;
}

TEST(ShardE2E, RedispatchedJobIsCountedOnce) {
  // The first child runs its jobs (streaming every one of them) and then
  // exits 3. Its jobs were merged as they streamed, so it owns nothing
  // when it dies: nothing is re-dispatched, and each job is counted once.
  const runner::BatchResult single = run_whole(kManifest);
  runner::ShardOptions o = e2e_options(2);
  o.runner_binary = faulty_first_child("die-after-progress",
                                       "  \"$RUN\" \"$@\"; exit 3");
  std::map<int, int> seen;
  o.on_job_event = [&seen](int, const runner::ProgressEvent& e) {
    ++seen[e.job.index];
  };
  const runner::ShardResult sharded = runner::run_sharded_text(kManifest, o);
  EXPECT_EQ(sharded.shards_redispatched, 0);
  EXPECT_EQ(sharded.shards_launched, 2);
  ASSERT_EQ(seen.size(), single.jobs.size());
  for (const auto& [index, count] : seen) {
    EXPECT_EQ(count, 1) << "job " << index;
  }
  EXPECT_EQ(canonical_report(sharded.merged, sharded.label),
            canonical_report(single, sharded.label));
}

TEST(ShardE2E, OnlyUnstreamedJobsAreRedispatched) {
  // The first child streams exactly one job (the pipe through `head`
  // closes after it) and exits 3. That job stays merged; exactly its
  // other jobs go to the replacement shard.
  const runner::BatchResult single = run_whole(kManifest);
  runner::ShardOptions o = e2e_options(2);
  o.runner_binary = faulty_first_child(
      "stream-one-then-die", "  \"$RUN\" \"$@\" | head -n 1; exit 3");
  std::map<int, std::set<int>> by_shard;
  std::map<int, int> seen;
  o.on_job_event = [&](int shard, const runner::ProgressEvent& e) {
    by_shard[shard].insert(e.job.index);
    ++seen[e.job.index];
  };
  const runner::ShardResult sharded = runner::run_sharded_text(kManifest, o);
  EXPECT_EQ(sharded.shards_redispatched, 1);
  EXPECT_EQ(sharded.shards_launched, 3);
  ASSERT_EQ(seen.size(), single.jobs.size());
  for (const auto& [index, count] : seen) {
    EXPECT_EQ(count, 1) << "job " << index;
  }
  // Round-robin over two shards: shard 0 owned {0,2,4}, shard 1 {1,3,5}.
  // Whichever of them was the faulty one streamed one job; the
  // replacement (shard 2) ran exactly the rest of that shard's jobs.
  const std::set<int> owned[2] = {{0, 2, 4}, {1, 3, 5}};
  const int faulty = by_shard[0].size() == 1 ? 0 : 1;
  ASSERT_EQ(by_shard[faulty].size(), 1u);
  EXPECT_EQ(by_shard[1 - faulty], owned[1 - faulty]);
  std::set<int> rest = owned[faulty];
  rest.erase(*by_shard[faulty].begin());
  EXPECT_EQ(by_shard[2], rest);
  EXPECT_EQ(canonical_report(sharded.merged, sharded.label),
            canonical_report(single, sharded.label));
}

TEST(ShardE2E, ReportWithJobsNotAskedForIsRedispatched) {
  // The first child drops its `select` line, so it runs — and streams —
  // every job of the manifest, including the other shard's. The first
  // job it does not own marks it faulty: it is killed, and the jobs it
  // still owned are re-dispatched.
  const runner::BatchResult single = run_whole(kManifest);
  runner::ShardOptions o = e2e_options(2);
  o.runner_binary = faulty_first_child(
      "unasked-jobs",
      "  sed -i '/^select/d' \"$1\"; exec \"$RUN\" \"$@\"");
  const runner::ShardResult sharded = runner::run_sharded_text(kManifest, o);
  EXPECT_EQ(sharded.shards_redispatched, 1);
  EXPECT_EQ(sharded.shards_launched, 3);
  EXPECT_EQ(canonical_report(sharded.merged, sharded.label),
            canonical_report(single, sharded.label));
}

TEST(ShardE2E, MalformedLineFaultsTheShardWithByteOffset) {
  // A line on a child's stdout that is not a progress event is a fault,
  // not noise: its jobs are re-dispatched, and the reason says where the
  // line stopped parsing.
  const runner::BatchResult single = run_whole(kManifest);
  runner::ShardOptions o = e2e_options(2);
  o.quiet = false;
  std::string notes;
  o.emit_progress = [&notes](const std::string& lines) { notes += lines; };
  o.runner_binary = faulty_first_child("junk-line",
                                       "  echo '{\"event\":progress}'");
  const runner::ShardResult sharded = runner::run_sharded_text(kManifest, o);
  EXPECT_EQ(sharded.shards_redispatched, 1);
  EXPECT_EQ(sharded.shards_launched, 3);
  EXPECT_NE(notes.find("malformed line"), std::string::npos) << notes;
  EXPECT_NE(notes.find("at byte 9"), std::string::npos) << notes;
  EXPECT_EQ(canonical_report(sharded.merged, sharded.label),
            canonical_report(single, sharded.label));
}

TEST(ShardE2E, RedispatchBudgetExhaustionFails) {
  runner::ShardOptions o = e2e_options(2);
  o.max_redispatch = 2;
  o.on_spawn = [](int, int pid) { ::kill(pid_t(pid), SIGKILL); };
  EXPECT_THROW(runner::run_sharded_text(kManifest, o), Error);
}

TEST(ShardE2E, WarmSharedCacheFleetCompilesNothing) {
  const std::string cache = fresh_dir("fleet-cache");
  const std::string telemetry = fresh_dir("fleet-telemetry");

  runner::ShardOptions cold = e2e_options(3);
  cold.cache_dir = cache;
  const runner::ShardResult first =
      runner::run_sharded_text(kManifest, cold);

  runner::ShardOptions warm = e2e_options(3);
  warm.cache_dir = cache;
  warm.child_telemetry_prefix = (fs::path(telemetry) / "shard-").string();
  const runner::ShardResult second =
      runner::run_sharded_text(kManifest, warm);

  EXPECT_EQ(canonical_report(first.merged, first.label),
            canonical_report(second.merged, second.label));

  // Every warm child must report zero compiles: all six designs come
  // off the shared disk store the cold fleet populated.
  int snapshots = 0;
  for (const auto& de : fs::directory_iterator(telemetry)) {
    std::ifstream f(de.path());
    std::ostringstream ss;
    ss << f.rdbuf();
    const JsonValue snap = json_parse(ss.str());
    ++snapshots;
    const JsonValue* counters = snap.find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue* compiles = counters->find("hls.compiles");
    long long n = 0;
    if (compiles != nullptr) {
      const JsonValue* value = compiles->find("value");
      ASSERT_NE(value, nullptr);
      n = value->as_int64();
    }
    EXPECT_EQ(n, 0) << de.path();
  }
  EXPECT_EQ(snapshots, 3);
}

TEST(ShardE2E, DaemonFleetByteIdenticalToSingleProcess) {
  // Daemon mode: shards are watch submits to a running hlsprof-serve,
  // merged from the streamed events through the tool's own hook.
  const runner::BatchResult single = run_whole(kManifest);
  // sun_path caps at ~107 bytes and gtest temp dirs can be long, so the
  // socket lives under /tmp directly.
  const fs::path dir = fs::path("/tmp") / "hlsprof_shard_daemon";
  fs::remove_all(dir);
  fs::create_directories(dir);
  serve::ServerOptions options;
  options.socket_path = (dir / "d.sock").string();
  options.workers = 2;
  serve::Server server(options);
  std::thread serving([&server] { server.serve(); });

  runner::ShardOptions o = e2e_options(3);
  o.connect = {options.socket_path};
  o.submit_watch = serve::submit_shard;
  std::map<int, int> seen;
  o.on_job_event = [&seen](int, const runner::ProgressEvent& e) {
    ++seen[e.job.index];
  };
  runner::ShardResult sharded;
  EXPECT_NO_THROW(sharded = runner::run_sharded_text(kManifest, o));
  serve::Client(options.socket_path).shutdown();
  serving.join();
  fs::remove_all(dir);

  EXPECT_EQ(sharded.shards_launched, 3);
  EXPECT_EQ(sharded.shards_redispatched, 0);
  ASSERT_EQ(seen.size(), single.jobs.size());
  for (const auto& [index, count] : seen) {
    EXPECT_EQ(count, 1) << "job " << index;
  }
  EXPECT_EQ(canonical_report(sharded.merged, sharded.label),
            canonical_report(single, sharded.label));
  EXPECT_EQ(canonical_csv(sharded.merged, sharded.label),
            canonical_csv(single, sharded.label));
}

}  // namespace
}  // namespace hlsprof
