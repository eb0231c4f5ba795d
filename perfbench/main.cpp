// End-to-end job benchmark driver. One invocation runs one workload:
//
//   perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//             [--size=full|min] [--kernel-source=PATH] [--tmp=DIR]
//
// --trace=0 repeats the workload, untimed inside, for at least --seconds
// and reports the end-to-end metrics. --trace=1 alternates an untimed
// round with a traced replica round (layers.cpp) and reports the
// per-layer metrics. Either way every job is checked, the canonical
// report digest must repeat across rounds, and the last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "common/argparse.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "runner/pool.hpp"
#include "runner/report.hpp"

using namespace hlsprof;
using namespace perfbench;

namespace {

constexpr std::uint64_t kDefaultSeed = 20201;
constexpr int kSetupReps = 9;  // per round
constexpr int kMinRounds = 2;  // the digest must repeat across rounds
// Approx-tier tolerance contract (docs/PERF.md).
constexpr double kApproxCycleTol = 0.005;
constexpr double kApproxShareTol = 0.01;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  long long samples = 0;
};

/// Jobs attempted and failed, plus any run-level inconsistency.
struct Checks {
  long long attempted = 0;
  long long failed = 0;
  bool consistent = true;

  void job_failed(const runner::JobResult& j, const std::string& why) {
    ++failed;
    std::printf("  FAILED job %d %s: %s\n", j.index, j.name.c_str(),
                why.c_str());
  }
  void inconsistent(const std::string& why) {
    consistent = false;
    std::printf("  INCONSISTENT: %s\n", why.c_str());
  }
};

double median(std::vector<double> xs) { return percentile(xs, 50); }

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

/// One untimed pass over every job of the workload.
struct Round {
  std::vector<runner::JobResult> jobs;
  double jobs_wall_ms = 0;  // Batch::run, or the pool running every job
  double total_ms = 0;      // plus report writing (what the user waits for)
  double report_ms = 0;
  double utilization = 0;   // busy job time over workers x jobs wall
  double tail_idle_ms = 0;  // per worker: batch end - its last job end
  std::uint64_t report_digest = 0;
  std::uint64_t paraver_digest = 0;
};

std::string paraver_base(const std::string& tmp, const char* tag, int i) {
  return tmp + "/" + tag + std::to_string(i);
}

constexpr const char* kParaverExts[] = {".prv", ".pcf", ".row"};

// Every round writes fresh files and deletes them before the next round:
// rewriting a file truncated to zero makes ext4 start writeback on close,
// and that disk traffic is noise the user flow does not wait for.
void remove_paraver(const std::string& base) {
  for (const char* ext : kParaverExts) std::filesystem::remove(base + ext);
}

Round run_round(const Workload& w, const std::string& tmp) {
  Round round;
  runner::BatchResult result;
  // When each worker finished its last job, for the pool's tail idle time.
  std::mutex mu;
  std::map<std::thread::id, Clock::time_point> last_done;
  const auto job_done = [&mu, &last_done] {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    last_done[std::this_thread::get_id()] = now;
  };
  const auto t0 = Clock::now();
  Clock::time_point t_jobs;  // all jobs done
  if (w.single_user) {
    const int n = int(w.batch.size());
    result.jobs.resize(std::size_t(n));
    {
      runner::Pool pool(w.options.workers);
      for (int i = 0; i < n; ++i) {
        pool.submit([&w, &result, &tmp, &job_done, i] {
          result.jobs[std::size_t(i)] =
              run_single_user_job(w, i, paraver_base(tmp, "job", i));
          job_done();
        });
      }
      pool.wait();
    }
    t_jobs = Clock::now();
    round.jobs_wall_ms = ms_since(t0);
    round.total_ms = round.jobs_wall_ms;
    result.workers = w.options.workers;
    result.wall_ms = round.jobs_wall_ms;
  } else {
    runner::BatchOptions options = w.options;
    options.on_job_done = [&job_done](const runner::JobResult&) {
      job_done();
    };
    result = w.batch.run(options);
    t_jobs = Clock::now();
    const std::string prefix = tmp + "/" + w.name + ".report";
    runner::write_report(result, prefix, runner::ReportOptions{false, w.name});
    round.report_ms = ms_since(t_jobs);
    round.total_ms = ms_since(t0);
    round.jobs_wall_ms = result.wall_ms;
    std::filesystem::remove(prefix + ".json");
    std::filesystem::remove(prefix + ".csv");
  }
  for (const auto& [id, t] : last_done) {
    round.tail_idle_ms +=
        std::chrono::duration<double, std::milli>(t_jobs - t).count();
  }
  double busy = 0;
  for (const auto& j : result.jobs) busy += j.wall_ms;
  round.utilization = busy / (result.workers * round.jobs_wall_ms);
  round.report_digest = fnv1a64(runner::report_json(
      result, runner::ReportOptions{true, w.name}));
  if (w.single_user) {
    Fnv1a64 h;
    for (int i = 0; i < int(w.batch.size()); ++i) {
      const std::string base = paraver_base(tmp, "job", i);
      for (const char* ext : kParaverExts) h.str(read_file(base + ext));
      remove_paraver(base);
    }
    round.paraver_digest = h.digest();
  }
  round.jobs = std::move(result.jobs);
  return round;
}

/// Per-job checks of one round: status (the functional check ran inside
/// the job), and every approx twin within the tolerance contract of its
/// exact job. Returns the largest approx total_cycles error, in percent.
double check_round(const Workload& w, const Round& round, Checks& checks) {
  double max_err_pct = 0;
  for (const runner::JobResult& j : round.jobs) {
    ++checks.attempted;
    if (j.status != runner::JobStatus::ok) {
      checks.job_failed(j, j.error);
      continue;
    }
    const int e = w.twin_of[std::size_t(j.index)];
    if (e < 0) continue;
    const runner::JobResult& x = round.jobs[std::size_t(e)];
    if (x.status != runner::JobStatus::ok) {
      checks.job_failed(j, "exact twin failed");
      continue;
    }
    const double err = std::fabs(double(j.total_cycles) -
                                 double(x.total_cycles)) /
                       double(x.total_cycles);
    max_err_pct = std::max(max_err_pct, 100 * err);
    const double share_err = std::max(
        {std::fabs(j.state_idle - x.state_idle),
         std::fabs(j.state_running - x.state_running),
         std::fabs(j.state_critical - x.state_critical),
         std::fabs(j.state_spinning - x.state_spinning)});
    if (err > kApproxCycleTol || share_err > kApproxShareTol) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "approx twin off contract: cycles %.4f%%, "
                    "state share %.4f",
                    100 * err, share_err);
      checks.job_failed(j, buf);
    }
  }
  return max_err_pct;
}

/// A traced job must reproduce the untimed job's simulated results.
void check_traced(const runner::JobResult& traced,
                  const runner::JobResult& timed, Checks& checks) {
  ++checks.attempted;
  if (traced.status != runner::JobStatus::ok) {
    checks.job_failed(traced, "traced: " + traced.error);
    return;
  }
  if (traced.total_cycles != timed.total_cycles ||
      traced.stall_cycles != timed.stall_cycles ||
      traced.fp_ops != timed.fp_ops ||
      traced.state_idle != timed.state_idle ||
      traced.state_running != timed.state_running ||
      traced.state_critical != timed.state_critical ||
      traced.state_spinning != timed.state_spinning ||
      traced.trace_bytes != timed.trace_bytes) {
    checks.job_failed(traced, "traced run differs from the timed run");
  }
}

void check_digests(const std::vector<Round>& rounds, Checks& checks) {
  for (const Round& r : rounds) {
    if (r.report_digest != rounds[0].report_digest ||
        r.paraver_digest != rounds[0].paraver_digest) {
      checks.inconsistent("output digest differs between rounds");
      return;
    }
  }
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// ---- Trace mode aggregation ------------------------------------------------

/// Mean of a per-job quantity over the jobs that have it.
struct MeanAcc {
  double sum = 0;
  long long n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double mean() const { return n == 0 ? 0 : sum / double(n); }
};

/// A count that must be the same in every round.
struct RoundCount {
  std::vector<std::uint64_t> per_round;
  void add(std::size_t round, std::uint64_t v) {
    if (per_round.size() <= round) per_round.resize(round + 1, 0);
    per_round[round] += v;
  }
  double value() const { return per_round.empty() ? 0 : double(per_round[0]); }
};

std::vector<Metric> layer_metrics(
    const Workload& w, const std::vector<Round>& untimed,
    const std::vector<std::vector<JobTrace>>& traced,
    const std::vector<double>& traced_wall_ms,
    const std::vector<double>& twin_sim_ms, double approx_err_pct,
    Checks& checks) {
  std::map<std::string, MeanAcc> mean;
  std::map<std::string, RoundCount> count;
  // Rate metrics: numerator and denominator sums.
  std::map<std::string, std::pair<double, double>> rate;
  MeanAcc hooks;
  double job_ms = 0;
  double attributed_ms = 0;
  for (std::size_t r = 0; r < traced.size(); ++r) {
    for (const JobTrace& t : traced[r]) {
      if (t.result.status != runner::JobStatus::ok) continue;
      const bool source = w.from_source[std::size_t(t.result.index)] != 0;
      mean[source ? "frontend.compile_source_ms" : "workloads.kernel_ms"].add(
          t.kernel_ms);
      mean[t.cache_used && t.cache_hit ? "runner.cache.lookup_ms"
                                       : "hls.compile_ms"]
          .add(t.compile_ms);
      count["runner.cache.hits"].add(r, t.cache_used && t.cache_hit);
      count["runner.cache.misses"].add(r, t.cache_used && !t.cache_hit);
      mean["sim.construct_ms"].add(t.sim_construct_ms);
      if (t.profiled) mean["profiling.construct_ms"].add(t.prof_construct_ms);
      mean["workloads.bind_ms"].add(t.bind_ms);
      if (t.check_ms >= 0) mean["workloads.check_ms"].add(t.check_ms);
      const double cycles = double(t.result.total_cycles);
      const std::string tier = t.approx ? ".approx" : ".exact";
      const int threads = t.result.num_threads;
      std::vector<std::string> splits = {""};
      if (threads == 1 || threads == 8) {
        splits.push_back(tier + (threads == 1 ? ".t1" : ".t8"));
      }
      for (const std::string& s : splits) {
        mean["sim.run_ms" + s].add(t.sim_run_ms);
        auto& [c, secs] = rate["sim.mcycles_per_s" + s];
        c += cycles / 1e6;
        secs += t.sim_run_ms / 1e3;
      }
      if (t.approx && (threads == 1 || threads == 8)) {
        auto& [skipped, total] =
            rate[threads == 1 ? "sim.ff_skipped_share.t1"
                              : "sim.ff_skipped_share.t8"];
        skipped += double(t.ff_cycles_skipped);
        total += cycles;
      }
      count["sim.ff_phases"].add(r, t.ff_phases);
      count["sim.ff_model_rejects"].add(r, t.ff_model_rejects);
      count["sim.direct_dispatch"].add(r, t.direct_dispatch);
      count["sim.batched_mem"].add(r, t.batched_mem);
      count["profiling.trace_bytes"].add(r, t.result.trace_bytes);
      count["profiling.records"].add(
          r, std::uint64_t(t.result.state_records + t.result.event_records));
      count["profiling.flush_bursts"].add(r,
                                          std::uint64_t(t.result.flush_bursts));
      if (t.profiled) {
        mean["trace.decode_ms"].add(t.decode_ms);
        auto& [mb, secs] = rate["trace.decode_mb_per_s"];
        mb += double(t.decoded_bytes) / 1e6;
        secs += t.decode_ms / 1e3;
        mean["trace.timeline_finish_ms"].add(t.timeline_finish_ms);
      }
      mean["paraver.analysis_ms"].add(t.analysis_ms);
      if (t.paraver_write_ms >= 0) {
        mean["paraver.write_ms"].add(t.paraver_write_ms);
        auto& [mb, secs] = rate["paraver.write_mb_per_s"];
        mb += double(t.paraver_bytes) / 1e6;
        secs += t.paraver_write_ms / 1e3;
      }
      mean["job.teardown_ms"].add(t.teardown_ms);
      job_ms += t.job_ms;
      attributed_ms += t.attributed_ms();
      if (const double twin = twin_sim_ms[std::size_t(t.result.index)];
          twin >= 0) {
        hooks.add(t.sim_run_ms - twin);
      }
    }
  }
  for (auto& [name, c] : count) {
    for (const std::uint64_t v : c.per_round) {
      if (v != c.per_round[0]) {
        checks.inconsistent("count " + name + " differs between rounds");
        break;
      }
    }
  }
  MeanAcc report, util, tail;
  double untimed_ms = 0;
  for (const Round& u : untimed) {
    if (!w.single_user) report.add(u.report_ms);
    util.add(u.utilization);
    tail.add(u.tail_idle_ms);
    untimed_ms += u.jobs_wall_ms;
  }
  double traced_ms = 0;
  for (const double t : traced_wall_ms) traced_ms += t;

  std::vector<Metric> out;
  const auto add_mean = [&](const std::string& name) {
    const MeanAcc& m = mean[name];
    out.push_back({name, "ms", m.mean(), m.n});
  };
  const auto add_rate = [&](const std::string& name, const std::string& unit,
                            long long n) {
    const auto& [num, den] = rate[name];
    out.push_back({name, unit, den > 0 ? num / den : 0, n});
  };
  const auto add_count = [&](const std::string& name) {
    const RoundCount& c = count[name];
    out.push_back({name, "count", c.value(), (long long)c.per_round.size()});
  };
  add_mean("sim.construct_ms");
  add_mean("profiling.construct_ms");
  add_mean("workloads.kernel_ms");
  add_mean("workloads.bind_ms");
  add_mean("workloads.check_ms");
  add_mean("runner.cache.lookup_ms");
  add_mean("hls.compile_ms");
  add_count("runner.cache.hits");
  add_count("runner.cache.misses");
  add_mean("frontend.compile_source_ms");
  for (const std::string s :
       {"", ".exact.t1", ".exact.t8", ".approx.t1", ".approx.t8"}) {
    add_mean("sim.run_ms" + s);
    add_rate("sim.mcycles_per_s" + s, "Mcycles/s", mean["sim.run_ms" + s].n);
  }
  add_rate("sim.ff_skipped_share.t1", "share", mean["sim.run_ms.approx.t1"].n);
  add_rate("sim.ff_skipped_share.t8", "share", mean["sim.run_ms.approx.t8"].n);
  add_count("sim.ff_phases");
  add_count("sim.ff_model_rejects");
  add_count("sim.direct_dispatch");
  add_count("sim.batched_mem");
  out.push_back({"profiling.hooks_ms", "ms", hooks.mean(), hooks.n});
  add_count("profiling.trace_bytes");
  add_count("profiling.records");
  add_count("profiling.flush_bursts");
  add_mean("trace.decode_ms");
  add_rate("trace.decode_mb_per_s", "MB/s", mean["trace.decode_ms"].n);
  add_mean("trace.timeline_finish_ms");
  add_mean("paraver.analysis_ms");
  add_mean("paraver.write_ms");
  add_rate("paraver.write_mb_per_s", "MB/s", mean["paraver.write_ms"].n);
  add_mean("job.teardown_ms");
  out.push_back({"runner.report_ms", "ms", report.mean(), report.n});
  out.push_back({"runner.pool.utilization", "share", util.mean(), util.n});
  out.push_back({"runner.pool.tail_idle_ms", "ms", tail.mean(), tail.n});
  out.push_back({"job.unattributed_share", "share",
                 job_ms > 0 ? (job_ms - attributed_ms) / job_ms : 0,
                 mean["sim.construct_ms"].n});
  out.push_back({"tracing_overhead_pct", "%",
                 untimed_ms > 0 ? 100 * (traced_ms / untimed_ms - 1) : 0,
                 (long long)traced_wall_ms.size()});
  long long twins = 0;
  for (const int e : w.twin_of) twins += e >= 0;
  out.push_back({"approx_cycle_err_pct", "%", approx_err_pct,
                 twins * (long long)untimed.size()});
  return out;
}

// ---- Output ------------------------------------------------------------------

void print_result(const std::vector<Metric>& metrics, const Checks& checks) {
  std::printf("  %-32s %16s  %-10s %s\n", "metric", "value", "unit",
              "samples");
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f  %-10s %lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("  jobs attempted %lld, failed %lld\n", checks.attempted,
              checks.failed);
  JsonWriter json;
  json.begin_object()
      .field("correct", checks.failed == 0 && checks.consistent)
      .field("attempted", checks.attempted)
      .field("failed", checks.failed)
      .key("metrics")
      .begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name)
        .begin_object()
        .field("value", std::isfinite(m.value) ? m.value : 0.0)
        .field("unit", std::string_view(m.unit))
        .end_object();
  }
  json.end_object().end_object();
  std::printf("%s\n", json.str().c_str());
}

void print_digest(const std::vector<Round>& rounds) {
  std::printf("  digest report=%s", hex(rounds[0].report_digest).c_str());
  if (rounds[0].paraver_digest != 0) {
    std::printf(" paraver=%s", hex(rounds[0].paraver_digest).c_str());
  }
  std::printf(" (%zu rounds)\n", rounds.size());
}

/// Rebuilds the workload before each round (set-up) and keeps the result.
using SetUp = std::function<void()>;

bool has_twins(const Workload& w) {
  return std::any_of(w.twin_of.begin(), w.twin_of.end(),
                     [](int e) { return e >= 0; });
}

/// Untimed rounds only: the end-to-end metrics.
std::vector<Metric> end_to_end(const Workload& w, const SetUp& set_up,
                               const std::vector<double>& setup_s,
                               double seconds, const std::string& tmp,
                               Checks& checks) {
  std::vector<Round> rounds;
  double approx_err = 0;
  const auto t0 = Clock::now();
  while (int(rounds.size()) < kMinRounds || ms_since(t0) < seconds * 1e3) {
    if (!rounds.empty()) set_up();
    rounds.push_back(run_round(w, tmp));
    approx_err = std::max(approx_err, check_round(w, rounds.back(), checks));
    std::printf("  round %zu: %.1f ms\n", rounds.size(),
                rounds.back().total_ms);
  }
  check_digests(rounds, checks);
  print_digest(rounds);
  std::vector<double> job_ms;
  std::vector<double> round_rate;  // ok jobs per second of each round
  for (const Round& r : rounds) {
    long long ok = 0;
    for (const auto& j : r.jobs) {
      job_ms.push_back(j.wall_ms);
      ok += j.status == runner::JobStatus::ok;
    }
    round_rate.push_back(double(ok) / (r.total_ms / 1e3));
  }
  const long long n = (long long)job_ms.size();
  // Printed, not gated: on a fixed job mix the p90 is the time of one job
  // kind, and on source_to_paraver fewer than ten samples lie beyond it.
  const double p90 = percentile(job_ms, 90);
  long long beyond = 0;
  for (const double v : job_ms) beyond += v > p90;
  std::printf("  job_ms_p90: %.6f ms, %lld of %lld samples beyond it\n", p90,
              beyond, n);
  if (has_twins(w)) {
    std::printf("  approx_cycle_err_pct: %.6f %% (largest over twins)\n",
                approx_err);
  }
  return {
      {"jobs_per_s", "1/s", median(round_rate), n},
      {"job_ms_p50", "ms", percentile(job_ms, 50), n},
      {"peak_rss_mb", "MB", peak_rss_mb(), 1},
      {"setup_s", "s", median(setup_s), (long long)setup_s.size()},
  };
}

/// Untimed rounds alternating with traced rounds: the per-layer metrics.
std::vector<Metric> per_layer(const Workload& w, const SetUp& set_up,
                              double seconds, const std::string& tmp,
                              Checks& checks) {
  std::vector<Round> rounds;
  std::vector<std::vector<JobTrace>> traced;
  std::vector<double> traced_wall_ms;
  double approx_err = 0;
  const int n = int(w.batch.size());
  const auto t_start = Clock::now();
  while (int(rounds.size()) < kMinRounds ||
         ms_since(t_start) < seconds * 1e3) {
    if (!rounds.empty()) set_up();
    rounds.push_back(run_round(w, tmp));
    approx_err = std::max(approx_err, check_round(w, rounds.back(), checks));
    std::vector<JobTrace> tr(static_cast<std::size_t>(n));
    const auto t0 = Clock::now();
    {
      // The single-user path compiles without the cache, as omp_source does.
      runner::DesignCache cache;
      runner::Pool pool(w.options.workers);
      for (int i = 0; i < n; ++i) {
        pool.submit([&w, &tr, &cache, &tmp, i] {
          tr[std::size_t(i)] =
              w.single_user
                  ? run_traced_job(w, i, nullptr,
                                   paraver_base(tmp, "traced", i))
                  : run_traced_job(w, i, &cache, "");
        });
      }
      pool.wait();
    }
    traced_wall_ms.push_back(ms_since(t0));
    if (w.single_user) {
      for (int i = 0; i < n; ++i) remove_paraver(paraver_base(tmp, "traced", i));
    }
    std::printf("  round %zu: untimed %.1f ms, traced %.1f ms\n",
                rounds.size(), rounds.back().jobs_wall_ms,
                traced_wall_ms.back());
    for (int i = 0; i < n; ++i) {
      check_traced(tr[std::size_t(i)].result,
                   rounds.back().jobs[std::size_t(i)], checks);
    }
    traced.push_back(std::move(tr));
  }
  check_digests(rounds, checks);
  print_digest(rounds);

  // Profiling-hook cost: each exact profiled job again without the unit
  // (-1: no twin run).
  std::vector<double> twin_sim_ms(static_cast<std::size_t>(n), -1.0);
  {
    runner::DesignCache cache;
    runner::Pool pool(w.options.workers);
    for (int i = 0; i < n; ++i) {
      const core::RunOptions& opts = w.batch.spec(i).run;
      if (opts.sim.fast_forward || !opts.enable_profiling) continue;
      pool.submit([&w, &twin_sim_ms, &cache, i] {
        try {
          twin_sim_ms[std::size_t(i)] = sim_ms_without_profiling(w, i, cache);
        } catch (const std::exception&) {
          // The job itself already failed its checks above.
        }
      });
    }
    pool.wait();
  }
  return layer_metrics(w, rounds, traced, traced_wall_ms, twin_sim_ms,
                       approx_err, checks);
}

int run(int argc, char** argv) {
  std::string workload;
  long long seed = (long long)kDefaultSeed;
  long long seconds = 30;
  long long trace = 0;
  std::string size_name = "full";
  std::string kernel_source = "examples/kernels/matmul.c";
  std::string tmp = ".perfbench-tmp";
  ArgParser args;
  args.option("workload", &workload,
              "small_sweep | paper_ladder | source_to_paraver")
      .option_int("seed", &seed, "input seed (default 20201)")
      .option_int("seconds", &seconds, "minimum measured time per run")
      .option_int("trace", &trace, "0: end-to-end metrics, 1: per-layer")
      .option("size", &size_name, "full | min (the benchmark's own tests)")
      .option("kernel-source", &kernel_source, "OpenMP-C matmul source")
      .option("tmp", &tmp, "scratch directory for reports and Paraver files");
  if (!args.parse(argc, argv) || workload.empty() || seed < 0 ||
      seconds < 1 || (trace != 0 && trace != 1) ||
      (size_name != "full" && size_name != "min")) {
    std::fprintf(stderr, "%s\nusage: perfbench --workload=NAME [flags]\n%s",
                 args.error().c_str(), args.help_text().c_str());
    return 2;
  }
  const Size size = size_name == "min" ? Size::min : Size::full;
  std::filesystem::create_directories(tmp);

  // Set-up: build the job list from the seed, several times before every
  // round (as each `hlsprof-run` invocation parses its manifests), so the
  // set-up samples span the whole run like the job samples do.
  std::vector<double> setup_s;
  Workload w;
  const SetUp set_up = [&] {
    for (int i = 0; i < kSetupReps; ++i) {
      const auto t0 = Clock::now();
      Workload built =
          make_workload(workload, std::uint64_t(seed), size, kernel_source);
      setup_s.push_back(ms_since(t0) / 1e3);
      w = std::move(built);
    }
  };
  set_up();
  std::printf("perfbench %s seed=%lld size=%s trace=%lld jobs=%zu workers=%d\n",
              workload.c_str(), seed, size_name.c_str(), trace,
              w.batch.size(), w.options.workers);

  Checks checks;
  const auto t0 = Clock::now();
  const std::vector<Metric> metrics =
      trace == 0
          ? end_to_end(w, set_up, setup_s, double(seconds), tmp, checks)
          : per_layer(w, set_up, double(seconds), tmp, checks);
  std::printf("  measured %.3f s\n", ms_since(t0) / 1e3);
  print_result(metrics, checks);
  std::filesystem::remove_all(tmp);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
