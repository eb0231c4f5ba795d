// Shared declarations of the end-to-end job benchmark (perfbench/README.md).
//
// A workload is a list of runner::JobSpecs. Batch workloads run it the way
// `hlsprof-run` does (runner::Batch::run + runner::write_report); the
// single-user workload runs each job the way examples/omp_source.cpp does
// (frontend → core::compile → core::Session::run → paraver::write_paraver)
// on a runner::Pool of the same size. The traced replica
// (layers.cpp) repeats one job through each layer's public calls with a
// timer around every call; no code inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/batch.hpp"
#include "runner/design_cache.hpp"
#include "runner/job.hpp"

namespace perfbench {

using namespace hlsprof;

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

enum class Size { full, min };

struct Workload {
  std::string name;
  /// Every job, in report order. Batch workloads run it with Batch::run.
  runner::Batch batch;
  runner::BatchOptions options;
  /// Per job: index of the exact job this one is the approx twin of, or -1.
  std::vector<int> twin_of;
  /// Per job: the kernel factory is frontend::compile_source.
  std::vector<char> from_source;
  /// Jobs take the omp_source path and write Paraver files.
  bool single_user = false;
};

/// Whole contents of a file; throws hlsprof::Error if it cannot be opened.
std::string read_file(const std::string& path);

/// Build a workload from its seed: generate the manifests (or read the
/// kernel source) and parse them into the job list. Throws on an unknown
/// name or an unreadable source file.
Workload make_workload(const std::string& name, std::uint64_t seed, Size size,
                       const std::string& kernel_source_path);

/// The seed job `index` runs with — the one runner::Batch::run derives.
std::uint64_t job_seed(const Workload& w, int index);

/// Report fields of one run, as runner::Batch fills them.
void fill_result(runner::JobResult& out, const core::Session& session,
                 const core::RunResult& r);

/// One job of the single-user path, untimed inside: kernel, compile,
/// session, bind, run, check, report fill, write_paraver to
/// `paraver_base`.{prv,pcf,row}. Failures are captured in the result.
runner::JobResult run_single_user_job(const Workload& w, int index,
                                      const std::string& paraver_base);

/// Host time per layer of one traced job, in ms, plus the job's outputs.
struct JobTrace {
  runner::JobResult result;
  bool approx = false;
  bool profiled = false;
  double job_ms = 0;
  double kernel_ms = 0;   // JobSpec::kernel (compile_source if from_source)
  double compile_ms = 0;  // DesignCache::get_or_compile, or core::compile
  bool cache_used = false;
  bool cache_hit = false;
  double sim_construct_ms = 0;
  double prof_construct_ms = 0;
  double bind_ms = 0;
  double sim_run_ms = 0;  // Simulator::run minus time inside the flush sink
  double decode_ms = 0;   // StreamingDecoder::on_burst + finish
  double timeline_finish_ms = 0;
  double analysis_ms = 0;  // report fill (paraver::summarize_states)
  double check_ms = -1;    // -1: the job has no check
  double paraver_write_ms = -1;  // -1: the job writes no Paraver files
  double teardown_ms = 0;
  std::uint64_t decoded_bytes = 0;
  std::uint64_t paraver_bytes = 0;
  std::uint64_t ff_phases = 0;
  std::uint64_t ff_cycles_skipped = 0;
  std::uint64_t ff_model_rejects = 0;
  std::uint64_t direct_dispatch = 0;
  std::uint64_t batched_mem = 0;

  double attributed_ms() const;
};

/// Repeat job `index` layer by layer, in the order runner::run_job and
/// core::Session::run call them. `cache` null: compile with core::compile
/// (single-user path). Non-empty `paraver_base`: also write Paraver.
JobTrace run_traced_job(const Workload& w, int index,
                        runner::DesignCache* cache,
                        const std::string& paraver_base);

/// Host ms of Simulator::run for job `index` with profiling disabled —
/// the twin that isolates the profiling unit's hook cost.
double sim_ms_without_profiling(const Workload& w, int index,
                                runner::DesignCache& cache);

}  // namespace perfbench
