// Batch- and fleet-level live reporting, folded from each finished job's
// record (runner::JobResult, the "job" of a progress event):
//
//  * BatchLiveReporter — folds every finished job of a batch into
//    integer LiveTotals (fed from runner::BatchOptions::on_job_done) and
//    shows them on a TTY: the live timeline of the job holding the
//    display slot (a runner::JobTraceObserver attaching a
//    LiveTimelineView), or a one-line totals ticker.
//  * FleetView — the coordinator-side aggregator: one LiveTotals lane
//    per shard plus the merged fleet total, redrawn in place on a TTY.
//
// Everything here is an *observer* of the canonical pipeline: reports,
// Paraver traces, and exit codes are byte-identical with live reporting
// on or off.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "live/timeline.hpp"
#include "runner/batch.hpp"
#include "runner/progress.hpp"

namespace hlsprof::live {

enum class LiveMode { off, state, metrics };

/// "state" / "metrics" → the mode; anything else returns false.
bool parse_live_mode(const std::string& s, LiveMode* out);
const char* live_mode_name(LiveMode m);

/// Run totals folded from finished jobs. Every job counts as done; only
/// ok jobs add cycles, state cycles and bytes. All members are exact
/// integers and the shares are derived on demand, so totals from several
/// processes merge without loss (+=). jobs_total is set by the owner.
struct LiveTotals {
  std::size_t jobs_done = 0;
  std::size_t jobs_total = 0;
  std::uint64_t cycles = 0;         // summed timeline durations
  std::uint64_t thread_cycles = 0;  // summed duration * threads
  std::array<std::uint64_t, 4> state_cycles{};  // per sim::ThreadState
  std::uint64_t bytes = 0;          // DRAM bytes read + written

  void add(const runner::JobResult& job);
  LiveTotals& operator+=(const LiveTotals& o);

  /// Aggregate share of thread-cycles spent in sim::ThreadState `s`.
  double share(int s) const;
  /// Mean DRAM bytes/cycle over the finished jobs.
  double bandwidth() const;
};

/// One-line human rendition ("jobs 3/16  cycles 123456  idle 12.5% ...").
std::string format_live_summary(const LiveTotals& t);

struct ReporterOptions {
  LiveMode mode = LiveMode::off;  // what the human display shows
  /// Human display stream (normally stderr when it is a TTY); null = no
  /// display. The timeline/ticker is drawn in place with ANSI escapes.
  std::FILE* display = nullptr;
  bool color = false;
  std::size_t jobs_total = 0;
  double refresh_hz = 10.0;
  int timeline_width = 72;
};

/// Thread-safe: begin_job/end_job/on_job_done arrive concurrently from
/// batch worker threads.
class BatchLiveReporter final : public runner::JobTraceObserver {
 public:
  explicit BatchLiveReporter(ReporterOptions opts);
  ~BatchLiveReporter() override;

  /// In state mode with a display, the first job to find the display
  /// slot free gets a LiveTimelineView; every other job (and every job in
  /// any other mode) gets null, so no records are teed for it.
  trace::RecordSink* begin_job(int index, const std::string& name,
                               int num_threads) override;
  void end_job(int index) override;

  /// Fold one finished job into the totals (BatchOptions::on_job_done).
  void on_job_done(const runner::JobResult& job);

  LiveTotals totals() const;

  /// Terminate the display (newline after an in-place ticker). Call once
  /// after the batch run returns.
  void finish();

 private:
  ReporterOptions opts_;
  mutable std::mutex mu_;
  std::unique_ptr<LiveTimelineView> view_;
  int display_owner_ = -1;  // job index holding the timeline slot
  LiveTotals totals_;
  bool ticker_drawn_ = false;
  bool finished_ = false;
};

struct FleetOptions {
  /// TTY stream the per-shard frame is redrawn on in place; null = silent.
  std::FILE* display = nullptr;
  double refresh_hz = 10.0;
};

/// Coordinator-side aggregation of per-shard progress events. Not
/// thread-safe: the shard coordinator calls update() from its own thread
/// (runner::ShardOptions::on_job_event), once per job index.
class FleetView {
 public:
  FleetView(int num_shards, FleetOptions opts);

  /// Fold one of shard `shard`'s events into its lane (the event's
  /// "jobs" is the lane's total) and (throttled) redraw.
  void update(int shard, const runner::ProgressEvent& e);

  LiveTotals merged() const;
  /// Per-shard lanes plus the fleet total, as plain lines (tests).
  std::string render_frame() const;
  /// Final redraw + release of the in-place frame.
  void finish();

 private:
  void render();

  FleetOptions opts_;
  std::vector<LiveTotals> lanes_;
  int prev_frame_lines_ = 0;
  bool finished_ = false;
  std::chrono::steady_clock::time_point last_render_{};
  bool rendered_once_ = false;
};

}  // namespace hlsprof::live
