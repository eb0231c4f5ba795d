#include "live/reporter.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace hlsprof::live {

bool parse_live_mode(const std::string& s, LiveMode* out) {
  if (s == "state") {
    *out = LiveMode::state;
    return true;
  }
  if (s == "metrics") {
    *out = LiveMode::metrics;
    return true;
  }
  return false;
}

const char* live_mode_name(LiveMode m) {
  switch (m) {
    case LiveMode::off: return "off";
    case LiveMode::state: return "state";
    case LiveMode::metrics: return "metrics";
  }
  return "?";
}

void LiveTotals::add(const runner::JobResult& job) {
  ++jobs_done;
  if (job.status != runner::JobStatus::ok) return;
  cycles += job.timeline_cycles;
  thread_cycles +=
      job.timeline_cycles * std::uint64_t(std::max(job.num_threads, 0));
  for (std::size_t s = 0; s < state_cycles.size(); ++s) {
    state_cycles[s] += job.state_cycles[s];
  }
  bytes += job.trace_mem_bytes;
}

LiveTotals& LiveTotals::operator+=(const LiveTotals& o) {
  jobs_done += o.jobs_done;
  jobs_total += o.jobs_total;
  cycles += o.cycles;
  thread_cycles += o.thread_cycles;
  for (std::size_t s = 0; s < state_cycles.size(); ++s) {
    state_cycles[s] += o.state_cycles[s];
  }
  bytes += o.bytes;
  return *this;
}

double LiveTotals::share(int s) const {
  if (thread_cycles == 0) return 0.0;
  return double(state_cycles[std::size_t(s)]) / double(thread_cycles);
}

double LiveTotals::bandwidth() const {
  return cycles == 0 ? 0.0 : double(bytes) / double(cycles);
}

std::string format_live_summary(const LiveTotals& t) {
  return strf(
      "jobs %zu/%zu  cycles %llu  idle %.1f%% run %.1f%% crit %.1f%% "
      "spin %.1f%%  bw %.3f B/cyc",
      t.jobs_done, t.jobs_total, static_cast<unsigned long long>(t.cycles),
      t.share(0) * 100.0, t.share(1) * 100.0, t.share(2) * 100.0,
      t.share(3) * 100.0, t.bandwidth());
}

// ---------------------------------------------------------------------------
// BatchLiveReporter

BatchLiveReporter::BatchLiveReporter(ReporterOptions opts)
    : opts_(std::move(opts)) {
  totals_.jobs_total = opts_.jobs_total;
}

BatchLiveReporter::~BatchLiveReporter() { finish(); }

trace::RecordSink* BatchLiveReporter::begin_job(int index,
                                                const std::string& name,
                                                int num_threads) {
  std::lock_guard<std::mutex> lock(mu_);
  if (opts_.mode != LiveMode::state || opts_.display == nullptr ||
      display_owner_ >= 0) {
    return nullptr;
  }
  TimelineOptions topts;
  topts.width = opts_.timeline_width;
  topts.refresh_hz = opts_.refresh_hz;
  topts.color = opts_.color;
  topts.out = opts_.display;
  topts.label = name;
  view_ = std::make_unique<LiveTimelineView>(num_threads, std::move(topts));
  display_owner_ = index;
  return view_.get();
}

void BatchLiveReporter::end_job(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (display_owner_ != index) return;
  view_->finish();
  view_.reset();
  display_owner_ = -1;
}

void BatchLiveReporter::on_job_done(const runner::JobResult& job) {
  std::lock_guard<std::mutex> lock(mu_);
  totals_.add(job);
  if (opts_.display != nullptr && opts_.mode == LiveMode::metrics) {
    const std::string line = "\r\x1b[2K" + format_live_summary(totals_);
    std::fwrite(line.data(), 1, line.size(), opts_.display);
    std::fflush(opts_.display);
    ticker_drawn_ = true;
  }
}

LiveTotals BatchLiveReporter::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

void BatchLiveReporter::finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;
  finished_ = true;
  if (ticker_drawn_ && opts_.display != nullptr) {
    std::fputc('\n', opts_.display);
    std::fflush(opts_.display);
  }
}

// ---------------------------------------------------------------------------
// FleetView

FleetView::FleetView(int num_shards, FleetOptions opts)
    : opts_(opts), lanes_(std::size_t(std::max(num_shards, 0))) {}

void FleetView::update(int shard, const runner::ProgressEvent& e) {
  if (shard < 0 || finished_) return;
  if (std::size_t(shard) >= lanes_.size()) {
    // Re-dispatched shards get ids beyond the initial split; give them
    // their own lane rather than dropping their totals.
    lanes_.resize(std::size_t(shard) + 1);
  }
  LiveTotals& lane = lanes_[std::size_t(shard)];
  lane.jobs_total =
      std::max(lane.jobs_total, std::size_t(std::max(e.jobs, 0)));
  lane.add(e.job);
  if (opts_.display == nullptr) return;
  const auto now = std::chrono::steady_clock::now();
  if (rendered_once_) {
    const double min_gap = opts_.refresh_hz > 0 ? 1.0 / opts_.refresh_hz : 0.0;
    const std::chrono::duration<double> since = now - last_render_;
    if (since.count() < min_gap) return;
  }
  last_render_ = now;
  render();
}

LiveTotals FleetView::merged() const {
  LiveTotals m;
  for (const LiveTotals& lane : lanes_) m += lane;
  return m;
}

std::string FleetView::render_frame() const {
  std::string out;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    out += strf("shard %-2zu  ", i);
    out += lanes_[i].jobs_done > 0 ? format_live_summary(lanes_[i])
                                   : std::string("(waiting)");
    out += "\n";
  }
  out += "fleet     " + format_live_summary(merged()) + "\n";
  return out;
}

void FleetView::render() {
  const std::string frame = render_frame();
  std::string out;
  if (rendered_once_ && prev_frame_lines_ > 0) {
    out += strf("\x1b[%dA", prev_frame_lines_);
  }
  int lines = 0;
  std::size_t pos = 0;
  while (pos < frame.size()) {
    const std::size_t nl = frame.find('\n', pos);
    out += "\x1b[2K";
    out += frame.substr(pos, nl - pos + 1);
    ++lines;
    pos = nl + 1;
  }
  prev_frame_lines_ = lines;
  std::fwrite(out.data(), 1, out.size(), opts_.display);
  std::fflush(opts_.display);
  rendered_once_ = true;
}

void FleetView::finish() {
  if (finished_) return;
  finished_ = true;
  if (opts_.display != nullptr && rendered_once_) render();
}

}  // namespace hlsprof::live
