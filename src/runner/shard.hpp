// Multi-process shard coordinator for the batch runner. Splits a
// manifest's expanded job list into per-shard sub-manifests (via the
// `select` control key), runs each shard in a child `hlsprof-run`
// process — or submits it to a running hlsprof-serve daemon — and
// merges every job the moment its shard streams it, into one
// BatchResult whose report bytes are identical to a single-process run
// of the same manifest:
//
//  - a shard is a stream of progress events (progress.hpp), each
//    carrying one canonical job record: the child's `--progress` stdout
//    in process mode, the daemon's watch stream in daemon mode;
//  - every selected job keeps its original index and index-derived
//    seed, so each shard produces the exact slice a full run would;
//  - merged cache counters are rebased (rebase_cache_stats), the same
//    deterministic accounting the serving daemon reports, equal to a
//    cold single-process run's real counters.
//
// Ownership and faults: every outstanding job index is owned by exactly
// one live shard. A shard that streams a job it does not own (not its
// own, or already merged) or a line that is not a progress event is
// faulty: it is killed and its still-owned jobs are re-dispatched to a
// fresh shard. A shard that exits (any status, any signal) re-dispatches
// only the jobs it still owns — the ones it never streamed. See
// docs/SHARDING.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/batch.hpp"
#include "runner/progress.hpp"

namespace hlsprof::runner {

struct ShardOptions {
  /// Number of shards to launch for the initial split (>= 1).
  int shards = 2;

  /// Re-dispatch budget (replacement shards); 0 = 2 * shards.
  /// Exhausting it fails the run rather than looping on a persistent
  /// fault.
  int max_redispatch = 0;

  /// Non-empty: daemon mode. Shards are submitted to these
  /// hlsprof-serve sockets round-robin instead of spawning child
  /// processes; `submit_watch` must then be set.
  std::vector<std::string> connect;
  /// Daemon submission hook (serve::submit_shard): watch-submit
  /// `manifest_text` to the daemon at `socket` as `client_name`, call
  /// `on_event` with each progress event as it arrives, and return when
  /// the daemon answers; throw hlsprof::Error (or serve::ConnectError)
  /// on failure. Injected by the tool layer so this library does not
  /// depend on serve.
  std::function<void(
      const std::string& socket, const std::string& manifest_text,
      const std::string& client_name,
      const std::function<void(const ProgressEvent&)>& on_event)>
      submit_watch;

  /// Process mode: the hlsprof-run binary to exec for each shard.
  /// Empty = this process's own image (/proc/self/exe).
  std::string runner_binary;

  /// Forwarded to every shard so the fleet shares one on-disk design
  /// store (the store is multi-process safe by construction). Empty =
  /// whatever the manifest says.
  std::string cache_dir;
  std::uint64_t cache_max_bytes = 0;

  /// Worker threads per shard child; 0 = hardware concurrency divided
  /// by the shard count (at least 1), so the fleet does not oversubscribe.
  int workers_per_shard = 0;

  /// >= 0: override the manifest's batch seed (like --seed).
  long long seed_override = -1;

  /// Force `approx_trace = on` in every sub-manifest (like the CLI's
  /// --approx-trace): shards run in analytical fast-forward mode with
  /// functional verification disabled.
  bool approx_trace = false;

  /// Non-empty, process mode: each shard child writes its telemetry
  /// snapshot to `<prefix><shard-id>.json` (--telemetry-out), so fleet
  /// behaviour — e.g. zero hls.compiles across a warm shared-cache run —
  /// is observable per child. Telemetry never touches report bytes.
  std::string child_telemetry_prefix;

  /// Suppress per-job progress lines on stderr.
  bool quiet = false;

  /// Progress sink replacing the default stderr writer: each call hands
  /// over one batch of already-newline-terminated progress lines
  /// (possibly several at once — the coordinator batches per event-loop
  /// drain and writes each batch atomically). Called on the coordinator
  /// thread. Null = write batches to stderr.
  std::function<void(const std::string& lines)> emit_progress;

  /// Called on the coordinator thread with each progress event as its
  /// job merges: exactly once per job index, from the shard that owned
  /// it. The fleet live view's feed.
  std::function<void(int shard, const ProgressEvent& event)> on_job_event;

  /// Non-empty, process mode: every shard child additionally writes a
  /// Chrome/Perfetto trace of its own telemetry, and the coordinator
  /// merges all child traces plus its own into ONE file at this path —
  /// per-shard tracks namespaced ("shard-K"), child clocks rebased onto
  /// the coordinator's telemetry epoch so the fleet timeline lines up.
  /// Ignored in daemon mode (daemons outlive the submission; their
  /// telemetry belongs to the daemon, not the run).
  std::string chrome_trace_out;

  /// Test hook, process mode: called right after each fork with the
  /// shard id and child pid (e.g. to SIGKILL a shard mid-run and prove
  /// re-dispatch). Called on the coordinator thread.
  std::function<void(int shard, int pid)> on_spawn;
};

struct ShardResult {
  /// Jobs in original index order, cache counters rebased. workers /
  /// wall_ms describe the fleet (total child workers, coordinator
  /// wall) and never reach canonical report bytes.
  BatchResult merged;
  std::string label;       // from the manifest
  std::string out_prefix;  // from the manifest (CLI may override)
  int shards_launched = 0;      // including re-dispatched ones
  int shards_redispatched = 0;  // dead-shard replacements
};

/// Run `manifest_text` sharded. Throws hlsprof::Error on coordinator
/// failures (unrunnable binary, re-dispatch budget exhausted); per-job
/// failures land in the merged result like any batch run.
ShardResult run_sharded_text(const std::string& manifest_text,
                             const ShardOptions& options);

/// load_manifest + run_sharded_text.
ShardResult run_sharded(const std::string& manifest_path,
                        const ShardOptions& options);

// ---- building blocks (exposed for tests) -------------------------------

/// Partition `universe` (ascending job indices) round-robin into
/// `shards` disjoint, covering index lists: the k-th index goes to list
/// k % shards, which balances manifests that order jobs by size. Lists
/// may be empty when there are fewer jobs than shards (empty shards are
/// simply not launched).
std::vector<std::vector<int>> split_indices(const std::vector<int>& universe,
                                            int shards);

/// Rewrite manifest text for one shard: drop any existing `select`
/// (its values are original indices — the shard's own selection
/// replaces, never composes with, a previous one), drop `out` (shards
/// must not clobber the user's report files), drop `seed` when
/// `seed_override` >= 0, then append the shard's `select` line (and
/// `seed`, and `approx_trace = on` when `approx_trace` is set). Indices
/// must be non-empty and ascending.
std::string make_sub_manifest(const std::string& manifest_text,
                              const std::vector<int>& indices,
                              long long seed_override = -1,
                              bool approx_trace = false);

}  // namespace hlsprof::runner
