// Per-hardware-thread execution of a compiled design. The interpreter is
// both *functional* (it computes the kernel's actual values against the
// simulated DRAM/BRAM contents) and *timed*: pipelined loops advance time
// by their scheduled initiation interval plus dynamic stalls whenever a
// variable-latency operation overruns the scheduler's assumed minimum
// (paper §III-B); sequential regions charge per-operator latencies.
//
// The interpreter is a resumable state machine: `resume()` runs until the
// thread needs a shared resource (external memory, the semaphore, a
// barrier) and returns the corresponding Action; the simulator's event
// loop commits actions in global time order and feeds the result back.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "hls/design.hpp"
#include "sim/fastforward.hpp"
#include "sim/hooks.hpp"
#include "sim/memory.hpp"
#include "sim/params.hpp"
#include "sim/rtval.hpp"

namespace hlsprof::sim {

/// Runtime binding for one kernel argument.
struct ArgValue {
  bool is_pointer = false;
  addr_t base = 0;       // device base address (pointer args)
  std::int64_t i = 0;    // scalar integer args
  double f = 0.0;        // scalar float args
};

/// A shared-resource interaction the thread needs the simulator to commit.
struct Action {
  enum class Kind : std::uint8_t {
    mem,       // external memory request
    acquire,   // critical-section entry (semaphore request)
    release,   // critical-section exit
    barrier,   // OpenMP barrier arrival
    finished,  // thread completed the kernel
  };
  Kind kind = Kind::finished;
  cycle_t time = 0;  // issue/request cycle

  // kind == mem (the thread keeps the address: ThreadInterp::issue_mem):
  std::uint32_t bytes = 0;
  bool is_write = false;
  /// Preloader DMA burst (paper Fig. 1): serviced as back-to-back line
  /// requests on the preloader's own bus master instead of one
  /// element-sized request on the thread's port.
  bool is_preload = false;

  // kind == acquire/release:
  int lock_id = 0;
  // kind == barrier:
  int barrier_id = 0;
};

/// The livelock guard (SimParams::max_cycles), shared by the event loop
/// and the interpreter's inline commits: throws when thread `tid`'s next
/// action at cycle `t` lies past `limit`.
[[noreturn]] void cycle_limit_exceeded(thread_id_t tid, cycle_t t,
                                       cycle_t limit);
inline void check_cycle_limit(thread_id_t tid, cycle_t t, cycle_t limit) {
  if (t > limit) cycle_limit_exceeded(tid, t, limit);
}

class ThreadInterp {
 public:
  ThreadInterp(const hls::Design& design, const std::vector<ArgValue>& args,
               thread_id_t tid, ExternalMemory& mem, const SimParams& params,
               SimHooks* hooks);

  /// Begin execution at cycle `t` (the host started this thread).
  void start(cycle_t t);

  /// Run until the next Action. Must not be called while an Action is
  /// outstanding (feed the response first).
  Action resume();

  /// Responses to the previously returned action. `issue_mem` is the
  /// event loop reaching a mem Action's turn in global order: the thread
  /// commits the request itself, through the same code as its inline
  /// batched requests.
  void issue_mem(const Action& a);
  void lock_granted(cycle_t t);
  void release_done(cycle_t t);
  void barrier_released(cycle_t t);

  /// Batched memory streams (fast path): until the next `resume` returns,
  /// the interpreter may commit external-memory requests whose issue cycle
  /// is *strictly* below `horizon` directly against the memory model —
  /// bank/bus state advances and `on_mem`/`on_stall` hooks fire exactly as
  /// if each request had taken an Action round-trip through the event
  /// loop. The simulator sets the horizon to the earliest other pending
  /// event before every resume (kNoCycle when no other thread has one);
  /// 0 disables batching (the reference event loop never raises it).
  void set_mem_horizon(cycle_t horizon) { mem_horizon_ = horizon; }
  /// External-memory requests committed inline by the batching fast path.
  long long batched_mem() const { return batched_mem_; }
  /// Fast-forward statistics (all zero unless SimParams::fast_forward).
  const ff::FfStats& ff_stats() const { return ff_stats_; }

  cycle_t time() const { return time_; }
  bool finished() const { return finished_; }

  // Dynamic per-thread statistics.
  cycle_t stall_cycles() const { return stall_cycles_; }
  long long int_ops() const { return total_int_ops_; }
  long long fp_ops() const { return total_fp_ops_; }
  long long ext_loads() const { return ext_loads_; }
  long long ext_stores() const { return ext_stores_; }

 private:
  struct Frame {
    enum class Kind : std::uint8_t { region, loop, critical, concurrent };
    Kind kind = Kind::region;

    // region
    const ir::Region* region = nullptr;
    std::size_t idx = 0;

    // loop
    const ir::LoopStmt* loop = nullptr;
    const hls::LoopInfo* linfo = nullptr;
    bool inited = false;
    bool in_iteration = false;
    bool first_iter = true;
    std::int64_t iv_cur = 0;
    std::int64_t iv_init = 0;  // initial induction value (instance start)
    std::int64_t bound_v = 0;
    std::int64_t step_v = 0;
    cycle_t iter_base = 0;
    cycle_t iter_stall = 0;
    cycle_t loop_end = 0;
    cycle_t entry_time = 0;

    // critical
    const ir::CriticalStmt* crit = nullptr;
    bool crit_body_done = false;

    // concurrent
    const ir::ConcurrentStmt* con = nullptr;
    // External-memory branch first; points into `con_order_` (stable
    // unordered_map storage) so pushing a concurrent frame never copies
    // the order vector.
    const std::vector<std::size_t>* branch_order = nullptr;
    std::size_t branch_pos = 0;
    cycle_t con_t0 = 0;
    cycle_t con_max_end = 0;
  };

  enum class Suspend : std::uint8_t {
    none,
    mem,       // waiting for issue_mem
    acquire,   // waiting for lock_granted
    release,   // waiting for release_done
    barrier,   // waiting for barrier_released
  };

  // -- state-machine driver --
  bool step(Action& out);  // returns true if an action was produced
  /// Executes one op. An external-memory op either commits inline (below
  /// the batching horizon) or returns its Action.
  bool exec_op(ir::ValueId id, Action& out);
  /// The one commit of an external-memory request (pending_op_/addr_/
  /// issue_): time it against the shared DRAM model (a preload as a
  /// burst), fire on_mem, apply the stall and the data movement.
  MemTiming commit_mem(std::uint32_t bytes, bool is_write, bool is_preload);
  void apply_mem(const MemTiming& timing);  // commit_mem's tail
  /// Issue cycle of external op `id` in pipelined loop frame `pf`: its
  /// scheduled offset in the iteration, shifted by the stalls the
  /// iteration has accumulated so far.
  cycle_t vlo_issue(const Frame& pf, ir::ValueId id) const {
    return pf.iter_base + cycle_t(op_start_[static_cast<std::size_t>(id)]) +
           pf.iter_stall;
  }
  // Loop-frame bookkeeping, shared by step() and the batched executor.
  void finish_iteration(Frame& f);       // drain bound + induction step
  void start_pipelined_iteration(Frame& f);  // next initiation's base
  bool exit_if_done(Frame& f);  // last iteration ran: apply exit timing
  void begin_iteration_or_exit(Frame& f);
  void flush_compute(cycle_t now);
  const std::vector<std::size_t>& concurrent_order(
      const ir::ConcurrentStmt& con);
  /// Batched executor for pipelined loops whose body is straight-line ops
  /// (no nested control flow): runs iterations in a tight loop without
  /// per-statement `step()` dispatch or per-iteration frame churn,
  /// committing memory requests inline while they stay below the batching
  /// horizon and falling back to the generic machinery the moment one
  /// reaches it. Only entered when batching is active (fast path); the
  /// reference event loop never sees it because it must suspend at every
  /// memory action. `loop_at` indexes the loop frame; frames_.back() is
  /// its body region frame. Returns true if an Action was produced.
  bool run_batched_iterations(std::size_t loop_at,
                              const std::vector<ir::ValueId>& ids,
                              Action& out);
  /// The batched executor returns an Action (`suspended`): remember its
  /// body so the next resume() re-enters it mid-iteration. Approx mode
  /// re-enters only at iteration boundaries, where ff::LoopPhase tracks
  /// iterations from their start.
  bool suspend_batched(const std::vector<ir::ValueId>& ids, bool suspended) {
    if (suspended && !ff_on_) batched_resume_ = &ids;
    return suspended;
  }
  /// Memoized straight-line decode of a loop body: the body's ops in
  /// order, or nullptr if the region contains non-op statements.
  const std::vector<ir::ValueId>* simple_body(const ir::Region& r);
  /// Fast-forward phase tracker for `lf`'s loop (approx mode only):
  /// memoized eligibility + census; nullptr when the loop cannot
  /// fast-forward (no external ops, preloads in the body, or the
  /// analytical model rejected it).
  ff::LoopPhase* ff_phase(const Frame& lf, const std::vector<ir::ValueId>& ids);
  /// The phase just confirmed steady state: jump over the remaining
  /// iterations (minus the margin), synthesizing the aggregate effects
  /// of the skipped span. Called at a clean iteration boundary —
  /// lf.iter_base is the start of the next, not-yet-executed iteration.
  void ff_try_jump(Frame& lf, ff::LoopPhase& ph);
  void ff_gate_model(const Frame& lf, ff::LoopPhase& ph);
  /// Re-open the DRAM rows the skipped span would have left open. Row
  /// interleaving means a multi-row walk leaves its last `num_banks`
  /// rows open in distinct banks, and overlapping streams overwrite each
  /// other in access order — so project per stream the last-touch
  /// iteration of each trailing row and replay the opens oldest-first.
  void ff_project_rows(const ff::LoopPhase& ph, std::int64_t skip);

  // -- evaluation helpers --
  // `vals_` caches values_.data(): the per-op operand loads in eval_pure
  // are the interpreter's hottest reads, and indexing the raw pointer
  // avoids re-reading the vector header on every access.
  RtVal& val(ir::ValueId v) { return vals_[static_cast<std::size_t>(v)]; }
  std::int64_t scalar_i(ir::ValueId v) {
    return vals_[static_cast<std::size_t>(v)].i[0];
  }
  // Unchecked op-arena lookup via the `ops_` pointer cached in the
  // constructor. The verifier has already proven every ValueId reachable
  // from the region tree in range, and `Kernel::op`'s out-of-line bounds
  // check showed up hot (one call per executed op).
  const ir::Op& op_at(ir::ValueId v) const {
    return ops_[static_cast<std::size_t>(v)];
  }
  void eval_pure(const ir::Op& op, ir::ValueId id);
  addr_t ext_addr(const ir::Op& op, std::int64_t index) const;
  void do_local_load(const ir::Op& op, ir::ValueId id);
  void do_local_store(const ir::Op& op);
  bool branch_has_ext(const ir::Region& r) const;

  /// Innermost active pipelined-loop frame, or nullptr (sequential mode).
  Frame* pipeline_frame();

  const hls::Design& d_;
  const ir::Kernel& k_;
  const std::vector<ArgValue>& args_;
  thread_id_t tid_;
  ExternalMemory& mem_;
  const SimParams& params_;
  SimHooks* hooks_;  // may be null

  std::vector<Frame> frames_;
  std::vector<RtVal> values_;
  std::vector<RtVal> vars_;
  RtVal* vals_ = nullptr;  // values_.data(), hoisted for the op hot path
  RtVal* varp_ = nullptr;  // vars_.data()
  const ir::Op* ops_ = nullptr;       // k_.ops.data()
  const int* op_start_ = nullptr;     // d_.op_start.data()
  const int* op_latency_ = nullptr;   // d_.op_latency.data()
  std::vector<std::vector<double>> locals_;
  /// Memoized external-memory-first branch order per concurrent region —
  /// computed once instead of re-walking the region tree every execution
  /// (double-buffered kernels enter the same concurrent region per tile).
  std::unordered_map<const ir::ConcurrentStmt*, std::vector<std::size_t>>
      con_order_;
  /// Memoized straight-line decode per loop-body region (see simple_body).
  std::unordered_map<const ir::Region*, std::vector<ir::ValueId>>
      simple_body_;
  /// Fast-forward detection state per pipelined loop (approx mode only;
  /// empty otherwise). Profiles persist across loop instances.
  std::unordered_map<const ir::LoopStmt*, ff::LoopPhase> ff_phases_;
  ff::FfStats ff_stats_;
  bool ff_on_ = false;  // params.fast_forward, hoisted for the hot loop

  cycle_t time_ = 0;
  bool started_ = false;
  bool finished_ = false;

  Suspend suspend_ = Suspend::none;
  const ir::CriticalStmt* pending_crit_ = nullptr;
  ir::ValueId pending_op_ = ir::kNoValue;
  addr_t pending_addr_ = 0;
  cycle_t pending_issue_ = 0;
  std::int64_t pending_dst_index_ = 0;  // preload destination
  std::int64_t pending_count_ = 0;      // preload element count
  int active_pipe_ = -1;  // index into frames_ of active pipelined loop
  /// Body of the batched run suspended on a memory request (see
  /// suspend_batched); nullptr otherwise.
  const std::vector<ir::ValueId>* batched_resume_ = nullptr;
  cycle_t mem_horizon_ = 0;     // batching horizon; 0 = disabled
  long long batched_mem_ = 0;   // inline-committed memory requests

  // statistics + compute-hook batching
  cycle_t stall_cycles_ = 0;
  long long total_int_ops_ = 0;
  long long total_fp_ops_ = 0;
  long long ext_loads_ = 0;
  long long ext_stores_ = 0;
  long long acc_int_ = 0;
  long long acc_fp_ = 0;
  cycle_t last_flush_ = 0;
};

}  // namespace hlsprof::sim
