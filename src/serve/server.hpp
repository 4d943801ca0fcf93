// dsprofd: the profiling daemon (DESIGN.md §3.3).
//
// A Server owns any number of concurrent Sessions, one per connected
// collector client. Each session runs two threads:
//
//   reader   recv bytes -> FrameReader -> decode frames. Control frames
//            (Flush/SnapshotReq/StatsReq/Close) are answered inline;
//            EventBatch/Alloc frames are validated and enqueued.
//   reducer  pops decoded batches from a bounded queue and folds them into
//            an IncrementalReducer (analyze/reduction.hpp) — the *online*
//            aggregates. Because the fold accumulates integer weights, the
//            live aggregates after any batch split are bit-identical to one
//            offline reduction over the same events (the serve subsystem's
//            central invariant; tests/serve_test.cpp proves it property-
//            style, tests/integration_test.cpp on the MCF workload).
//
// Overload: the batch queue holds at most `max_queued_batches`. When the
// reducer falls behind, the policy decides:
//
//   DropOldest  (default) evict the oldest queued batch and count its
//               events as dropped. Snapshots stay available under overload
//               and the loss is surfaced: the accounting triple satisfies
//               events_in == events_reduced + events_dropped exactly, and
//               the JSON report grows a "(Dropped)" row (reports.hpp).
//   Block       the reader stops reading; backpressure propagates through
//               the transport to the client's send() (a full pipe/socket),
//               which either waits or times out and retries. No loss.
//
// Snapshot protocol: SnapshotReq first *drains* (waits until the queue is
// empty and the reducer is idle), then renders views from a deep copy of
// the live aggregates via Analysis's precomputed-result constructor. The
// drain barrier means a client that sends batches then SnapshotReq sees
// every event it sent (minus accounted drops) — no torn reads, because the
// copy is taken between folds, never during one.
//
// Disconnect mid-batch: the partial frame buffered in the FrameReader is
// discarded, complete frames already queued are still folded, and the
// session finalizes with the accounting invariant intact.
//
// Session lifetime, live -> retained -> gone:
//
//   live      from add_session until its reader thread finishes; the
//             reader joins the reducer, then finalize destroys the Session
//             (transport, FrameReader, queue, reducer caches), adds its
//             counters to the Stats totals and lists the reader thread for
//             the next add_session or stop() to join.
//   retained  a session that completed a Hello keeps only what
//             merged_report reads: its Experiment (no events), released
//             aggregates and accounting. Monitoring clients never are.
//   gone      past ServerOptions::retain_sessions the lowest id is erased.
//
// Fleet view (merged_report / SnapshotReq with kSnapshotMergedFlag): the
// aggregates of every retained and every live session merge, in
// session-id order, into one report via analyze::merge_results,
// byte-identical to an offline multi-dir `er_print -J` over the same
// events. The Stats frame carries, next to the cumulative totals, a rolling
// time-windowed self-profile (stats_window_ms) — deltas and event rate
// over the trailing window, for always-on monitoring.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "analyze/reduction.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"

namespace dsprof::serve {

struct ServerOptions {
  /// Bounded per-session batch queue (the backpressure window).
  size_t max_queued_batches = 64;

  enum class Overload { DropOldest, Block };
  Overload overload = Overload::DropOldest;

  /// Test seam: called by the reducer thread before each fold. Stalling
  /// here makes the queue overflow deterministically (overload tests); an
  /// exception thrown here drops the batch like a failed fold.
  std::function<void(u64 session_id)> before_reduce;

  /// Completed sessions retained for the merged fleet view. Beyond the cap
  /// the oldest completed session is *evicted*: its aggregates and
  /// rendering context are freed and it drops out of merged snapshots; its
  /// accounting counters stay, so the cumulative Stats totals never move
  /// backwards. 0 retains nothing.
  size_t retain_sessions = 64;

  /// Rolling window of the self-profile endpoint: the Stats frame reports,
  /// next to the cumulative totals, the deltas and event rate over the
  /// trailing window (sampled at each Stats request and session
  /// finalization). 0 disables the window fields' motion (they stay 0).
  u64 stats_window_ms = 60'000;
};

/// Aggregated introspection counters (the Stats frame payload).
struct ServerStats {
  u64 sessions_total = 0;
  u64 sessions_active = 0;
  u64 frames_in = 0;
  u64 batches_in = 0;
  u64 events_in = 0;
  u64 events_reduced = 0;
  u64 events_dropped = 0;
  u64 snapshots = 0;
  u64 max_queue_depth = 0;
  u64 reduce_calls = 0;
  u64 reduce_ns = 0;  // cumulative wall time inside fold()
  u64 sessions_retained = 0;  // completed sessions still mergeable
  u64 sessions_evicted = 0;   // completed sessions freed past the cap

  // Rolling-window self-profile (ServerOptions::stats_window_ms): deltas of
  // the cumulative counters over the trailing window, plus the event rate.
  u64 window_ms = 0;
  u64 window_sessions = 0;
  u64 window_events_in = 0;
  u64 window_events_reduced = 0;
  u64 window_events_dropped = 0;
  u64 window_snapshots = 0;
  double window_events_per_sec = 0.0;

  std::string to_json() const;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Adopt a connected transport as a new session (threads start
  /// immediately). Returns the session id the HelloAck will carry.
  u64 add_session(std::unique_ptr<Transport> transport);

  /// Accept loop over any listener (Unix-domain or TCP); returns when the
  /// listener is closed or stop() is called. Each accepted connection
  /// becomes a session.
  void serve(Listener& listener);

  /// The fleet view: merge the aggregates of every retained session and
  /// every live one past its Hello, in session-id order, and render one
  /// multi-experiment JSON report, byte-identical to an offline multi-dir
  /// `er_print a b … -J` over the same events (reduction.hpp::merge_results
  /// documents why). Takes a consistent cut: each live session is held
  /// quiescent (queue drained, reducer idle) while its aggregates are
  /// copied, so no fold is ever torn across the merge; retained aggregates
  /// merge in place. `acct` sums the included sessions' accounting
  /// triples. Refused when there is nothing to merge.
  Status merged_report(std::string& json, Accounting& acct);

  /// Block until session `id` is no longer live (client closed/disconnected).
  void wait_session(u64 id);

  /// Block until no session is live.
  void wait_all();

  /// Shut down every live session, wait for them to finish and join all
  /// threads.
  void stop();

  ServerStats stats() const;

 private:
  struct Session;

  void reader_main(Session& s);
  void reducer_main(Session& s);
  void finalize(Session& s);
  ServerStats stats_locked() const;

  /// What a finished session keeps for merged_report.
  struct Retained {
    experiment::Experiment ex;  // rendering context; events stay empty
    analyze::ReductionResult result;
    Accounting acct;
  };

  ServerOptions opt_;
  mutable std::mutex mu_;  // guards everything below but stopping_
  std::condition_variable session_done_cv_;
  std::map<u64, std::unique_ptr<Session>> sessions_;  // live, by id
  std::map<u64, Retained> retained_;                  // by id
  ServerStats finished_;  // counters of every session no longer live
  std::vector<std::thread> exited_;  // finished reader threads to join
  u64 next_session_id_ = 1;
  std::atomic<bool> stopping_{false};

  /// Rolling-window samples of the cumulative counters (guarded by mu_;
  /// mutable so the const stats() endpoint can advance the window).
  struct WindowPoint {
    u64 t_ns = 0;
    u64 sessions_total = 0;
    u64 events_in = 0;
    u64 events_reduced = 0;
    u64 events_dropped = 0;
    u64 snapshots = 0;
  };
  mutable std::deque<WindowPoint> window_;
};

}  // namespace dsprof::serve
