// fleet_stream: one in-process dsprofd (default ServerOptions) behind a TCP
// loopback listener, written to and read from at once.
//   writer   1 collector connection at a time, open loop: a session is due
//            every 25 ms (40/s) and timed from its due time; it connects,
//            streams one paper-rate mcf-small experiment and closes; ex1
//            and ex2 alternate.
//   reader   1 monitor connection, open loop: a merged fleet snapshot is
//            due every second and timed from its due time.
// The end-to-end time is the writer's: ingest time per event of each
// session, from its due time, so a snapshot that stalls it counts.
// A fixed session rate, not a closed loop: dsprofd keeps every finished
// session's state until it stops, and its sessions slow as they pile up
// (median session 4.4 ms early in a closed-loop run, 6.5 ms after 3500
// sessions), so a closed loop's session count, peak RSS and ingest rate
// followed the host's speed (2500-4300 sessions, 1.4-2.3 GB, spread 0.24-
// 0.29 over 10 seeds). At 40/s every run streams the same 1000 sessions.
// A snapshot every second, not every 250 ms: each one freezes ingest for
// 20-50 ms, and at 4 Hz the sessions it stalled made up much of the
// writer's mean session time, which swung with the snapshot's own
// run-to-run changes (spread 0.22 over 5 seeds; 0.07 at 1 Hz).
// Snapshot latency itself is a per-layer figure: it spreads too much between
// runs to bound (in sizing, its median over a run moved by 30% between runs,
// with snapshots of one run split between ~20 ms and ~40 ms).
// One writer, not more: each in-process writer keeps two threads busy
// (client encode, server fold), so two writers and the snapshot oversubscribe
// 4 cores, and in sizing their ingest rate and snapshot p90 spread more.
// Ingest folds events into per-session reducers while every snapshot holds
// all retained sessions still to merge and render them, so a change
// that speeds one side at the other's cost shows here.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "analyze/reports.hpp"
#include "bench.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace dsprof;

namespace {

constexpr size_t kBatchEvents = 4096;  // dsprof_send's default --batch
constexpr int64_t kSessionPeriodNs = 25'000'000;
constexpr int64_t kMonitorPeriodNs = 1'000'000'000;
/// Snapshots fall half a session period after a session is due, the mean
/// phase between two independent clients. On one clock with no offset,
/// every snapshot started in the same instant as a session and stalled it
/// and the next one for most of its length.
constexpr int64_t kMonitorOffsetNs = kSessionPeriodNs / 2;
const size_t kRetained = serve::ServerOptions{}.retain_sessions;
/// The writer runs the host probe once (~2 ms) after every 4th prefill
/// session, and after every timed session that leaves kProbeSlackNs before
/// the next is due.
constexpr size_t kProbeEvery = 4;
constexpr int64_t kProbeSlackNs = 5'000'000;

/// The daemon under test: a Server accepting on an ephemeral loopback port.
class Fleet {
 public:
  Fleet() : listener_("127.0.0.1", 0), acceptor_([this] { server_.serve(listener_); }) {}
  ~Fleet() {
    listener_.close();
    acceptor_.join();
    server_.stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  serve::Server& server() { return server_; }
  std::string uri() const { return listener_.endpoint(); }

 private:
  serve::Server server_;
  serve::TcpListener listener_;
  std::thread acceptor_;  // last: it uses server_ and listener_
};

struct SessionResult {
  u64 id = 0;
  size_t input = 0;  // 0 = ex1, 1 = ex2
  u64 events = 0;
  bool ok = false;
  int64_t start_ns = 0;  // connect; in the timed phase, when it was due
  int64_t end_ns = 0;    // close acknowledged
};

bool balanced(const serve::Accounting& a) {
  return a.events_in == a.events_reduced + a.events_dropped;
}

/// One collector session: the calls serve::stream_experiment makes (hello,
/// allocations, batches, flush), then close, each timed on its own.
SessionResult stream_session(const std::string& uri, const experiment::Experiment& ex,
                             size_t input, Tracer& tr, u64 group) {
  SessionResult r;
  r.input = input;
  r.events = ex.events.size();
  serve::Accounting flushed, closed;
  serve::Status st;
  r.start_ns = now_ns();
  {
    Scope root(tr, "serve.session", group);
    std::unique_ptr<serve::Transport> transport;
    {
      Scope s(tr, "serve.connect");
      transport = serve::connect_with_retry(uri, st);
    }
    if (!transport) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n", st.to_string().c_str());
      return r;
    }
    serve::Client c(std::move(transport));
    {
      Scope s(tr, "serve.hello");
      st = c.hello(ex, r.id);
    }
    if (st.ok() && !ex.allocations.empty()) {
      Scope s(tr, "serve.send_allocations");
      st = c.send_allocations(ex.allocations);
    }
    for (size_t b = 0; st.ok() && b < ex.events.size(); b += kBatchEvents) {
      Scope s(tr, "serve.send_batch");
      st = c.send_batch(ex.events, b, std::min(ex.events.size(), b + kBatchEvents));
    }
    if (st.ok()) {
      Scope s(tr, "serve.flush");
      st = c.flush(flushed);
    }
    if (st.ok()) {
      Scope s(tr, "serve.close");
      st = c.close(closed);
    }
  }
  r.end_ns = now_ns();
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: session %llu: %s\n", static_cast<unsigned long long>(r.id),
                 st.to_string().c_str());
    return r;
  }
  // Every event arrives and none is dropped.
  r.ok = flushed.events_in == r.events && balanced(flushed) && flushed.events_dropped == 0 &&
         closed.events_in == r.events && balanced(closed) && closed.events_dropped == 0;
  return r;
}

/// `count` collector sessions back to back (closed loop), ex1 and ex2
/// alternating.
std::vector<SessionResult> run_prefill(const std::string& uri,
                                       const std::array<experiment::Experiment, 2>& exps,
                                       Tracer& tr, std::atomic<u64>& next_group, size_t count,
                                       HostProbe& probe) {
  std::vector<SessionResult> out;
  for (size_t k = 0; k < count; ++k) {
    out.push_back(stream_session(uri, exps[k % 2], k % 2, tr, next_group.fetch_add(1)));
    if (k % kProbeEvery == 0) probe.sample(1);
  }
  return out;
}

/// Collector sessions at a fixed rate (open loop), ex1 and ex2 alternating:
/// one due every kSessionPeriodNs from `begin_ns` until `end_ns`, each
/// timed from when it was due.
std::vector<SessionResult> run_writer(const std::string& uri,
                                      const std::array<experiment::Experiment, 2>& exps,
                                      Tracer& tr, std::atomic<u64>& next_group, int64_t begin_ns,
                                      int64_t end_ns, HostProbe& probe) {
  std::vector<SessionResult> out;
  for (size_t k = 0;; ++k) {
    const int64_t due = begin_ns + static_cast<int64_t>(k) * kSessionPeriodNs;
    if (due >= end_ns) break;
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
    out.push_back(stream_session(uri, exps[k % 2], k % 2, tr, next_group.fetch_add(1)));
    out.back().start_ns = due;
    if (now_ns() + kProbeSlackNs < due + kSessionPeriodNs) probe.sample(1);
  }
  return out;
}

}  // namespace

Outcome run_fleet_stream(const Options& opt, Tracer& tr) {
  Outcome out;
  // The daemon keeps every finished session's socket open until it stops,
  // and a run streams thousands of sessions: allow as many descriptors as
  // the hard limit does.
  rlimit nofile{};
  if (getrlimit(RLIMIT_NOFILE, &nofile) == 0 && nofile.rlim_cur < nofile.rlim_max) {
    nofile.rlim_cur = nofile.rlim_max;
    setrlimit(RLIMIT_NOFILE, &nofile);
  }
  const auto setup = mcfsim::PaperSetup::small(opt.seed);

  // Inputs: the paper's two collect command lines (as in
  // mcfsim::collect_paper_experiments), run concurrently and stopped after
  // kInputInstructions, and saved so the final check can reload them the
  // way er_print would.
  const int64_t t_inputs = now_ns();
  const std::array<experiment::Experiment, 2> exps =
      collect_pair(setup, {"+ecstall,20011,+ecrm,211", "+ecref,997,+dtlbm,101"}, {"hi", "off"});
  const std::array<std::string, 2> dirs = {opt.workdir + "/fleet_1", opt.workdir + "/fleet_2"};
  exps[0].save(dirs[0]);
  exps[1].save(dirs[1]);
  out.notes.push_back("inputs_s (paper collect pair, 2 threads) = " +
                      std::to_string(seconds_between(t_inputs, now_ns())));

  // Set-up: start the daemon and fill its session retention, so the merged
  // view is at its steady-state size before timing starts.
  std::atomic<u64> next_group{1};
  std::unique_ptr<Fleet> fleet;
  std::vector<SessionResult> prefill;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    fleet.reset();
    const int64_t t0 = now_ns();
    {
      Scope root(tr, "setup", r);
      {
        Scope s(tr, "serve.start");
        fleet = std::make_unique<Fleet>();
      }
      Scope s(tr, "serve.prefill");
      prefill = run_prefill(fleet->uri(), exps, tr, next_group, kRetained, out.probe);
      for (const SessionResult& p : prefill) fleet->server().wait_session(p.id);
    }
    setup_s.push_back(seconds_between(t0, now_ns()));
    for (const SessionResult& p : prefill) out.op(p.ok, "prefill session");
  }
  serve::Server& server = fleet->server();
  const serve::ServerStats before = server.stats();

  serve::Status st;
  auto monitor_transport = serve::connect_with_retry(fleet->uri(), st);
  if (!monitor_transport) {
    out.op(false, "monitor connect: " + st.to_string());
    return out;
  }
  serve::Client monitor(std::move(monitor_transport));

  reset_peak_rss();
  {
    // Warm-up, after the heap trim in reset_peak_rss(): the first merged
    // snapshot takes 2-3x as long, and stalled the first sessions with it.
    serve::Accounting acct;
    std::string json;
    st = monitor.merged_snapshot(acct, json);
    out.op(st.ok() && balanced(acct), "warm-up merged snapshot: " + st.to_string());
  }
  // Timed phase: the writer in its own thread, the monitor on this one.
  // Until the writer is joined only it touches out.probe.
  const int64_t t_begin = now_ns();
  const int64_t t_end = t_begin + static_cast<int64_t>(opt.seconds * 1e9);
  std::vector<SessionResult> timed;
  std::string writer_error;
  std::thread writer([&] {
    try {
      timed = run_writer(fleet->uri(), exps, tr, next_group, t_begin, t_end, out.probe);
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
  });
  std::vector<double> snapshot_ms, lag_ms;
  for (int64_t i = 0;; ++i) {
    const int64_t due = t_begin + kMonitorOffsetNs + i * kMonitorPeriodNs;
    if (due >= t_end) break;
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
    lag_ms.push_back(static_cast<double>(now_ns() - due) / 1e6);
    serve::Accounting acct;
    std::string json;
    {
      Scope root(tr, "serve.monitor", static_cast<u64>(i));
      Scope s(tr, "serve.merged_snapshot");
      st = monitor.merged_snapshot(acct, json);
    }
    const int64_t done = now_ns();
    const bool ok = st.ok() && balanced(acct) && acct.events_in > 0;
    out.op(ok, "merged snapshot " + std::to_string(i) + ": " + st.to_string());
    if (!ok) continue;
    snapshot_ms.push_back(static_cast<double>(done - due) / 1e6);
  }
  writer.join();
  if (!writer_error.empty()) out.op(false, "writer: " + writer_error);
  const Window w{t_begin, now_ns()};
  out.e2e["peak_rss_mb"] = peak_rss_mb();

  std::vector<double> session_ns_per_event;
  for (const SessionResult& r : timed) {
    out.op(r.ok, "session " + std::to_string(r.id));
    session_ns_per_event.push_back(static_cast<double>(r.end_ns - r.start_ns) /
                                   static_cast<double>(r.events));
  }
  for (const SessionResult& r : timed) server.wait_session(r.id);

  // Final check: the merged view equals an offline analysis of the
  // retained sessions' experiments, reloaded from disk, in session-id
  // order; the server's accounting equals the sum of the sessions'.
  const serve::ServerStats after = server.stats();
  serve::Accounting final_acct;
  std::string final_json;
  st = monitor.merged_snapshot(final_acct, final_json);
  std::vector<SessionResult> sessions = prefill;
  sessions.insert(sessions.end(), timed.begin(), timed.end());
  std::sort(sessions.begin(), sessions.end(),
            [](const SessionResult& a, const SessionResult& b) { return a.id < b.id; });
  const size_t first_retained = sessions.size() > kRetained ? sessions.size() - kRetained : 0;
  const std::array<experiment::Experiment, 2> reloaded = {
      experiment::Experiment::load(dirs[0]), experiment::Experiment::load(dirs[1])};
  std::vector<const experiment::Experiment*> retained;
  u64 retained_events = 0, all_events = 0;
  for (size_t i = 0; i < sessions.size(); ++i) {
    all_events += sessions[i].events;
    if (i < first_retained) continue;
    retained.push_back(&reloaded[sessions[i].input]);
    retained_events += sessions[i].events;
  }
  const analyze::Analysis offline(retained);
  const bool final_ok = st.ok() && final_json == analyze::render_json_report(offline) &&
                        final_acct.events_in == retained_events && balanced(final_acct) &&
                        after.sessions_retained == retained.size() &&
                        after.events_in == all_events && after.events_dropped == 0 &&
                        after.events_reduced == all_events;
  out.op(final_ok, "final merged snapshot != offline analysis of the retained sessions");
  serve::Accounting closed;
  (void)monitor.close(closed);
  fleet.reset();
  std::filesystem::remove_all(dirs[0]);
  std::filesystem::remove_all(dirs[1]);

  out.e2e["setup_s"] = median(setup_s);
  out.e2e["op_ns_per_item_p50"] = quantile(session_ns_per_event, 0.5);

  auto& L = out.layer;
  const u64 folded = after.events_reduced - before.events_reduced;
  L["serve.fold_ns_per_event"] =
      folded == 0 ? 0 : static_cast<double>(after.reduce_ns - before.reduce_ns) / folded;
  L["serve.max_queue_depth"] = static_cast<double>(after.max_queue_depth);
  L["serve.snapshot_ms_p50"] = quantile(snapshot_ms, 0.5);
  L["serve.snapshot_ms_p90"] = quantile(snapshot_ms, 0.9);
  L["serve.monitor_lag_ms_p90"] = quantile(lag_ms, 0.9);
  L["serve.sessions_retained"] = static_cast<double>(after.sessions_retained);
  L["serve.retained_events"] = static_cast<double>(final_acct.events_in);
  L["serve.events_dropped"] = static_cast<double>(after.events_dropped - before.events_dropped);
  if (tr.enabled()) {
    const std::vector<Span> spans = tr.spans();
    const auto session_ms = span_durations(spans, "serve.session", w, 1e6);
    const auto send_us = span_durations(spans, "serve.send_batch", w, 1e3);
    const auto flush_ms = span_durations(spans, "serve.flush", w, 1e6);
    L["serve.session_ms_p50"] = quantile(session_ms, 0.5);
    L["serve.session_ms_p90"] = quantile(session_ms, 0.9);
    L["serve.send_batch_us_p50"] = quantile(send_us, 0.5);
    L["serve.send_batch_us_p90"] = quantile(send_us, 0.9);
    L["serve.flush_ms_p50"] = quantile(flush_ms, 0.5);
    L["serve.flush_ms_p90"] = quantile(flush_ms, 0.9);
  }
  out.notes.push_back("timed sessions = " + std::to_string(timed.size()) +
                      ", snapshots = " + std::to_string(snapshot_ms.size()));
  return out;
}

}  // namespace perfbench
