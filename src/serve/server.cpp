#include "serve/server.hpp"

#include <cstdio>

#include "analyze/analysis.hpp"
#include "analyze/reports.hpp"
#include "obs/obs.hpp"

namespace dsprof::serve {

namespace {

using obs::now_ns;

// Self-observability (src/obs/): per-session reader/reducer queue health.
// Counters tally the same quantities the Accounting triple carries, so the
// obs snapshot and the Stats frame can be cross-checked; the histograms add
// what a single triple cannot show — queue-depth and wait-time
// distributions under load.
const obs::Counter& c_batches_in() {
  static const obs::Counter c = obs::counter("serve.batches.in");
  return c;
}
const obs::Counter& c_events_in() {
  static const obs::Counter c = obs::counter("serve.events.in");
  return c;
}
const obs::Counter& c_events_dropped() {
  static const obs::Counter c = obs::counter("serve.events.dropped");
  return c;
}
const obs::Counter& c_snapshots() {
  static const obs::Counter c = obs::counter("serve.snapshots");
  return c;
}
const obs::Histogram& h_queue_depth() {
  static const obs::Histogram h = obs::histogram("serve.queue.depth");
  return h;
}
const obs::Histogram& h_queue_wait_ns() {
  static const obs::Histogram h = obs::histogram("serve.queue.wait_ns");
  return h;
}
const obs::Histogram& h_reduce_ns() {
  static const obs::Histogram h = obs::histogram("serve.reduce.fold_ns");
  return h;
}
const obs::Counter& c_merged_snapshots() {
  static const obs::Counter c = obs::counter("serve.snapshots.merged");
  return c;
}
const obs::Counter& c_sessions_evicted() {
  static const obs::Counter c = obs::counter("serve.sessions.evicted");
  return c;
}
const obs::Gauge& g_sessions_retained() {
  static const obs::Gauge g = obs::gauge("serve.sessions.retained");
  return g;
}

Status send_frame(Transport& t, FrameType type, const std::vector<u8>& payload) {
  const std::vector<u8> bytes = encode_frame(type, payload);
  return t.send(bytes.data(), bytes.size());
}

}  // namespace

std::string ServerStats::to_json() const {
  std::string s = "{";
  const auto field = [&s](const char* k, u64 v, bool last = false) {
    s += std::string("\"") + k + "\":" + std::to_string(v) + (last ? "" : ",");
  };
  field("sessions_total", sessions_total);
  field("sessions_active", sessions_active);
  field("frames_in", frames_in);
  field("batches_in", batches_in);
  field("events_in", events_in);
  field("events_reduced", events_reduced);
  field("events_dropped", events_dropped);
  field("snapshots", snapshots);
  field("max_queue_depth", max_queue_depth);
  field("reduce_calls", reduce_calls);
  field("reduce_ns", reduce_ns);
  field("sessions_retained", sessions_retained);
  field("sessions_evicted", sessions_evicted);
  // Rolling-window self-profile: what the daemon did over the trailing
  // stats_window_ms, so an always-on monitor reads current load without
  // differencing cumulative counters itself.
  char wbuf[256];
  std::snprintf(wbuf, sizeof wbuf,
                "\"window\":{\"ms\":%llu,\"sessions\":%llu,\"events_in\":%llu,"
                "\"events_reduced\":%llu,\"events_dropped\":%llu,\"snapshots\":%llu,"
                "\"events_per_sec\":%.1f},",
                static_cast<unsigned long long>(window_ms),
                static_cast<unsigned long long>(window_sessions),
                static_cast<unsigned long long>(window_events_in),
                static_cast<unsigned long long>(window_events_reduced),
                static_cast<unsigned long long>(window_events_dropped),
                static_cast<unsigned long long>(window_snapshots),
                window_events_per_sec);
  s += wbuf;
  // Extended Stats frame: the daemon's own obs snapshot rides along, so a
  // remote `dsprof_send --stats` sees queue/latency distributions, not just
  // the aggregate triple.
  s += "\"obs\":" + obs::snapshot().to_json();
  s += "}";
  return s;
}

struct Server::Session {
  u64 id = 0;
  std::unique_ptr<Transport> transport;
  FrameReader frames;

  // Handshake result: the rendering context a snapshot Analysis needs.
  // hello_done is written once by the reader under qmu (after ex and the
  // reducer are fully built) and read under qmu by merged_report, which
  // makes the context fields immutable-after-publish for cross-thread
  // readers; ex.allocations — the one context field that grows mid-session
  // — is appended under qmu too.
  bool hello_done = false;
  bool closing = false;
  experiment::Experiment ex;  // events stay empty; batches live in the queue
  std::unique_ptr<analyze::IncrementalReducer> reducer;

  // Bounded batch queue, reader -> reducer.
  std::mutex qmu;
  std::condition_variable qcv;       // reducer waits: batch available or stop
  std::condition_variable space_cv;  // reader waits under Block policy
  std::condition_variable drain_cv;  // reader waits: queue empty + reducer idle
  /// Queued batch plus its enqueue timestamp (queue wait accounting).
  struct QueuedBatch {
    experiment::EventStore store;
    u64 enq_ns = 0;
  };
  std::deque<QueuedBatch> queue;
  bool reducing = false;
  bool stop = false;

  // Accounting (guarded by qmu; events_reduced mirrors the reducer's fold
  // counter so stats can be read while a fold is in flight). The invariant —
  // after any drain, events_in == events_reduced + events_dropped — holds
  // because every enqueued event is eventually either folded or
  // evicted-and-counted.
  u64 events_in = 0;
  u64 events_reduced = 0;
  u64 events_dropped = 0;
  u64 batches_in = 0;
  u64 frames_in = 0;
  u64 snapshots = 0;
  u64 max_queue_depth = 0;
  u64 reduce_calls = 0;
  u64 reduce_ns = 0;

  std::thread reader_thread;
  std::thread reducer_thread;

  /// Wait until every queued batch has been folded (the snapshot barrier).
  void drain() {
    std::unique_lock<std::mutex> lock(qmu);
    drain_cv.wait(lock, [&] { return queue.empty() && !reducing; });
  }

  Accounting accounting() {
    std::lock_guard<std::mutex> lock(qmu);
    return {events_in, events_reduced, events_dropped};
  }

  /// Add this session's counters to the Stats totals in `st`.
  void add_to(ServerStats& st) {
    std::lock_guard<std::mutex> lock(qmu);
    st.frames_in += frames_in;
    st.batches_in += batches_in;
    st.events_in += events_in;
    st.events_reduced += events_reduced;
    st.events_dropped += events_dropped;
    st.snapshots += snapshots;
    st.max_queue_depth = std::max(st.max_queue_depth, max_queue_depth);
    st.reduce_calls += reduce_calls;
    st.reduce_ns += reduce_ns;
  }
};

Server::Server(ServerOptions options) : opt_(options) {}

Server::~Server() { stop(); }

namespace {
const obs::Gauge& g_sessions_active() {
  static const obs::Gauge g = obs::gauge("serve.sessions.active");
  return g;
}
}  // namespace

u64 Server::add_session(std::unique_ptr<Transport> transport) {
  std::lock_guard<std::mutex> lock(mu_);
  // Each exited thread released mu_ for good before it was listed.
  for (std::thread& t : exited_) t.join();
  exited_.clear();
  auto s = std::make_unique<Session>();
  s->id = next_session_id_++;
  s->transport = std::move(transport);
  // stop() shuts down only the sessions live when it ran.
  if (stopping_.load()) s->transport->shutdown();
  Session& ref = *s;
  sessions_.emplace(ref.id, std::move(s));
  g_sessions_active().set(static_cast<i64>(sessions_.size()));
  // Reducer first: finalize, on the reader thread, joins it. Both handles
  // are set before finalize can take mu_.
  ref.reducer_thread = std::thread([this, &ref] { reducer_main(ref); });
  ref.reader_thread = std::thread([this, &ref] { reader_main(ref); });
  return ref.id;
}

void Server::serve(Listener& listener) {
  while (!stopping_.load()) {
    Status st;
    auto t = listener.accept(st, /*timeout_ms=*/200);
    if (t) {
      add_session(std::move(t));
      continue;
    }
    if (st.code == StatusCode::Timeout) continue;  // poll the stop flag
    break;  // listener closed or failed
  }
}

void Server::reader_main(Session& s) {
  std::vector<u8> buf(64 * 1024);

  const auto handle_frame = [&](Frame& f) -> Status {
    switch (f.type) {
      case FrameType::Hello: {
        if (s.hello_done)
          return Status::make(StatusCode::Refused, "duplicate Hello");
        HelloPayload h;
        if (Status st = decode_hello(f.payload, h); !st.ok()) return st;
        s.ex.log = "dsprofd streamed session from '" + h.client_name + "'";
        s.ex.image = std::move(h.image);
        s.ex.counters = h.counters;
        s.ex.clock_interval = h.clock_interval;
        s.ex.clock_hz = h.clock_hz;
        s.ex.page_size = h.page_size;
        s.ex.ec_line_size = h.ec_line_size;
        s.ex.total_cycles = h.total_cycles;
        s.ex.total_instructions = h.total_instructions;
        s.ex.slices = h.slices;
        s.reducer = std::make_unique<analyze::IncrementalReducer>(s.ex.image.symtab,
                                                                  s.ex.counters);
        {
          // Publish: merged_report reads hello_done under qmu and may then
          // touch ex and the reducer from another thread.
          std::lock_guard<std::mutex> lock(s.qmu);
          s.hello_done = true;
        }
        return send_frame(*s.transport, FrameType::HelloAck, encode_hello_ack(s.id));
      }
      case FrameType::EventBatch: {
        if (!s.hello_done)
          return Status::make(StatusCode::Refused, "EventBatch before Hello");
        experiment::EventStore batch;
        if (Status st = decode_event_batch(std::move(f.payload), batch); !st.ok()) return st;
        const u64 n = batch.size();
        std::unique_lock<std::mutex> lock(s.qmu);
        if (s.queue.size() >= opt_.max_queued_batches) {
          if (opt_.overload == ServerOptions::Overload::DropOldest) {
            // Evict the oldest queued batch; its events are accounted as
            // dropped, which the snapshot surfaces as "(Dropped)".
            s.events_dropped += s.queue.front().store.size();
            c_events_dropped().add(s.queue.front().store.size());
            s.queue.pop_front();
          } else {
            // Block: stop reading until the reducer makes room. The pipe /
            // socket buffer fills behind us — that is the backpressure the
            // client feels.
            s.space_cv.wait(lock, [&] {
              return s.stop || s.queue.size() < opt_.max_queued_batches;
            });
            if (s.stop) return Status::make(StatusCode::Disconnected, "session stopping");
          }
        }
        s.events_in += n;
        s.batches_in += 1;
        s.queue.push_back(Session::QueuedBatch{std::move(batch), now_ns()});
        s.max_queue_depth = std::max<u64>(s.max_queue_depth, s.queue.size());
        c_events_in().add(n);
        c_batches_in().add();
        h_queue_depth().record(s.queue.size());
        s.qcv.notify_one();
        return {};
      }
      case FrameType::Alloc: {
        if (!s.hello_done)
          return Status::make(StatusCode::Refused, "Alloc before Hello");
        std::vector<machine::AllocRecord> allocs;
        if (Status st = decode_allocs(f.payload, allocs); !st.ok()) return st;
        {
          // merged_report reads the allocation log from other threads.
          std::lock_guard<std::mutex> lock(s.qmu);
          s.ex.allocations.insert(s.ex.allocations.end(), allocs.begin(), allocs.end());
        }
        return {};
      }
      case FrameType::Flush: {
        if (!s.hello_done) return Status::make(StatusCode::Refused, "Flush before Hello");
        s.drain();
        return send_frame(*s.transport, FrameType::FlushAck,
                          encode_flush_ack(s.accounting()));
      }
      case FrameType::SnapshotReq: {
        if ((f.flags & kSnapshotMergedFlag) != 0) {
          // Fleet view: merge every retained session (no Hello required —
          // a monitoring client can connect just to ask).
          std::string json;
          Accounting macct;
          if (Status st = merged_report(json, macct); !st.ok()) return st;
          {
            std::lock_guard<std::mutex> lock(s.qmu);
            s.snapshots += 1;
          }
          c_snapshots().add();
          c_merged_snapshots().add();
          return send_frame(*s.transport, FrameType::Snapshot, encode_snapshot(macct, json));
        }
        if (!s.hello_done)
          return Status::make(StatusCode::Refused, "SnapshotReq before Hello");
        s.drain();
        const Accounting acct = s.accounting();
        // Deep-copy the live aggregates between folds and render through the
        // same Analysis + render_json_report path `er_print -J` uses: the
        // snapshot is byte-identical to an offline report over these events.
        static const obs::SpanName kSnapshotSpan = obs::span_name("serve.snapshot");
        const obs::ScopedSpan span(kSnapshotSpan);
        analyze::Analysis a(s.ex, s.reducer->snapshot());
        const std::string json = analyze::render_json_report(a, acct.events_dropped);
        {
          std::lock_guard<std::mutex> lock(s.qmu);
          s.snapshots += 1;
        }
        c_snapshots().add();
        return send_frame(*s.transport, FrameType::Snapshot, encode_snapshot(acct, json));
      }
      case FrameType::StatsReq:
        return send_frame(*s.transport, FrameType::Stats, encode_stats(stats().to_json()));
      case FrameType::Close: {
        if (s.hello_done) s.drain();  // final accounting must be complete
        s.closing = true;
        return send_frame(*s.transport, FrameType::CloseAck,
                          encode_flush_ack(s.accounting()));
      }
      default:
        return Status::make(StatusCode::Refused,
                            std::string("unexpected frame type ") +
                                frame_type_name(f.type));
    }
  };

  for (;;) {
    size_t got = 0;
    Status st = s.transport->recv_some(buf.data(), buf.size(), got, /*timeout_ms=*/-1);
    if (!st.ok()) break;  // disconnect / shutdown: finalize below
    st = s.frames.feed(buf.data(), got);
    {
      std::lock_guard<std::mutex> lock(s.qmu);
      s.frames_in = s.frames.frames_decoded();
    }
    bool fatal = false;
    if (!st.ok()) {
      // Framing corruption: tell the client why, then drop the session.
      (void)send_frame(*s.transport, FrameType::Error, encode_error(st));
      fatal = true;
    } else {
      Frame f;
      while (s.frames.next_frame(f)) {
        try {
          st = handle_frame(f);
        } catch (const std::exception& e) {
          // Analyzer invariants tripped by hostile payloads, and any other
          // exception a handler lets out (std::bad_alloc, std::length_error),
          // end this session with a clean error, never the daemon.
          st = Status::make(StatusCode::Malformed, e.what());
        }
        if (!st.ok()) {
          if (st.code != StatusCode::Disconnected)
            (void)send_frame(*s.transport, FrameType::Error, encode_error(st));
          fatal = true;
          break;
        }
        if (s.closing) break;
      }
    }
    if (fatal || s.closing) break;
  }

  // A partial frame still buffered here is the mid-batch disconnect case:
  // those bytes never decoded into events, so they are simply discarded —
  // they appear in no counter, keeping the accounting exact.
  finalize(s);
}

void Server::reducer_main(Session& s) {
  for (;;) {
    experiment::EventStore batch;
    u64 enq_ns = 0;
    {
      std::unique_lock<std::mutex> lock(s.qmu);
      s.qcv.wait(lock, [&] { return s.stop || !s.queue.empty(); });
      if (s.queue.empty()) break;  // stop requested and fully drained
      batch = std::move(s.queue.front().store);
      enq_ns = s.queue.front().enq_ns;
      s.queue.pop_front();
      s.reducing = true;
      s.space_cv.notify_one();
    }
    const u64 t0 = now_ns();
    h_queue_wait_ns().record(t0 - enq_ns);
    static const obs::SpanName kFoldSpan = obs::span_name("serve.fold");
    const obs::ScopedSpan span(kFoldSpan);
    u64 folded = batch.size();
    try {
      if (opt_.before_reduce) opt_.before_reduce(s.id);
      s.reducer->fold(batch, 0, batch.size());
    } catch (const std::exception&) {
      // Defensive: deserialize_aligned already validated the batch, but
      // a long-lived daemon must not die on a fold invariant or an
      // allocation failure. The batch is accounted as dropped (fold bumps
      // its counter only on success), so events_in == events_reduced +
      // events_dropped still holds.
      folded = 0;
    }
    const u64 t1 = now_ns();
    h_reduce_ns().record(t1 - t0);
    {
      std::lock_guard<std::mutex> lock(s.qmu);
      s.reducing = false;
      if (folded != 0) s.events_reduced += folded;
      else s.events_dropped += batch.size();
      s.reduce_calls += 1;
      s.reduce_ns += t1 - t0;
      if (s.queue.empty()) s.drain_cv.notify_all();
    }
  }
  std::lock_guard<std::mutex> lock(s.qmu);
  s.drain_cv.notify_all();
}

void Server::finalize(Session& s) {
  {
    std::lock_guard<std::mutex> lock(s.qmu);
    s.stop = true;
    s.qcv.notify_all();
    s.space_cv.notify_all();
  }
  s.reducer_thread.join();  // drains the queue first (fold-before-exit)
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.add_to(finished_);
    if (s.hello_done) {
      // Keep only what merged_report reads; mu_ guards retained_.
      retained_.emplace(s.id, Retained{std::move(s.ex), std::move(*s.reducer).release(),
                                       s.accounting()});
      for (; retained_.size() > opt_.retain_sessions; ++finished_.sessions_evicted) {
        retained_.erase(retained_.begin());  // the lowest id goes first
        c_sessions_evicted().add();
      }
    }
    g_sessions_retained().set(static_cast<i64>(retained_.size()));
    // This thread is about to return; the next add_session or stop() joins
    // it. Erasing destroys the Session — transport, FrameReader, queue and
    // reducer — so `s` is not touched again.
    exited_.push_back(std::move(s.reader_thread));
    sessions_.erase(s.id);
    g_sessions_active().set(static_cast<i64>(sessions_.size()));
    // A finished session is a load event worth a window sample even when
    // nobody is polling Stats just now.
    (void)stats_locked();
  }
  session_done_cv_.notify_all();
}

Status Server::merged_report(std::string& json, Accounting& acct) {
  // One consistent cut across the fleet: hold mu_ (freezing admission and
  // retention) plus every included session's queue lock, each session
  // drained to a fold boundary, for the whole copy-merge-render. Lock
  // order is mu_ then qmu in session-id order; no thread acquires a second
  // lock while holding a qmu, so the ordering is acyclic. Draining a
  // session waits on its reducer thread, which needs only its own qmu —
  // released by the wait — so progress is independent of the locks already
  // held here.
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<Session*> live;
  std::vector<std::unique_lock<std::mutex>> qlocks;
  for (auto& [id, sp] : sessions_) {
    std::unique_lock<std::mutex> ql(sp->qmu);
    if (!sp->hello_done) continue;
    sp->drain_cv.wait(ql, [&] { return sp->queue.empty() && !sp->reducing; });
    live.push_back(sp.get());
    qlocks.push_back(std::move(ql));
  }
  if (live.empty() && retained_.empty())
    return Status::make(StatusCode::Refused, "no sessions to merge");

  static const obs::SpanName kMergedSpan = obs::span_name("serve.snapshot.merged");
  const obs::ScopedSpan span(kMergedSpan);
  // Retained aggregates merge in place; live ones are copied between folds.
  std::vector<analyze::ReductionResult> copies;
  copies.reserve(live.size());  // parts point into it
  std::vector<const analyze::ReductionResult*> parts;
  std::vector<const experiment::Experiment*> exps;
  acct = {};
  const auto include = [&](const experiment::Experiment& ex,
                           const analyze::ReductionResult& r, const Accounting& a) {
    exps.push_back(&ex);
    parts.push_back(&r);
    acct.events_in += a.events_in;
    acct.events_reduced += a.events_reduced;
    acct.events_dropped += a.events_dropped;
  };
  // Both maps are in id order: interleave them into session-id order.
  auto rit = retained_.begin();
  for (Session* s : live) {
    for (; rit != retained_.end() && rit->first < s->id; ++rit)
      include(rit->second.ex, rit->second.result, rit->second.acct);
    copies.push_back(s->reducer->snapshot());
    include(s->ex, copies.back(), {s->events_in, s->events_reduced, s->events_dropped});
  }
  for (; rit != retained_.end(); ++rit)
    include(rit->second.ex, rit->second.result, rit->second.acct);
  // merge_results + the multi-experiment precomputed Analysis render the
  // exact bytes an offline multi-dir `er_print -J` over the same events
  // would (the cross-session extension of the bit-identity invariant).
  analyze::Analysis a(exps, analyze::merge_results(parts));
  json = analyze::render_json_report(a, acct.events_dropped);
  return {};
}

void Server::wait_session(u64 id) {
  std::unique_lock<std::mutex> lock(mu_);
  session_done_cv_.wait(lock, [&] { return sessions_.count(id) == 0; });
}

void Server::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  session_done_cv_.wait(lock, [&] { return sessions_.empty(); });
}

void Server::stop() {
  stopping_.store(true);
  std::unique_lock<std::mutex> lock(mu_);
  for (auto& [id, s] : sessions_) s->transport->shutdown();  // unblock its reader
  session_done_cv_.wait(lock, [&] { return sessions_.empty(); });
  for (std::thread& t : exited_) t.join();
  exited_.clear();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_locked();
}

ServerStats Server::stats_locked() const {
  ServerStats st = finished_;
  for (const auto& [id, s] : sessions_) s->add_to(st);
  st.sessions_total = next_session_id_ - 1;
  st.sessions_active = sessions_.size();
  st.sessions_retained = retained_.size();

  // Advance the rolling window: sample the cumulative counters now, prune
  // points that fell out of the trailing window (keeping the newest such
  // point as the baseline so the delta spans the whole window), and report
  // deltas against the baseline.
  st.window_ms = opt_.stats_window_ms;
  const u64 now = now_ns();
  window_.push_back(WindowPoint{now, st.sessions_total, st.events_in, st.events_reduced,
                                st.events_dropped, st.snapshots});
  const u64 span_ns = opt_.stats_window_ms * 1'000'000ull;
  while (window_.size() >= 2 && now - window_[1].t_ns >= span_ns) window_.pop_front();
  const WindowPoint& base = window_.front();
  st.window_sessions = st.sessions_total - base.sessions_total;
  st.window_events_in = st.events_in - base.events_in;
  st.window_events_reduced = st.events_reduced - base.events_reduced;
  st.window_events_dropped = st.events_dropped - base.events_dropped;
  st.window_snapshots = st.snapshots - base.snapshots;
  const double secs = static_cast<double>(now - base.t_ns) / 1e9;
  st.window_events_per_sec =
      secs > 0 ? static_cast<double>(st.window_events_in) / secs : 0.0;
  return st;
}

}  // namespace dsprof::serve
