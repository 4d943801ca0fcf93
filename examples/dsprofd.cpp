// dsprofd — the profiling daemon (DESIGN.md §3.3): listen on a Unix-domain
// or TCP socket, accept any number of concurrent collector clients
// (dsprof_send), fold their streamed event batches into live per-session
// aggregates, and answer snapshot/stats queries — no experiment directory
// round-trip. Completed sessions are retained (up to --retain) for the
// merged fleet view (`dsprof_send --merged`).
//
// Usage:
//   dsprofd --listen <uri> [--once] [--queue N] [--policy drop|block]
//           [--retain N] [--window MS] [--trace <file>]
//
// The final stats line carries the daemon's self-profile (src/obs/) inside
// the ServerStats JSON, and --trace dumps the span timeline for
// chrome://tracing when the daemon exits.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/obs.hpp"
#include "serve/server.hpp"

using namespace dsprof;

namespace {

serve::Listener* g_listener = nullptr;

void handle_signal(int) {
  if (g_listener != nullptr) g_listener->close();  // unblocks accept()
}

void print_usage() {
  std::puts(
      "usage: dsprofd --listen <uri> [options]\n"
      "options:\n"
      "  --listen <uri>        endpoint to listen on: unix://<path>,\n"
      "                        tcp://<host>:<port> (port 0 picks an ephemeral\n"
      "                        port, printed on the readiness line), or a bare\n"
      "                        path (treated as unix://)\n"
      "  --socket <path>       alias for --listen unix://<path>\n"
      "  --once                serve exactly one session, print stats, exit\n"
      "  --queue <N>           bounded per-session batch queue depth (default 64)\n"
      "  --policy <drop|block> overload policy: drop-oldest with exact drop\n"
      "                        accounting (default), or block the reader and\n"
      "                        let backpressure reach the client\n"
      "  --retain <N>          completed sessions kept for the merged fleet\n"
      "                        view; the oldest beyond the cap is evicted,\n"
      "                        accounting kept (default 64)\n"
      "  --window <MS>         rolling self-profile window in the Stats frame\n"
      "                        (default 60000)\n"
      "  --trace <file>        write the span timeline (chrome://tracing JSON)\n"
      "                        on exit\n"
      "  --help                print this help and exit");
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen_uri;
  std::string trace_path;
  bool once = false;
  serve::ServerOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--listen" && i + 1 < argc) {
      listen_uri = argv[++i];
    } else if (arg == "--socket" && i + 1 < argc) {
      listen_uri = std::string("unix://") + argv[++i];
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--queue" && i + 1 < argc) {
      opt.max_queued_batches = std::stoul(argv[++i]);
    } else if (arg == "--policy" && i + 1 < argc) {
      const std::string p = argv[++i];
      opt.overload = p == "block" ? serve::ServerOptions::Overload::Block
                                  : serve::ServerOptions::Overload::DropOldest;
    } else if (arg == "--retain" && i + 1 < argc) {
      opt.retain_sessions = std::stoul(argv[++i]);
    } else if (arg == "--window" && i + 1 < argc) {
      opt.stats_window_ms = std::stoull(argv[++i]);
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--help") {
      print_usage();
      return 0;
    } else {
      std::printf("unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (listen_uri.empty()) {
    print_usage();
    return 2;
  }

  try {
    auto listener = serve::make_listener(listen_uri);
    g_listener = listener.get();
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    // endpoint() reports the *bound* endpoint — for tcp://host:0 it carries
    // the kernel-assigned port, so scripts can discover it from this line.
    std::printf("dsprofd: listening on %s\n", listener->endpoint().c_str());
    std::fflush(stdout);

    serve::Server server(opt);
    if (once) {
      serve::Status st;
      auto t = listener->accept(st, /*timeout_ms=*/-1);
      if (!t) {
        std::printf("dsprofd: accept failed: %s\n", st.to_string().c_str());
        return 1;
      }
      const u64 id = server.add_session(std::move(t));
      server.wait_session(id);
    } else {
      server.serve(*listener);  // returns when the listener is closed
      server.wait_all();
    }
    const serve::ServerStats stats = server.stats();
    std::printf("dsprofd: stats %s\n", stats.to_json().c_str());
    server.stop();
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      out << obs::chrome_trace_json() << "\n";
      std::printf("dsprofd: trace written to %s\n", trace_path.c_str());
    }
    // The smoke gate checks the daemon's own accounting too.
    return stats.events_in == stats.events_reduced + stats.events_dropped ? 0 : 1;
  } catch (const Error& e) {
    std::printf("dsprofd: %s\n", e.what());
    return 1;
  }
}
