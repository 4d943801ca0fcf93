// --json [path] support shared by every bench/ target.
//
// Uniform contract (scripts/check.sh relies on it): each bench prints its
// human-readable summary on stdout and finishes with exactly one
// machine-readable JSON object on the last line. JsonSink routes that
// object: it always stays the last stdout line, and `--json <path>`
// additionally writes it to <path>; a bare `--json` defaults to
// BENCH_<name>.json in the current directory. The flag is consumed from
// argv so benches with their own flags can parse the rest.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace dsprof::bench {

/// `"host":{...}` — the machine a bench ran on (logical CPUs, CPU model from
/// /proc/cpuinfo where it exists, compiler). JsonSink::emit appends it to
/// every bench's JSON object.
inline std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    const size_t value =
        colon == std::string::npos ? colon : line.find_first_not_of(' ', colon + 1);
    if (value != std::string::npos) cpu = line.substr(value);
    break;
  }
  for (char& c : cpu) {
    if (c == '"' || c == '\\') c = ' ';
  }
  return "\"host\":{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu\":\"" + cpu + "\",\"compiler\":\"" + __VERSION__ + "\"}";
}

class JsonSink {
 public:
  JsonSink(int& argc, char** argv, const std::string& bench_name) {
    int w = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        path_ = "BENCH_" + bench_name + ".json";
        if (i + 1 < argc && argv[i + 1][0] != '-') path_ = argv[++i];
      } else {
        argv[w++] = argv[i];
      }
    }
    argc = w;
  }

  /// printf-style: format the bench's one JSON object, append host_json()
  /// as its last member, print it as the last stdout line, and mirror it
  /// to the --json file when requested.
#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 2, 3)))
#endif
  void emit(const char* fmt, ...) const {
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string s(n > 0 ? static_cast<size_t>(n) : 0, '\0');
    if (n > 0) std::vsnprintf(s.data(), s.size() + 1, fmt, ap2);
    va_end(ap2);
    if (!s.empty() && s.back() == '}') s.insert(s.size() - 1, "," + host_json());
    std::printf("%s\n", s.c_str());
    if (!path_.empty()) {
      std::ofstream out(path_);
      out << s << "\n";
    }
  }

 private:
  std::string path_;
};

}  // namespace dsprof::bench
