// A private directory for a test that writes files. ctest runs every TEST as
// its own process, several at a time, so a fixed path under /tmp would be
// shared by tests running side by side; each TempDir is a fresh mkdtemp
// directory, removed with its contents when the TempDir goes out of scope.
#pragma once

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "support/common.hpp"

namespace dsprof::testfix {

class TempDir {
 public:
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() / "dsp_test_XXXXXX").string();
    DSP_CHECK(mkdtemp(tmpl.data()) != nullptr, "mkdtemp failed for " + tmpl);
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  /// The path of `name` inside the directory.
  std::string operator/(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace dsprof::testfix
