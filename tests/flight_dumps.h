// Scratch directory for FlightRecorder dumps in scenario tests, and a
// reader that parses every dump a recorder left in it (in file-name order).
#pragma once

#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "tools/enclaves_postmortem_lib.h"

namespace enclaves::testing_support {

class FlightDumpDir {
 public:
  FlightDumpDir() {
    char tmpl[] = "/tmp/enclaves_dumps_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path_ = tmpl;
  }
  ~FlightDumpDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  FlightDumpDir(const FlightDumpDir&) = delete;
  FlightDumpDir& operator=(const FlightDumpDir&) = delete;

  const std::string& path() const { return path_; }

  /// Every `*.jsonl` dump in the directory that parses, by file name.
  std::vector<postmortem::FlightDump> dumps() const {
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(path_))
      if (entry.path().extension() == ".jsonl")
        files.push_back(entry.path().string());
    std::sort(files.begin(), files.end());
    std::vector<postmortem::FlightDump> out;
    for (const std::string& file : files) {
      std::ifstream in(file, std::ios::binary);
      std::ostringstream blob;
      blob << in.rdbuf();
      auto dump = postmortem::FlightDump::parse(blob.str());
      if (dump.ok()) out.push_back(*std::move(dump));
    }
    return out;
  }

 private:
  std::string path_;
};

/// True if `dump` holds a ledger line of `kind` observed by `agent` and
/// accusing `peer` (with `detail`, when one is given).
inline bool has_ledger_line(const postmortem::FlightDump& dump,
                            std::string_view kind, std::string_view agent,
                            std::string_view peer,
                            std::string_view detail = {}) {
  for (const postmortem::FlightLine& line : dump.lines)
    if (line.src == "ledger" && line.kind == kind && line.agent == agent &&
        line.peer == peer && (detail.empty() || line.detail == detail))
      return true;
  return false;
}

}  // namespace enclaves::testing_support
