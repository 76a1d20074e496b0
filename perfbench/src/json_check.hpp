/// \file json_check.hpp
/// Streaming check of a trace-event JSON file: full syntax validation
/// without building a document (fleet traces reach 100 MB), plus the set
/// of pids that carry a process_name metadata row ("pid tracks").
#pragma once

#include <cstdint>
#include <set>
#include <string>

namespace perfbench {

struct TraceCheck {
  bool valid = false;         ///< the whole file is one JSON value
  std::string error;          ///< first syntax error, with its byte offset
  std::set<long long> process_pids;  ///< pids of process_name rows
};

/// Validate `text` as JSON (RFC 8259 syntax; numbers and escapes checked).
TraceCheck check_json_text(const std::string& text);

/// Same, streaming from a file. process_name rows are recognised per line
/// (the trace writers put one event on each line).
TraceCheck check_json_file(const std::string& path);

}  // namespace perfbench
