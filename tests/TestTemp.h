//===- tests/TestTemp.h - Per-process scratch paths for tests -----*- C++ -*-===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scratch paths for tests that touch the filesystem. Every path lives
/// under a root named after the process id, so two processes running
/// the same test at once (ctest runs each test in its own process; an
/// ASan and a TSan build may run side by side on one host) never share
/// a directory. The root is removed when the process exits normally.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_TESTS_TESTTEMP_H
#define CUASMRL_TESTS_TESTTEMP_H

#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace cuasmrl {
namespace testing_support {

/// <temp>/cuasmrl_test_<pid>, created on first use.
inline const std::filesystem::path &processTempRoot() {
  struct Root {
    std::filesystem::path Path =
        std::filesystem::temp_directory_path() /
        ("cuasmrl_test_" + std::to_string(::getpid()));
    Root() {
      std::filesystem::remove_all(Path);
      std::filesystem::create_directories(Path);
    }
    ~Root() {
      std::error_code Ignored;
      std::filesystem::remove_all(Path, Ignored);
    }
  };
  static Root R;
  return R.Path;
}

/// processTempRoot() / \p Name, with nothing left at that path.
inline std::string freshTempPath(const std::string &Name) {
  std::filesystem::path P = processTempRoot() / Name;
  std::filesystem::remove_all(P);
  return P.string();
}

} // namespace testing_support
} // namespace cuasmrl

#endif // CUASMRL_TESTS_TESTTEMP_H
