// Scratch file paths for tests that write to disk.
#pragma once

#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

namespace slocal::testing_support {

/// Paths temp_file handed out during the running test case.
struct TempFiles {
  std::mutex mutex;
  std::vector<std::string> paths;

  static TempFiles& instance() {
    static TempFiles files;
    return files;
  }
};

/// Removes a test case's temp files when the case ends.
class TempFileCleanup : public testing::EmptyTestEventListener {
  void OnTestEnd(const testing::TestInfo&) override {
    TempFiles& files = TempFiles::instance();
    const std::lock_guard<std::mutex> lock(files.mutex);
    std::error_code ec;
    for (const std::string& path : files.paths) std::filesystem::remove(path, ec);
    files.paths.clear();
  }
};

inline const bool kTempFileCleanupInstalled = [] {
  testing::UnitTest::GetInstance()->listeners().Append(new TempFileCleanup);
  return true;
}();

/// `<TempDir>/<suite>.<case>.<pid>.<name>`: private to the running test
/// case and process, so cases run in parallel (ctest -j) or by two builds at
/// once never share a file. Removed when the case ends.
inline std::string temp_file(std::string_view name) {
  const testing::TestInfo* info = testing::UnitTest::GetInstance()->current_test_info();
  std::string owner = std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : owner) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  owner += "." + std::to_string(::getpid()) + ".";
  owner += name;
  std::string path = (std::filesystem::path(testing::TempDir()) / owner).string();
  TempFiles& files = TempFiles::instance();
  const std::lock_guard<std::mutex> lock(files.mutex);
  files.paths.push_back(path);
  return path;
}

}  // namespace slocal::testing_support
