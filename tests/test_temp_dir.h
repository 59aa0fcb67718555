#ifndef STAGE_TESTS_TEST_TEMP_DIR_H_
#define STAGE_TESTS_TEST_TEMP_DIR_H_

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace stage::testing_util {

// A directory private to this test process, for tests that write files.
//
// gtest_discover_tests runs every test case as its own process, and
// `ctest -j` runs those processes side by side, so fixed file names under
// ::testing::TempDir() let one process read another's half-written bytes.
// This directory is made with mkdtemp under TempDir(), named after the pid
// and the test (or suite) that first asked for it, and removed with its
// contents when the process exits normally.
class ProcessTempDir {
 public:
  // The directory, with a trailing '/'. Created on first use.
  static const std::string& Path() {
    static const ProcessTempDir dir;
    return dir.path_;
  }

  ProcessTempDir(const ProcessTempDir&) = delete;
  ProcessTempDir& operator=(const ProcessTempDir&) = delete;

 private:
  ProcessTempDir() : owner_(getpid()) {
    const ::testing::UnitTest* unit = ::testing::UnitTest::GetInstance();
    std::string label = "process";
    if (const ::testing::TestInfo* info = unit->current_test_info()) {
      label = std::string(info->test_suite_name()) + "." + info->name();
    } else if (const ::testing::TestSuite* suite =
                   unit->current_test_suite()) {
      label = suite->name();
    }
    for (char& c : label) {
      const bool keep = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                        c == '.' || c == '_' || c == '-';
      if (!keep) c = '_';
    }
    std::string pattern = ::testing::TempDir() + "stage_" +
                          std::to_string(owner_) + "_" + label + "_XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      std::perror(("mkdtemp " + pattern).c_str());
      std::abort();
    }
    path_ = pattern + "/";
  }

  ~ProcessTempDir() {
    // Forked children (death tests) inherit the path but never own it.
    if (owner_ != getpid()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  pid_t owner_;
  std::string path_;
};

// `name` inside ProcessTempDir::Path().
inline std::string TempPath(const std::string& name) {
  return ProcessTempDir::Path() + name;
}

}  // namespace stage::testing_util

#endif  // STAGE_TESTS_TEST_TEMP_DIR_H_
