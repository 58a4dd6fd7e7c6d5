// A test-owned path under the gtest temp directory that is removed, with
// everything below it, when the guard goes out of scope, so a test leaves
// nothing behind on any exit path (a failed ASSERT included).
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace dfp::testutil {

class ScratchPath {
  public:
    /// `<TempDir>/<stem>_<pid><suffix>`; nothing is created.
    explicit ScratchPath(const std::string& stem, const std::string& suffix = "")
        : path_(::testing::TempDir() + "/" + stem + "_" +
                std::to_string(::getpid()) + suffix) {}
    ~ScratchPath() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    ScratchPath(const ScratchPath&) = delete;
    ScratchPath& operator=(const ScratchPath&) = delete;

    const std::string& str() const { return path_; }

  private:
    std::string path_;
};

}  // namespace dfp::testutil
