// util::AtomicWriteFile: the tmp + rename write behind every durable file
// (daemon checkpoints, feed truncation, journal rebase, discover
// --checkpoint-to). A failure must return IoError and leave no tmp behind.

#include "util/atomic_write.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace pghive::util {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty directory unique to the calling test.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "atomic_write_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(AtomicWriteTest, MissingDirectoryFailsAndCreatesNothing) {
  const std::string dir = FreshDir("missing");
  const std::string path = dir + "/no_such_dir/file.bin";
  Status status = AtomicWriteFile(path, "bytes");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find(path + ".tmp"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(fs::is_empty(dir));
}

TEST(AtomicWriteTest, OverwriteLeavesTheNewBytesAndNoTmp) {
  const std::string dir = FreshDir("overwrite");
  const std::string path = dir + "/file.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "old bytes, longer than the new").ok());
  const std::string fresh("new\0bytes", 9);
  ASSERT_TRUE(AtomicWriteFile(path, fresh).ok());
  EXPECT_EQ(ReadAll(path), fresh);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                          fs::directory_iterator()),
            1);
}

TEST(AtomicWriteTest, RenameOntoNonEmptyDirectoryFailsAndLeavesNoTmp) {
  const std::string dir = FreshDir("rename");
  const std::string path = dir + "/occupied";
  fs::create_directories(path);
  std::ofstream(path + "/inside") << "keep";
  Status status = AtomicWriteFile(path, "bytes");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("cannot rename"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(ReadAll(path + "/inside"), "keep");
}

}  // namespace
}  // namespace pghive::util
