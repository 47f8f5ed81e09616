#include "support/atomic_file.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "support/checksum.hpp"
#include "support/error.hpp"

namespace portatune {
namespace {

class AtomicFileTest : public ::testing::Test {
 protected:
  // One directory per case: ctest runs each case as its own process, so
  // a name shared across processes would let one case's TearDown delete
  // another's files mid-test.
  void SetUp() override {
    static int counter = 0;
    dir_ = std::filesystem::temp_directory_path() /
           ("portatune_atomic_file_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::string path(const char* name) const { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(AtomicFileTest, WriteThenReadRoundTrips) {
  const std::string p = path("a.txt");
  atomic_write_file(p, "hello\n");
  EXPECT_TRUE(file_exists(p));
  EXPECT_EQ(read_file(p), "hello\n");
  // Replacement is whole-file, and no temp file is left behind.
  atomic_write_file(p, "goodbye\n");
  EXPECT_EQ(read_file(p), "goodbye\n");
  EXPECT_FALSE(file_exists(p + ".tmp"));
}

TEST_F(AtomicFileTest, WriteIntoMissingDirectoryThrows) {
  EXPECT_THROW(atomic_write_file(path("no/such/dir/file"), "x"), Error);
}

TEST_F(AtomicFileTest, ReadMissingFileThrows) {
  EXPECT_THROW(read_file(path("missing")), Error);
}

TEST_F(AtomicFileTest, EnsureDirectoryIsRecursiveAndIdempotent) {
  const std::string nested = (dir_ / "a" / "b" / "c").string();
  ensure_directory(nested);
  EXPECT_TRUE(std::filesystem::is_directory(nested));
  ensure_directory(nested);  // no throw on repeat
}

TEST(ChecksumFooter, RoundTripsAndRejectsTampering) {
  const std::string payload = "line one\nline two\n";
  const std::string with_footer = append_checksum_footer(payload);
  EXPECT_EQ(strip_verified_checksum_footer(with_footer, "test"), payload);

  // Flip one payload byte: the footer no longer matches.
  std::string corrupt = with_footer;
  corrupt[2] = corrupt[2] == 'x' ? 'y' : 'x';
  EXPECT_THROW(strip_verified_checksum_footer(corrupt, "test"), Error);

  // Truncate before the footer: the footer is gone entirely.
  EXPECT_THROW(strip_verified_checksum_footer(payload, "test"), Error);
}

}  // namespace
}  // namespace portatune
