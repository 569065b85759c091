// Byte-compatibility of the on-disk formats. tests/data holds one file of
// each format as an earlier release wrote it:
//
//   re_cache_v2.txt      slocal-re-cache 2 (`sequence --re-cache`)
//   sequence_v1.cert     slocal-cert 1, kind sequence (`sequence --emit-cert`)
//   lift_unsat_v1.cert   slocal-cert 1, kind lift-unsat (`sweep --emit-cert`)
//   discover_v1.ckpt     slocal-discover 1 (`discover --checkpoint`)
//
// Every file must still load. Certificates and discover checkpoints are
// deterministic, so saving the loaded object must reproduce the file byte
// for byte; the RE cache iterates a hash map, so only its content is pinned.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "src/cert/check.hpp"
#include "src/cert/format.hpp"
#include "src/discover/checkpoint.hpp"
#include "src/re/re_cache.hpp"
#include "tests/temp_file.hpp"

namespace slocal {
namespace {

using testing_support::temp_file;

std::string fixture(const char* name) {
  return std::string(SLOCAL_TEST_DATA_DIR "/") + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(FormatCompat, ReCacheV2Loads) {
  RECache cache;
  std::string error;
  ASSERT_TRUE(cache.load(fixture("re_cache_v2.txt"), &error)) << error;
  EXPECT_EQ(cache.size(), 1u);
  // A re-save loads back to the same content.
  const std::string path = temp_file("re_cache");
  ASSERT_TRUE(cache.save(path, &error)) << error;
  RECache reloaded;
  ASSERT_TRUE(reloaded.load(path, &error)) << error;
  EXPECT_EQ(reloaded.size(), cache.size());
  std::filesystem::remove(path);
}

TEST(FormatCompat, CertificatesLoadCheckAndResaveByteForByte) {
  for (const char* name : {"sequence_v1.cert", "lift_unsat_v1.cert"}) {
    SCOPED_TRACE(name);
    cert::Certificate certificate;
    std::string error;
    ASSERT_TRUE(cert::load_certificate(fixture(name), &certificate, &error)) << error;
    EXPECT_EQ(cert::check_certificate(certificate).status, cert::CertStatus::kValid);
    const std::string path = temp_file("cert");
    ASSERT_TRUE(cert::save_certificate(certificate, path, &error)) << error;
    EXPECT_EQ(read_bytes(path), read_bytes(fixture(name)));
    std::filesystem::remove(path);
  }
}

TEST(FormatCompat, DiscoverCheckpointLoadsAndResavesByteForByte) {
  discover::FrontierCheckpoint checkpoint;
  std::string error;
  ASSERT_TRUE(discover::load_frontier_checkpoint(fixture("discover_v1.ckpt"),
                                                 &checkpoint, &error))
      << error;
  EXPECT_FALSE(checkpoint.frontier.empty());
  const std::string path = temp_file("discover");
  ASSERT_TRUE(discover::save_frontier_checkpoint(checkpoint, path, &error)) << error;
  EXPECT_EQ(read_bytes(path), read_bytes(fixture("discover_v1.ckpt")));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace slocal
