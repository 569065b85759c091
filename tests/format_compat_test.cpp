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
// The lift-unsat claim is also re-decided from scratch: the encoder and the
// solver must emit the stored certificate again, byte for byte.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "src/cert/check.hpp"
#include "src/cert/emit.hpp"
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

TEST(FormatCompat, LiftCertificateReEmitsByteForByte) {
  // The lift-unsat fixture carries the CNF and DRAT proof the encoder and
  // solver produced when it was written. Re-deciding its stored claim (Π,
  // the targets and the support) must reproduce every byte, which pins the
  // lift encoding's variables, clauses and clause order.
  cert::Certificate stored;
  std::string error;
  ASSERT_TRUE(cert::load_certificate(fixture("lift_unsat_v1.cert"), &stored, &error))
      << error;
  ASSERT_EQ(stored.kind, cert::CertKind::kLiftUnsat);
  const cert::LiftUnsatCert& claim = stored.lift;
  BipartiteGraph support(claim.white_count, claim.black_count);
  for (const auto& [white, black] : claim.edges) {
    ASSERT_TRUE(support.add_edge(white, black).has_value());
  }
  const std::optional<cert::Certificate> emitted = cert::make_lift_unsat_certificate(
      claim.problem, claim.big_delta, claim.big_r, support);
  ASSERT_TRUE(emitted.has_value());
  const std::string path = temp_file("cert");
  ASSERT_TRUE(cert::save_certificate(*emitted, path, &error)) << error;
  EXPECT_EQ(read_bytes(path), read_bytes(fixture("lift_unsat_v1.cert")));
  std::filesystem::remove(path);
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
