// Golden-file tests for the code generator: the committed artifacts in
// tests/golden/ are the expected sgidlc output for all six interfaces that
// System compiles in. Any codegen change shows up as a readable diff against
// these files (regenerate with: build/src/idl/sgidlc idl/<svc>.sgidl -o tests/golden).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "idl/codegen.hpp"
#include "idl/compiler.hpp"

namespace sg {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

class GoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenTest, GeneratedCodeMatchesGolden) {
  const std::string service = GetParam();
  const std::string root = std::string(SG_REPO_DIR);
  const auto spec = idl::compile_file(root + "/idl/" + service + ".sgidl");
  idl::CodeGenerator generator(spec);
  const auto code = generator.generate();
  EXPECT_EQ(code.client_stub, slurp(root + "/tests/golden/" + service + "_cstub.gen.c"));
  EXPECT_EQ(code.server_stub, slurp(root + "/tests/golden/" + service + "_sstub.gen.c"));
  EXPECT_EQ(code.spec_builder, slurp(root + "/tests/golden/" + service + "_spec.gen.cpp"));
}

INSTANTIATE_TEST_SUITE_P(Services, GoldenTest,
                         ::testing::Values("evt", "lock", "mman", "ramfs", "sched", "tmr"));

}  // namespace
}  // namespace sg
