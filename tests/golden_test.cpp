// Golden regression tests: the paper-table benches that exercise the whole
// simulator stack (cost model -> op graph -> discrete-event engine) must
// reproduce their checked-in output byte for byte. This is the clean-path
// contract of the fault-injection layer: with faults disabled (the default),
// nothing in the pipeline anywhere may shift a single digit.
//
// The same runner checks one CLI contract: throughput_explorer's exit status
// and message on bad input.
//
// Regenerating after an intentional simulator change:
//   ./build/bench/<name> > tests/golden/<name>.txt
// and justify the diff in the PR.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string run_binary(const std::string& path, int* exit_code) {
  FILE* pipe = popen((path + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "cannot run " << path;
  std::string out;
  char buf[4096];
  size_t n = 0;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  *exit_code = pclose(pipe);
  return out;
}

/// First byte offset where the strings differ, with a line/column readout —
/// a byte-for-byte diff failure should say where to look, not just "differs".
std::string describe_mismatch(const std::string& got, const std::string& want) {
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  int line = 1, col = 1;
  for (size_t j = 0; j < i; ++j) {
    if (want[j] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  std::ostringstream ss;
  ss << "first difference at byte " << i << " (line " << line << ", col "
     << col << "); got " << got.size() << " bytes, want " << want.size();
  return ss.str();
}

class Golden : public ::testing::TestWithParam<const char*> {};

TEST_P(Golden, BenchOutputMatchesCheckedInBaseline) {
  const std::string name = GetParam();
  const std::string want =
      read_file(std::string(ACTCOMP_GOLDEN_DIR) + "/" + name + ".txt");
  ASSERT_FALSE(want.empty());
  int exit_code = -1;
  const std::string got =
      run_binary(std::string(ACTCOMP_BENCH_DIR) + "/" + name, &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_TRUE(got == want) << describe_mismatch(got, want);
}

INSTANTIATE_TEST_SUITE_P(Tables, Golden,
                         ::testing::Values("table4_breakdown_finetune",
                                           "table7_breakdown_pretrain",
                                           "table9_stage_comm",
                                           "ablation_serving",
                                           "ablation_serving_faults",
                                           "ablation_wire_formats"));

// The explorer's answer to bad input is a message and exit status 2, as for
// a bad flag: a malformed --trace-in file must not abort it. A failed run
// must also leave the last good report in ACTCOMP_REPORT_DIR untouched.
TEST(Cli, ThroughputExplorerRejectsMalformedTrace) {
  const std::string dir = ::testing::TempDir();
  const std::string trace = dir + "throughput_explorer_malformed_trace.json";
  const std::string report = dir + "REPORT_throughput_explorer.json";
  const std::string sentinel = "{\"sentinel\": \"last good report\"}\n";
  std::ofstream(trace) << "{}";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--serve --trace-in " + trace,
       "throughput_explorer: serving_trace: missing string field 'schema'"},
      {"--topology ring",
       "throughput_explorer: unknown --topology 'ring' "
       "(flat|fat-tree|oversub[:N])"},
      {"--serve --requests 4 --replicas 2 --serve-policy lottery",
       "throughput_explorer: unknown --serve-policy 'lottery' "
       "(rr|jsq|health)"},
  };
  for (const auto& [args, message] : cases) {
    std::ofstream(report) << sentinel;
    int status = -1;
    const std::string out = run_binary(
        "ACTCOMP_REPORT_DIR=" + dir + " " + std::string(ACTCOMP_EXAMPLE_DIR) +
            "/throughput_explorer " + args,
        &status);
    ASSERT_TRUE(WIFEXITED(status)) << args << "\n" << out;
    EXPECT_EQ(WEXITSTATUS(status), 2) << args << "\n" << out;
    EXPECT_NE(out.find(message), std::string::npos) << args << "\n" << out;
    EXPECT_EQ(read_file(report), sentinel) << args;
  }
  std::remove(trace.c_str());
  std::remove(report.c_str());
}

}  // namespace
