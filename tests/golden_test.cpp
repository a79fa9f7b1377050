// Golden snapshot tests for the text emitters (SMT-LIB2 and Dafny).
//
// Each example model is rendered through the real CLI (`buffy emit-smt2` /
// `buffy emit-dafny`) with a fixed configuration and compared byte-for-byte
// against the committed snapshot in tests/golden/. These lock the emitter
// output across refactors of the compilation pipeline: any driver change
// that perturbs parse order, transform order, or term interning shows up
// as a golden diff.
//
// Regenerate (after an *intentional* output change) with:
//   BUFFY_REGEN_GOLDEN=1 ./tests/golden_test
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

#ifndef BUFFY_CLI_PATH
#error "BUFFY_CLI_PATH must be defined by the build"
#endif
#ifndef BUFFY_MODELS_DIR
#error "BUFFY_MODELS_DIR must be defined by the build"
#endif
#ifndef BUFFY_GOLDEN_DIR
#error "BUFFY_GOLDEN_DIR must be defined by the build"
#endif

struct ModelConfig {
  const char* name;   // model file stem (examples/models/<name>.bfy)
  const char* args;   // horizon, constants, buffer roles
  const char* query;  // emit-smt2 query (emit-dafny ignores it)
};

/// Prints the model stem, e.g. `aimd`. CTest names each case after this
/// text; gtest's default byte dump would embed the (ASLR-randomised)
/// pointers and change the names on every build.
void PrintTo(const ModelConfig& m, std::ostream* os) { *os << m.name; }

// One deterministic configuration per example model. Horizons are kept
// small so the snapshots stay reviewable; constants match the values the
// examples and tests use.
constexpr ModelConfig kModels[] = {
    {"aimd",
     "-T 4 -D RTO=3 --input ind:8:2 --input inack:8:2 --output out:16 "
     "--output ackdrain:16",
     "aimd.mcwnd[T-1] >= 0"},
    {"delay_server", "-T 4 --input din:8:2 --output dout:16",
     "delay.mreleased[T-1] >= 0"},
    {"drr", "-T 4 -D N=2 -D QUANTUM=2 --input ibs:6:2 --output ob:16",
     "drr.bdeq.0[T-1] >= 0"},
    {"fq_buggy", "-T 5 -D N=2 --input ibs:6:3 --output ob:32",
     "fq.cdeq.0[T-1] >= T-1"},
    {"fq_fixed", "-T 5 -D N=2 --input ibs:6:3 --output ob:32",
     "fq.cdeq.0[T-1] >= T-1"},
    {"path_server",
     "-T 4 -D RATE=1 -D BUCKET=2 --input pin:8:2 --output pout:16",
     "path.mserved[T-1] >= 0"},
    {"round_robin", "-T 4 -D N=2 --input ibs:6:2 --output ob:16",
     "rr.cdeq.0[T-1] >= 0"},
    {"strict_priority", "-T 4 -D N=2 --input ibs:6:2 --output ob:16",
     "sp.cdeq.0[T-1] >= 0"},
};

struct CommandResult {
  int exitCode = -1;
  std::string output;
};

CommandResult runCli(const std::string& args) {
  const std::string command =
      std::string(BUFFY_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  CommandResult result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exitCode = WEXITSTATUS(status);
  return result;
}

/// Drops `; ...` comment lines: the SMT-LIB banner embeds the model's file
/// path, which differs between checkouts. Everything else must match
/// byte-for-byte.
std::string stripSmtComments(const std::string& text) {
  std::string out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == ';') continue;
    out += line;
    out += '\n';
  }
  return out;
}

std::string goldenPath(const std::string& name, const char* ext) {
  return std::string(BUFFY_GOLDEN_DIR) + "/" + name + ext;
}

std::string readFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool regenerating() {
  const char* env = std::getenv("BUFFY_REGEN_GOLDEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

void checkGolden(const std::string& actual, const std::string& name,
                 const char* ext) {
  const std::string path = goldenPath(name, ext);
  if (regenerating()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  const std::string expected = readFileOrEmpty(path);
  ASSERT_FALSE(expected.empty())
      << "missing golden snapshot " << path
      << " (run with BUFFY_REGEN_GOLDEN=1 to create it)";
  EXPECT_EQ(expected, actual)
      << "emitter output for " << name << ext
      << " diverged from the committed snapshot; if the change is "
         "intentional, regenerate with BUFFY_REGEN_GOLDEN=1";
}

class GoldenEmit : public ::testing::TestWithParam<ModelConfig> {};

TEST_P(GoldenEmit, SmtLib2) {
  const ModelConfig& m = GetParam();
  const auto result = runCli(std::string("emit-smt2 ") + m.args +
                             " --query \"" + m.query + "\" " +
                             BUFFY_MODELS_DIR + "/" + m.name + ".bfy");
  ASSERT_EQ(result.exitCode, 0) << result.output;
  checkGolden(stripSmtComments(result.output), m.name, ".smt2");
}

TEST_P(GoldenEmit, Dafny) {
  const ModelConfig& m = GetParam();
  const auto result = runCli(std::string("emit-dafny ") + m.args + " " +
                             BUFFY_MODELS_DIR + "/" + m.name + ".bfy");
  ASSERT_EQ(result.exitCode, 0) << result.output;
  checkGolden(result.output, m.name, ".dfy");
}

INSTANTIATE_TEST_SUITE_P(Models, GoldenEmit, ::testing::ValuesIn(kModels),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
