// Self-check for the sfq-lint static checker (tools/sfq_lint.py, whose
// implementation is the tools/sfq_lint/ package).
//
// Proves the properties scripts/lint.sh depends on:
//   1. the real tree is clean (lint exits 0) under all 17 rules,
//   2. the linter is *sensitive*: each deliberately broken fixture in
//      tests/lint_fixtures/, linted as if it lived at its pretend src/
//      path, makes lint exit non-zero with the expected rule id -- i.e.
//      flipping any fixture into the tree would fail the lint gate. This
//      covers the whole-program analyses (layer-dag, lock-order,
//      blocking-under-lock, hot-path) as well as the per-file rules,
//   3. the include-graph pass reports the *exact* defect edges on a
//      synthetic tree with a known cycle and a known back-edge, and
//   4. --json output obeys the schema documented in
//      docs/STATIC_ANALYSIS.md.
// The suppression fixture additionally proves that a justified
// NOLINT(sfq-*) silences a rule without disabling it globally.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

namespace fs = std::filesystem;

const char kRoot[] = SFQ_SOURCE_DIR;

struct RunResult {
  int exit_code;
  std::string output;
};

// Runs a command, capturing combined stdout+stderr and the exit code.
RunResult Exec(const std::string& cmd) {
  RunResult result{-1, {}};
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string LintCmd(const std::string& args) {
  return std::string("python3 '") + kRoot + "/tools/sfq_lint.py' --root '" +
         kRoot + "' " + args;
}

// Parses the `sfq-lint-path:` / `sfq-lint-expect:` header comments.
struct Fixture {
  fs::path file;
  std::string pretend_path;
  std::vector<std::string> expected_rules;
};

std::vector<Fixture> LoadFixtures() {
  std::vector<Fixture> fixtures;
  const fs::path dir = fs::path(kRoot) / "tests" / "lint_fixtures";
  const std::regex path_re(R"(sfq-lint-path:\s*(\S+))");
  const std::regex expect_re(R"(sfq-lint-expect:\s*([\w-]+))");
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext != ".cc" && ext != ".h") continue;
    std::ifstream in(entry.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    Fixture f;
    f.file = entry.path();
    std::smatch m;
    if (std::regex_search(text, m, path_re)) f.pretend_path = m[1];
    for (auto it = std::sregex_iterator(text.begin(), text.end(), expect_re);
         it != std::sregex_iterator(); ++it) {
      f.expected_rules.push_back((*it)[1]);
    }
    fixtures.push_back(std::move(f));
  }
  return fixtures;
}

TEST(LintSelfcheck, RealTreeIsClean) {
  const RunResult r = Exec(LintCmd(""));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("sfq-lint: OK"), std::string::npos) << r.output;
}

TEST(LintSelfcheck, FixtureExpectationsAllHold) {
  // --fixtures asserts, inside the linter, that every fixture fires exactly
  // its declared rules (including the silent suppression fixture).
  const RunResult r =
      Exec(LintCmd("--fixtures '" + std::string(kRoot) + "/tests/lint_fixtures'"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("fixture FAIL"), std::string::npos) << r.output;
}

TEST(LintSelfcheck, EachBrokenFixtureFailsAsTreeSource) {
  const std::vector<Fixture> fixtures = LoadFixtures();
  ASSERT_GE(fixtures.size(), 17u);  // 16+ broken + 1 suppressed control
  int broken = 0;
  for (const Fixture& f : fixtures) {
    ASSERT_FALSE(f.pretend_path.empty()) << f.file;
    const RunResult r = Exec(LintCmd("--check-file '" + f.file.string() +
                                    "' --as " + f.pretend_path));
    if (f.expected_rules.empty()) {
      // The suppression control: must stay silent even as tree source.
      EXPECT_EQ(r.exit_code, 0) << f.file << "\n" << r.output;
      continue;
    }
    ++broken;
    EXPECT_NE(r.exit_code, 0)
        << f.file << " should fail lint as " << f.pretend_path;
    for (const std::string& rule : f.expected_rules) {
      EXPECT_NE(r.output.find("[sfq-" + rule + "]"), std::string::npos)
          << f.file << " expected rule " << rule << "\n"
          << r.output;
    }
  }
  EXPECT_GE(broken, 16);
}

TEST(LintSelfcheck, ListRulesMatchesDocumentedSet) {
  const RunResult r = Exec(LintCmd("--list-rules"));
  EXPECT_EQ(r.exit_code, 0);
  for (const char* rule :
       {"sfq-row-seed", "sfq-raw-geometry", "sfq-nondet-random",
        "sfq-dropped-status", "sfq-raw-mutex", "sfq-unguarded-member",
        "sfq-concurrent-label", "sfq-nodiscard-decl", "sfq-failpoint-site",
        "sfq-server-opcode", "sfq-durable-write", "sfq-raw-frame",
        "sfq-simd-ifdef", "sfq-layer-dag",
        "sfq-lock-order", "sfq-blocking-under-lock", "sfq-hot-path"}) {
    EXPECT_NE(r.output.find(rule), std::string::npos) << rule;
  }
}

// The include-graph fixture tree contains exactly one include cycle
// (util/a.h <-> util/b.h) and one layer back-edge (core/low.h ->
// server/high.h). The pass must report both with the precise edge path,
// not merely "something is wrong".
TEST(LintSelfcheck, IncludeGraphReportsExactCycleAndBackEdge) {
  const RunResult r = Exec(LintCmd(
      "--include-graph-root '" + std::string(kRoot) +
      "/tests/lint_fixtures/include_cycle_tree'"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find(
                "src/core/low.h:5: [sfq-layer-dag] include of "
                "\"server/high.h\" is a layer back-edge: core -> server"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("include cycle: src/util/a.h -> src/util/b.h -> "
                          "src/util/a.h"),
            std::string::npos)
      << r.output;
  // Exactly the two planted defects, nothing else.
  EXPECT_NE(r.output.find("sfq-lint: 2 finding(s)"), std::string::npos)
      << r.output;
}

// --json emits one object per line with exactly the documented keys:
// path (string), line (number), rule ("sfq-" id), message (string).
TEST(LintSelfcheck, JsonOutputMatchesDocumentedSchema) {
  const RunResult r = Exec(LintCmd(
      "--json --check-file '" + std::string(kRoot) +
      "/tests/lint_fixtures/lock_order_cycle.cc' --as "
      "src/server/lock_cycle_probe.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  ASSERT_FALSE(r.output.empty());
  const std::regex schema_re(
      R"(^\{"path": "[^"]+", "line": [0-9]+, "rule": "sfq-[a-z-]+", )"
      R"("message": ".*"\}$)");
  std::istringstream lines(r.output);
  std::string line;
  int objects = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++objects;
    EXPECT_TRUE(std::regex_match(line, schema_re)) << line;
    EXPECT_NE(line.find("\"rule\": \"sfq-lock-order\""), std::string::npos)
        << line;
  }
  EXPECT_GE(objects, 1);
}

// On a clean tree --json prints nothing at all (no summary line), so CI
// annotation consumers can treat every output line as a finding object.
TEST(LintSelfcheck, JsonOutputSilentWhenClean) {
  const RunResult r = Exec(LintCmd(
      "--json --check-file '" + std::string(kRoot) +
      "/tests/lint_fixtures/suppressed_ok.h' --as "
      "src/concurrent/suppressed_counter.h"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.output.empty()) << r.output;
}

}  // namespace
