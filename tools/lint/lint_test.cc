#include "lint_rules.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace wiclean {
namespace lint {
namespace {

std::vector<std::string> RulesOf(const std::vector<LintFinding>& findings) {
  std::vector<std::string> rules;
  for (const LintFinding& f : findings) rules.push_back(f.rule);
  return rules;
}

bool HasRule(const std::vector<LintFinding>& findings,
             std::string_view rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const LintFinding& f) { return f.rule == rule; });
}

// ---------- helpers ----------

TEST(LintHelpersTest, ExpectedIncludeGuardDropsLeadingSrc) {
  EXPECT_EQ(ExpectedIncludeGuard("src/common/status.h"),
            "WICLEAN_COMMON_STATUS_H_");
  EXPECT_EQ(ExpectedIncludeGuard("tools/lint/lint_rules.h"),
            "WICLEAN_TOOLS_LINT_LINT_RULES_H_");
  EXPECT_EQ(ExpectedIncludeGuard("bench/bench_common.h"),
            "WICLEAN_BENCH_BENCH_COMMON_H_");
}

TEST(LintHelpersTest, IsTestPath) {
  EXPECT_TRUE(IsTestPath("tests/common_test.cc"));
  EXPECT_TRUE(IsTestPath("src/foo/bar_test.cc"));
  EXPECT_TRUE(IsTestPath("tools/lint/testdata/bad_raw_new.cc"));
  EXPECT_FALSE(IsTestPath("src/common/status.h"));
  EXPECT_FALSE(IsTestPath("tools/wiclean_cli.cc"));
}

TEST(LintHelpersTest, StripCommentsAndStrings) {
  bool in_block = false;
  EXPECT_EQ(StripCommentsAndStrings("int x;  // new things", &in_block),
            "int x;  ");
  EXPECT_FALSE(in_block);
  EXPECT_EQ(StripCommentsAndStrings("f(\"sprintf inside\");", &in_block),
            "f(\"\");");
  EXPECT_EQ(StripCommentsAndStrings("a /* new */ b", &in_block), "a  b");
  EXPECT_FALSE(in_block);
  // Block comment spanning lines.
  EXPECT_EQ(StripCommentsAndStrings("x /* start", &in_block), "x ");
  EXPECT_TRUE(in_block);
  EXPECT_EQ(StripCommentsAndStrings("still new here */ y", &in_block), " y");
  EXPECT_FALSE(in_block);
}

// ---------- rules, inline content ----------

TEST(LintFileTest, CleanFilePasses) {
  const std::string content =
      "#ifndef WICLEAN_COMMON_DEMO_H_\n"
      "#define WICLEAN_COMMON_DEMO_H_\n"
      "int Add(int a, int b);\n"
      "#endif  // WICLEAN_COMMON_DEMO_H_\n";
  EXPECT_TRUE(LintFile("src/common/demo.h", content, false).empty());
}

TEST(LintFileTest, WrongIncludeGuardFlagged) {
  const std::string content =
      "#ifndef DEMO_H\n"
      "#define DEMO_H\n"
      "#endif\n";
  std::vector<LintFinding> f = LintFile("src/common/demo.h", content, false);
  ASSERT_TRUE(HasRule(f, "include-guard")) << f.size();
}

TEST(LintFileTest, MissingIncludeGuardFlagged) {
  std::vector<LintFinding> f =
      LintFile("src/common/demo.h", "int x;\n", false);
  EXPECT_TRUE(HasRule(f, "include-guard"));
}

TEST(LintFileTest, GuardWithoutDefineFlagged) {
  const std::string content =
      "#ifndef WICLEAN_COMMON_DEMO_H_\n"
      "int x;\n"
      "#endif\n";
  std::vector<LintFinding> f = LintFile("src/common/demo.h", content, false);
  EXPECT_TRUE(HasRule(f, "include-guard"));
}

TEST(LintFileTest, BannedFunctionsFlaggedEvenInTests) {
  const std::string content = "int x = rand();\nsprintf(buf, \"%d\", x);\n";
  std::vector<LintFinding> prod = LintFile("src/a.cc", content, false);
  std::vector<LintFinding> test = LintFile("tests/a_test.cc", content, true);
  EXPECT_EQ(RulesOf(prod),
            (std::vector<std::string>{"banned-function", "banned-function"}));
  EXPECT_EQ(RulesOf(test), RulesOf(prod));
}

TEST(LintFileTest, BannedFunctionNeedsCallSyntax) {
  // Identifiers that merely contain the name, or the name without a call,
  // do not fire.
  const std::string content =
      "int my_rand_count = 0;\n"
      "void Brand(int sprintf_like);\n";
  EXPECT_TRUE(LintFile("src/a.cc", content, false).empty());
}

TEST(LintFileTest, BannedFunctionInCommentOrStringIgnored) {
  const std::string content =
      "// rand() would be wrong here\n"
      "const char* kMsg = \"do not call sprintf()\";\n";
  EXPECT_TRUE(LintFile("src/a.cc", content, false).empty());
}

TEST(LintFileTest, RawNewFlaggedInProductionOnly) {
  const std::string content = "auto* p = new int(3);\n";
  EXPECT_TRUE(HasRule(LintFile("src/a.cc", content, false), "raw-new"));
  EXPECT_TRUE(LintFile("tests/a_test.cc", content, true).empty());
}

TEST(LintFileTest, RawNewSuppressible) {
  const std::string content =
      "static Mutex* mu = new Mutex;  // lint:allow(raw-new)\n";
  EXPECT_TRUE(LintFile("src/a.cc", content, false).empty());
}

TEST(LintFileTest, TodoFormat) {
  std::vector<LintFinding> f = LintFile(
      "src/a.cc", "// TODO: fix this\n", false);  // lint:allow(todo-format)
  EXPECT_TRUE(HasRule(f, "todo-format"));
  EXPECT_TRUE(
      LintFile("src/a.cc", "// TODO(miner): fix this\n", false).empty());
}

TEST(LintFileTest, UncheckedValueFlagged) {
  const std::string content =
      "Result<int> r = Parse(s);\n"
      "Use(r.value());\n";
  EXPECT_TRUE(HasRule(LintFile("src/a.cc", content, false),
                      "unchecked-value"));
}

TEST(LintFileTest, ValueWithNearbyOkCheckPasses) {
  const std::string content =
      "Result<int> r = Parse(s);\n"
      "if (!r.ok()) return r.status();\n"
      "Use(r.value());\n";
  EXPECT_TRUE(LintFile("src/a.cc", content, false).empty());
}

TEST(LintFileTest, ValueCheckWindowIsBounded) {
  // ok() check too far above the .value() no longer counts.
  std::string content = "if (!r.ok()) return r.status();\n";
  for (int i = 0; i < 8; ++i) content += "Unrelated(" + std::to_string(i) + ");\n";
  content += "Use(r.value());\n";
  EXPECT_TRUE(HasRule(LintFile("src/a.cc", content, false),
                      "unchecked-value"));
}

TEST(LintFileTest, ValueInTestsUnrestricted) {
  EXPECT_TRUE(
      LintFile("tests/a_test.cc", "Use(r.value());\n", true).empty());
}

TEST(LintFileTest, RawMemcpyFlaggedEverywhere) {
  const std::string content = "std::memcpy(&header, bytes, sizeof(header));\n";
  EXPECT_TRUE(HasRule(LintFile("src/a.cc", content, false), "raw-memcpy"));
  // Tests are not exempt: parsing via byte blits is wrong there too.
  EXPECT_TRUE(
      HasRule(LintFile("tests/a_test.cc", content, true), "raw-memcpy"));
  // Nor are the wire codecs: they read through common/wire.h's ByteReader.
  EXPECT_TRUE(HasRule(LintFile("src/serve/pattern_store.cc", content, false),
                      "raw-memcpy"));
  EXPECT_TRUE(HasRule(LintFile("src/log/action_log_codec.cc", content, false),
                      "raw-memcpy"));
}

TEST(LintFileTest, RawMemcpyNeedsCallSyntax) {
  const std::string content =
      "// memcpy would be wrong here\n"
      "int memcpy_count = 0;\n"
      "void LikeMemcpy(int memcpy_arg);\n";
  EXPECT_TRUE(LintFile("src/a.cc", content, false).empty());
}

TEST(LintFileTest, RawMemcpySuppressible) {
  const std::string content =
      "std::memcpy(dst, src, n);  // lint:allow(raw-memcpy)\n";
  EXPECT_TRUE(LintFile("src/a.cc", content, false).empty());
}

TEST(LintFileTest, SuppressionIsPerRule) {
  // A raw-new suppression does not silence a banned function on the line.
  const std::string content =
      "auto* p = new int(rand());  // lint:allow(raw-new)\n";
  std::vector<LintFinding> f = LintFile("src/a.cc", content, false);
  EXPECT_FALSE(HasRule(f, "raw-new"));
  EXPECT_TRUE(HasRule(f, "banned-function"));
}

TEST(LintFileTest, DeadSuppressionFlagged) {
  // The line no longer contains a raw new, so the allow is stale.
  const std::string content = "int x = 0;  // lint:allow(raw-new)\n";
  std::vector<LintFinding> f = LintFile("src/a.cc", content, false);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "dead-suppression");
  EXPECT_EQ(f[0].line, 1u);
}

TEST(LintFileTest, LiveSuppressionIsNotDead) {
  const std::string content =
      "static Mutex* mu = new Mutex;  // lint:allow(raw-new)\n";
  EXPECT_FALSE(
      HasRule(LintFile("src/a.cc", content, false), "dead-suppression"));
}

TEST(LintFileTest, DeadSuppressionCatchesUnknownRuleNames) {
  // A typo'd rule name can never match a finding, so it is always dead.
  const std::string content = "int x = rand();  // lint:allow(band-function)\n";
  std::vector<LintFinding> f = LintFile("src/a.cc", content, false);
  EXPECT_TRUE(HasRule(f, "banned-function"));  // typo did not silence it
  EXPECT_TRUE(HasRule(f, "dead-suppression"));
}

TEST(LintFileTest, SuppressionOnlyCountsInComments) {
  // The annotation inside a string literal is data, not a suppression, so
  // it is neither honored nor reported as dead.
  const std::string content =
      "const char* kHelp = \"silence with // lint:allow(raw-new)\";\n";
  EXPECT_TRUE(LintFile("src/a.cc", content, false).empty());
}

TEST(LintFileTest, PlaceholderProseIsNotASuppression) {
  // Documentation writing lint:allow(<rule>) with a placeholder must not be
  // parsed as a (necessarily dead) suppression of a rule named "<rule>".
  const std::string content = "// disable via lint:allow(<rule>) on the line\n";
  EXPECT_TRUE(LintFile("src/a.cc", content, false).empty());
}

TEST(LintFileTest, DeadSuppressionAppliesInTestFilesToo) {
  // raw-new never fires in test files, so allowing it there is always dead.
  const std::string content = "auto* p = new int(3);  // lint:allow(raw-new)\n";
  EXPECT_TRUE(HasRule(LintFile("tests/a_test.cc", content, true),
                      "dead-suppression"));
}

TEST(LintFileTest, FindingToStringFormat) {
  std::vector<LintFinding> f =
      LintFile("src/a.cc", "int x = rand();\n", false);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 1u);
  EXPECT_EQ(f[0].ToString().substr(0, 28), "src/a.cc:1: [banned-function");
}

// ---------- fixtures on disk ----------
// WICLEAN_LINT_TESTDATA is the absolute path to tools/lint/testdata,
// injected by CMake. Each bad_* fixture must trip exactly its named rule;
// good.h must be clean.

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(WICLEAN_LINT_TESTDATA) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(LintFixtureTest, GoodHeaderIsClean) {
  std::vector<LintFinding> f = LintFile(
      "tools/lint/fixtures/good.h", ReadFixture("good.h"), false);
  EXPECT_TRUE(f.empty()) << (f.empty() ? std::string() : f[0].ToString());
}

TEST(LintFixtureTest, BadFixturesEachTripTheirRule) {
  const struct {
    const char* file;
    const char* rule;
  } kCases[] = {
      {"bad_guard.h", "include-guard"},
      {"bad_banned.cc", "banned-function"},
      {"bad_raw_new.cc", "raw-new"},
      {"bad_todo.cc", "todo-format"},
      {"bad_unchecked_value.cc", "unchecked-value"},
      {"bad_memcpy.cc", "raw-memcpy"},
      {"bad_dead_suppression.cc", "dead-suppression"},
  };
  for (const auto& c : kCases) {
    std::vector<LintFinding> f =
        LintFile(std::string("tools/lint/fixtures/") + c.file,
                 ReadFixture(c.file), false);
    ASSERT_FALSE(f.empty()) << c.file;
    EXPECT_TRUE(HasRule(f, c.rule)) << c.file << " should trip " << c.rule;
  }
}

}  // namespace
}  // namespace lint
}  // namespace wiclean
