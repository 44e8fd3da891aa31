#ifndef WICLEAN_TOOLS_LINT_LINT_RULES_H_
#define WICLEAN_TOOLS_LINT_LINT_RULES_H_

#include <string>
#include <string_view>
#include <vector>

namespace wiclean {
namespace lint {

/// The repo lint tool: enforces WiClean source conventions the compiler
/// cannot (see tools/lint/README note in DESIGN.md §"Static analysis &
/// contracts"). Runs as the `repo_lint` ctest and as a CI job.
///
/// Rules (rule names are what `// lint:allow(<rule>)` suppresses):
///   include-guard     .h guard must be WICLEAN_<PATH>_H_ (path relative to
///                     the repo root, with a leading "src/" dropped)
///   banned-function   rand / sprintf / strtok — unseeded randomness and
///                     unbounded/stateful C string APIs (use Rng,
///                     snprintf/std::string, SplitString)
///   raw-new           `new` outside tests: ownership lives in containers,
///                     unique_ptr, or the registries — intentional leaks
///                     (static-lifetime singletons) carry the suppression
///   todo-format       TODO must be TODO(owner): — lint:allow(todo-format)
///                     so every deferral has an owner
///   unchecked-value   .value() on a Result in non-test code with no visible
///                     ok() check in the preceding lines (use
///                     WICLEAN_ASSIGN_OR_RETURN / WICLEAN_CHECK_OK, or keep
///                     the check adjacent)
///   raw-memcpy        memcpy() calls, in every file — blitting wire bytes
///                     into structs skips bounds and validity checks, so
///                     binary data is read through the bounds-checked
///                     ByteReader in src/common/wire.h
///   dead-suppression  a lint:allow comment on a line that no longer
///                     triggers the named rule (including typo'd rule
///                     names): the code it excused was rewritten, so the
///                     stale suppression must be removed. Suppressions only
///                     count inside // comments, never in string literals,
///                     and this rule is itself not suppressible.

/// One rule violation at a file:line.
struct LintFinding {
  std::string path;     // as given to LintFile
  size_t line = 0;      // 1-based
  std::string rule;     // rule name, e.g. "banned-function"
  std::string message;  // human-readable description

  std::string ToString() const;
};

/// Lints one file's content. `path` is the repo-relative path (used for the
/// include-guard rule and in findings); `is_test_file` relaxes the rules
/// that only apply to production code (raw-new, unchecked-value).
std::vector<LintFinding> LintFile(const std::string& path,
                                  std::string_view content,
                                  bool is_test_file);

/// True for paths the test-only rule relaxations apply to: anything under
/// tests/, *_test.cc / *_test.cpp, and lint fixtures under testdata/.
bool IsTestPath(std::string_view path);

/// The include guard the convention demands for `path` (a .h repo-relative
/// path): "src/common/status.h" -> "WICLEAN_COMMON_STATUS_H_",
/// "tools/lint/lint_rules.h" -> "WICLEAN_TOOLS_LINT_LINT_RULES_H_".
std::string ExpectedIncludeGuard(std::string_view path);

/// Strips // and /* */ comments and the contents of string/char literals
/// (replaced by spaces), so token rules do not fire on prose. `in_block` is
/// carried across lines of one file.
std::string StripCommentsAndStrings(std::string_view line, bool* in_block);

}  // namespace lint
}  // namespace wiclean

#endif  // WICLEAN_TOOLS_LINT_LINT_RULES_H_
