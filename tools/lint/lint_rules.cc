#include "lint_rules.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <utility>

namespace wiclean {
namespace lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True if `token` occurs in `text` as a whole word (no identifier char on
/// either side). Returns the position via *pos when found.
bool FindWord(std::string_view text, std::string_view token, size_t* pos) {
  size_t from = 0;
  while (true) {
    size_t hit = text.find(token, from);
    if (hit == std::string_view::npos) return false;
    bool left_ok = hit == 0 || !IsIdentChar(text[hit - 1]);
    size_t end = hit + token.size();
    bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) {
      if (pos != nullptr) *pos = hit;
      return true;
    }
    from = hit + 1;
  }
}

/// Position of the `//` that starts the line comment, skipping string and
/// character literals, or npos when the line has no line comment.
size_t LineCommentStart(std::string_view raw) {
  size_t i = 0;
  while (i < raw.size()) {
    char c = raw[i];
    if (c == '"' || c == '\'') {
      char quote = c;
      ++i;
      while (i < raw.size()) {
        if (raw[i] == '\\') {
          i += 2;
          continue;
        }
        if (raw[i] == quote) {
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '/') return i;
    ++i;
  }
  return std::string_view::npos;
}

/// Real rule names are kebab-case; anything else (e.g. the `<rule>`
/// placeholder in documentation prose) is not a suppression.
bool IsRuleShaped(std::string_view rule) {
  if (rule.empty()) return false;
  for (char c : rule) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-')) {
      return false;
    }
  }
  return true;
}

/// All rule names annotated `lint:allow(<rule>)` in the line's `//` comment.
/// Occurrences inside string literals do not count: a suppression is a
/// comment addressed to the linter, not data.
std::vector<std::string> SuppressionsOn(std::string_view raw_line) {
  std::vector<std::string> rules;
  size_t comment = LineCommentStart(raw_line);
  if (comment == std::string_view::npos) return rules;
  std::string_view text = raw_line.substr(comment);
  size_t hit = text.find("lint:allow(");
  while (hit != std::string_view::npos) {
    std::string_view rest = text.substr(hit + 11);
    size_t close = rest.find(')');
    if (close != std::string_view::npos && IsRuleShaped(rest.substr(0, close))) {
      rules.emplace_back(rest.substr(0, close));
    }
    hit = text.find("lint:allow(", hit + 1);
  }
  return rules;
}

/// A banned token and why it is banned.
struct BannedFunction {
  std::string_view name;
  std::string_view reason;
};

constexpr BannedFunction kBannedFunctions[] = {
    {"rand", "unseeded global PRNG; use wiclean::Rng (common/rng.h)"},
    {"srand", "unseeded global PRNG; use wiclean::Rng (common/rng.h)"},
    {"sprintf", "unbounded buffer write; use snprintf or std::string"},
    {"strtok", "stateful and not thread-safe; use SplitString"},
};

}  // namespace

std::string LintFinding::ToString() const {
  return path + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

bool IsTestPath(std::string_view path) {
  auto ends_with = [&](std::string_view s) {
    return path.size() >= s.size() &&
           path.substr(path.size() - s.size()) == s;
  };
  return path.substr(0, 6) == "tests/" ||
         path.find("/tests/") != std::string_view::npos ||
         path.find("testdata") != std::string_view::npos ||
         ends_with("_test.cc") || ends_with("_test.cpp");
}

std::string ExpectedIncludeGuard(std::string_view path) {
  if (path.substr(0, 4) == "src/") path.remove_prefix(4);
  std::string guard = "WICLEAN_";
  for (char c : path) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

std::string StripCommentsAndStrings(std::string_view line, bool* in_block) {
  std::string out;
  out.reserve(line.size());
  size_t i = 0;
  while (i < line.size()) {
    if (*in_block) {
      size_t close = line.find("*/", i);
      if (close == std::string_view::npos) return out;
      *in_block = false;
      i = close + 2;
      continue;
    }
    char c = line[i];
    if (c == '/' && i + 1 < line.size()) {
      if (line[i + 1] == '/') return out;  // line comment
      if (line[i + 1] == '*') {
        *in_block = true;
        i += 2;
        continue;
      }
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      out += quote;
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\') {
          i += 2;
          continue;
        }
        if (line[i] == quote) break;
        ++i;
      }
      if (i < line.size()) {
        out += quote;
        ++i;  // past the closing quote
      }
      continue;
    }
    out += c;
    ++i;
  }
  return out;
}

std::vector<LintFinding> LintFile(const std::string& path,
                                  std::string_view content,
                                  bool is_test_file) {
  // Candidates are collected before suppressions are applied, so a stale
  // `lint:allow(<rule>)` — one whose line no longer triggers <rule> — can be
  // detected instead of silently rotting.
  std::vector<LintFinding> candidates;
  auto report = [&](size_t line, std::string rule, std::string message) {
    candidates.push_back(LintFinding{path, line, std::move(rule),
                                     std::move(message)});
  };

  bool is_header = path.size() >= 2 &&
                   path.substr(path.size() - 2) == ".h";

  // Split into lines (keeping 1-based numbering).
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start <= content.size()) {
    size_t nl = content.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(content.substr(start));
      break;
    }
    lines.push_back(content.substr(start, nl - start));
    start = nl + 1;
  }

  // --- include-guard ------------------------------------------------------
  if (is_header) {
    std::string expected = ExpectedIncludeGuard(path);
    std::string ifndef_line;
    size_t ifndef_number = 0;
    bool in_block = false;
    for (size_t n = 0; n < lines.size(); ++n) {
      std::string stripped = StripCommentsAndStrings(lines[n], &in_block);
      std::string_view sv(stripped);
      size_t hash = sv.find_first_not_of(" \t");
      if (hash == std::string_view::npos) continue;
      sv.remove_prefix(hash);
      if (sv.substr(0, 7) == "#ifndef") {
        ifndef_line = std::string(sv);
        ifndef_number = n + 1;
      }
      if (!sv.empty() && sv[0] != '#' && ifndef_line.empty()) break;
      if (!ifndef_line.empty()) break;
    }
    if (ifndef_line.empty()) {
      report(1, "include-guard",
             "header has no include guard; expected #ifndef " + expected);
    } else if (!FindWord(ifndef_line, expected, nullptr)) {
      report(ifndef_number, "include-guard",
             "include guard does not match the path; expected " + expected);
    } else {
      // The matching #define must follow on some later line.
      bool defined = false;
      for (const auto& l : lines) {
        std::string_view sv(l);
        if (sv.find("#define") != std::string_view::npos &&
            FindWord(sv, expected, nullptr)) {
          defined = true;
          break;
        }
      }
      if (!defined) {
        report(ifndef_number, "include-guard",
               "include guard " + expected + " is never #defined");
      }
    }
  }

  // --- per-line token rules ----------------------------------------------
  // Sliding window of recent stripped lines for the unchecked-value rule.
  constexpr size_t kValueCheckWindow = 6;  // current line + 5 above
  std::deque<std::string> recent;
  bool in_block = false;
  for (size_t n = 0; n < lines.size(); ++n) {
    std::string_view raw = lines[n];
    std::string stripped = StripCommentsAndStrings(raw, &in_block);
    size_t line_number = n + 1;

    // banned-function: applies everywhere, including tests.
    for (const BannedFunction& banned : kBannedFunctions) {
      size_t pos = 0;
      if (FindWord(stripped, banned.name, &pos) &&
          stripped.size() > pos + banned.name.size() &&
          stripped[pos + banned.name.size()] == '(') {
        report(line_number, "banned-function",
               std::string(banned.name) + "() is banned: " +
                   std::string(banned.reason));
      }
    }

    // raw-memcpy: applies everywhere, tests and the wire codecs included —
    // binary data is read through common/wire.h's ByteReader.
    {
      size_t pos = 0;
      if (FindWord(stripped, "memcpy", &pos) &&
          stripped.size() > pos + 6 && stripped[pos + 6] == '(') {
        report(line_number, "raw-memcpy",
               "memcpy() is banned: deserialize through the bounds-checked "
               "ByteReader in common/wire.h, not byte blits into structs");
      }
    }

    // todo-format, checked on the raw line since TODOs live in comments.
    // (Mentions of the token in this block suppress themselves.)
    size_t todo = 0;
    if (FindWord(raw, "TODO", &todo)) {  // lint:allow(todo-format)
      std::string_view rest = std::string_view(raw).substr(todo + 4);
      bool well_formed = false;
      if (!rest.empty() && rest[0] == '(') {
        size_t close = rest.find(')');
        well_formed = close != std::string_view::npos && close > 1 &&
                      close + 1 < rest.size() && rest[close + 1] == ':';
      }
      if (!well_formed) {
        report(
            line_number, "todo-format",
            "TODO must name an owner: TODO(name): ...");  // lint:allow(todo-format)
      }
    }

    // raw-new: production code only.
    if (!is_test_file) {
      size_t pos = 0;
      if (FindWord(stripped, "new", &pos)) {
        report(line_number, "raw-new",
               "raw new is banned outside tests; use containers, "
               "make_unique, or a registry (intentional static-lifetime "
               "leaks: // lint:allow(raw-new))");
      }
    }

    // unchecked-value: production code only; .value() needs a visible ok()
    // check nearby or one of the checked macros.
    if (!is_test_file) {
      size_t pos = stripped.find(".value()");
      if (pos != std::string::npos) {
        bool checked = false;
        auto window_has = [&](std::string_view needle) {
          if (stripped.find(needle) != std::string::npos) return true;
          for (const std::string& prev : recent) {
            if (prev.find(needle) != std::string::npos) return true;
          }
          return false;
        };
        checked = window_has("ok()") || window_has("WICLEAN_ASSIGN_OR_RETURN") ||
                  window_has("WICLEAN_CHECK_OK") || window_has("ASSERT_") ||
                  window_has("EXPECT_");
        if (!checked) {
          report(line_number, "unchecked-value",
                 ".value() without a visible ok() check in the preceding " +
                     std::to_string(kValueCheckWindow - 1) +
                     " lines; use WICLEAN_ASSIGN_OR_RETURN / "
                     "WICLEAN_CHECK_OK or keep the check adjacent");
        }
      }
    }

    recent.push_back(std::move(stripped));
    if (recent.size() >= kValueCheckWindow) recent.pop_front();
  }

  // --- suppression filtering + dead-suppression ---------------------------
  // A suppression silences same-line findings of its rule. One that matches
  // nothing is stale — the code it excused has been rewritten — and is
  // itself a finding, so suppressions cannot outlive their reason.
  // (dead-suppression is deliberately not suppressible.)
  std::vector<std::pair<size_t, std::string>> suppressions;
  for (size_t n = 0; n < lines.size(); ++n) {
    for (std::string& rule : SuppressionsOn(lines[n])) {
      suppressions.emplace_back(n + 1, std::move(rule));
    }
  }

  std::vector<LintFinding> findings;
  for (LintFinding& f : candidates) {
    bool silenced = false;
    for (const auto& [line, rule] : suppressions) {
      if (line == f.line && rule == f.rule) {
        silenced = true;
        break;
      }
    }
    if (!silenced) findings.push_back(std::move(f));
  }
  for (const auto& [line, rule] : suppressions) {
    bool live = false;
    for (const LintFinding& f : candidates) {
      if (f.line == line && f.rule == rule) {
        live = true;
        break;
      }
    }
    if (!live) {
      findings.push_back(LintFinding{
          path, line, "dead-suppression",
          "lint:allow(" + rule + ") matches no " + rule +
              " finding on this line; remove the stale suppression"});
    }
  }
  std::stable_sort(findings.begin(), findings.end(),
                   [](const LintFinding& a, const LintFinding& b) {
                     return a.line < b.line;
                   });

  return findings;
}

}  // namespace lint
}  // namespace wiclean
