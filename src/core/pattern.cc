#include "core/pattern.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>

namespace wiclean {

int Pattern::AddVar(TypeId type) {
  var_types_.push_back(type);
  var_bindings_.push_back(kInvalidEntityId);
  return static_cast<int>(var_types_.size()) - 1;
}

Status Pattern::BindVar(int var, EntityId value) {
  if (var < 0 || static_cast<size_t>(var) >= var_types_.size()) {
    return Status::InvalidArgument("binding references unknown var");
  }
  var_bindings_[var] = value;
  return Status::OK();
}

bool Pattern::HasBindings() const {
  for (EntityId b : var_bindings_) {
    if (b != kInvalidEntityId) return true;
  }
  return false;
}

Status Pattern::AddAction(EditOp op, int source_var,
                          const std::string& relation, int target_var) {
  if (source_var < 0 || static_cast<size_t>(source_var) >= var_types_.size() ||
      target_var < 0 || static_cast<size_t>(target_var) >= var_types_.size()) {
    return Status::InvalidArgument("abstract action references unknown var");
  }
  actions_.push_back(AbstractAction{op, source_var, relation, target_var});
  return Status::OK();
}

Status Pattern::SetSourceVar(int var) {
  if (var < 0 || static_cast<size_t>(var) >= var_types_.size()) {
    return Status::InvalidArgument("source var out of range");
  }
  source_var_ = var;
  return Status::OK();
}

std::vector<TypeId> Pattern::DistinctVarTypes() const {
  std::vector<TypeId> types = var_types_;
  std::sort(types.begin(), types.end());
  types.erase(std::unique(types.begin(), types.end()), types.end());
  return types;
}

bool Pattern::ConnectedFrom(int from) const {
  if (from < 0 || static_cast<size_t>(from) >= var_types_.size()) return false;
  std::vector<char> seen(var_types_.size(), 0);
  std::vector<int> stack = {from};
  seen[from] = 1;
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    for (const AbstractAction& a : actions_) {
      if (a.source_var == v && !seen[a.target_var]) {
        seen[a.target_var] = 1;
        stack.push_back(a.target_var);
      }
    }
  }
  return std::all_of(seen.begin(), seen.end(), [](char c) { return c != 0; });
}

bool Pattern::IsConnected() const { return ConnectedFrom(source_var_); }

namespace {

/// Encodes the pattern under the variable renaming `perm` (perm[old] = new).
/// The action list is sorted so the encoding is order-insensitive.
std::string EncodeUnder(const Pattern& p, const std::vector<int>& perm) {
  auto var_token = [&](int v) {
    std::string t = std::to_string(perm[v]);
    t += ':';
    t += std::to_string(p.var_type(v));
    if (p.var_binding(v) != kInvalidEntityId) {
      t += '=';
      t += std::to_string(p.var_binding(v));
    }
    return t;
  };
  std::vector<std::string> parts;
  parts.reserve(p.num_actions());
  for (const AbstractAction& a : p.actions()) {
    std::string s;
    s += a.op == EditOp::kAdd ? '+' : '-';
    s += ' ';
    s += var_token(a.source_var);
    s += ' ';
    s += a.relation;
    s += ' ';
    s += var_token(a.target_var);
    parts.push_back(std::move(s));
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  if (p.source_var() >= 0) {
    out += "src=";
    out += var_token(p.source_var());
  }
  for (const std::string& s : parts) {
    out += '|';
    out += s;
  }
  return out;
}

}  // namespace

std::string Pattern::CanonicalKey() const {
  const size_t n = var_types_.size();
  // Group variable indices by type; only same-type permutations are
  // isomorphisms. Enumerate permutations independently per type group.
  std::map<TypeId, std::vector<int>> groups;
  for (size_t i = 0; i < n; ++i) {
    groups[var_types_[i]].push_back(static_cast<int>(i));
  }

  // perm[old_var] = new_var id. Start with the identity within each group
  // (new ids assigned densely by (type, group position)).
  std::vector<int> base(n);
  {
    int next = 0;
    for (auto& [type, vars] : groups) {
      for (int v : vars) base[v] = next++;
    }
  }

  std::string best;
  // Iterate the cartesian product of per-group permutations via recursion.
  std::vector<std::pair<TypeId, std::vector<int>>> group_list(groups.begin(),
                                                              groups.end());
  std::vector<int> perm = base;

  // new-id block start per group.
  std::vector<int> block_start(group_list.size());
  {
    int next = 0;
    for (size_t g = 0; g < group_list.size(); ++g) {
      block_start[g] = next;
      next += static_cast<int>(group_list[g].second.size());
    }
  }

  std::function<void(size_t)> recurse = [&](size_t g) {
    if (g == group_list.size()) {
      std::string enc = EncodeUnder(*this, perm);
      if (best.empty() || enc < best) best = std::move(enc);
      return;
    }
    std::vector<int>& vars = group_list[g].second;
    std::vector<int> order(vars.size());
    std::iota(order.begin(), order.end(), 0);
    do {
      for (size_t i = 0; i < vars.size(); ++i) {
        perm[vars[i]] = block_start[g] + order[i];
      }
      recurse(g + 1);
    } while (std::next_permutation(order.begin(), order.end()));
  };
  recurse(0);
  return best;
}

std::string Pattern::ToString(const TypeTaxonomy& taxonomy) const {
  std::string out = "{";
  for (size_t i = 0; i < actions_.size(); ++i) {
    const AbstractAction& a = actions_[i];
    if (i > 0) out += ", ";
    auto var_name = [&](int v) {
      std::string t = taxonomy.Name(var_types_[v]) + "#" + std::to_string(v);
      if (var_bindings_[v] != kInvalidEntityId) {
        t += "=e" + std::to_string(var_bindings_[v]);
      }
      return t;
    };
    out += a.op == EditOp::kAdd ? "+" : "-";
    out += " (";
    out += var_name(a.source_var);
    out += ", ";
    out += a.relation;
    out += ", ";
    out += var_name(a.target_var);
    out += ")";
  }
  out += "}";
  if (source_var_ >= 0) {
    out += ", source=";
    out += taxonomy.Name(var_types_[source_var_]);
    out += "#" + std::to_string(source_var_);
  }
  return out;
}

namespace {

/// Backtracking search for an injective, type-respecting mapping of
/// `general`'s variables into `specific`'s such that every action of
/// `general` is covered (same op + relation, mapped endpoints).
bool FindEmbedding(const Pattern& specific, const Pattern& general,
                   const TypeTaxonomy& taxonomy, std::vector<int>* mapping,
                   size_t next_action) {
  if (next_action == general.num_actions()) {
    // All actions matched; check the source designation maps correctly.
    if (general.source_var() >= 0) {
      int mapped = (*mapping)[general.source_var()];
      if (mapped != -1 && mapped != specific.source_var()) return false;
      if (mapped == -1 &&
          !taxonomy.IsA(specific.var_type(specific.source_var()),
                        general.var_type(general.source_var()))) {
        return false;
      }
      // A yet-unmapped general source can only happen for a pattern with no
      // actions; bind it to specific's source.
    }
    return true;
  }

  const AbstractAction& ga = general.actions()[next_action];
  for (const AbstractAction& sa : specific.actions()) {
    if (sa.op != ga.op || sa.relation != ga.relation) continue;
    // Try mapping ga.source_var -> sa.source_var, ga.target_var ->
    // sa.target_var, consistent with current bindings, injective, and with
    // general's types generalizing specific's.
    auto try_bind = [&](int gvar, int svar, std::vector<int>* undo) {
      if (!taxonomy.IsA(specific.var_type(svar), general.var_type(gvar))) {
        return false;
      }
      // A value-bound general variable only embeds into the same binding; a
      // free general variable embeds into anything (bound = more specific).
      if (general.var_binding(gvar) != kInvalidEntityId &&
          general.var_binding(gvar) != specific.var_binding(svar)) {
        return false;
      }
      if ((*mapping)[gvar] != -1) return (*mapping)[gvar] == svar;
      for (size_t i = 0; i < mapping->size(); ++i) {
        if ((*mapping)[i] == svar) return false;  // injectivity
      }
      (*mapping)[gvar] = svar;
      undo->push_back(gvar);
      return true;
    };

    std::vector<int> undo;
    bool ok = try_bind(ga.source_var, sa.source_var, &undo) &&
              try_bind(ga.target_var, sa.target_var, &undo);
    if (ok && FindEmbedding(specific, general, taxonomy, mapping,
                            next_action + 1)) {
      return true;
    }
    for (int gvar : undo) (*mapping)[gvar] = -1;
  }
  return false;
}

}  // namespace

bool IsSpecializationOf(const Pattern& specific, const Pattern& general,
                        const TypeTaxonomy& taxonomy) {
  if (general.num_actions() > specific.num_actions()) return false;
  std::vector<int> mapping(general.num_vars(), -1);
  return FindEmbedding(specific, general, taxonomy, &mapping, 0);
}

bool IsStrictSpecializationOf(const Pattern& specific, const Pattern& general,
                              const TypeTaxonomy& taxonomy) {
  return IsSpecializationOf(specific, general, taxonomy) &&
         !IsSpecializationOf(general, specific, taxonomy);
}

Result<Pattern> SubPattern(const Pattern& pattern,
                           const std::vector<size_t>& action_indices) {
  Pattern sub;
  std::vector<int> var_map(pattern.num_vars(), -1);
  auto map_var = [&](int v) {
    if (var_map[v] < 0) {
      var_map[v] = sub.AddVar(pattern.var_type(v));
      if (pattern.var_binding(v) != kInvalidEntityId) {
        (void)sub.BindVar(var_map[v], pattern.var_binding(v));
      }
    }
    return var_map[v];
  };
  for (size_t ai : action_indices) {
    if (ai >= pattern.num_actions()) {
      return Status::InvalidArgument("sub-pattern action index out of range");
    }
    const AbstractAction& a = pattern.actions()[ai];
    WICLEAN_RETURN_IF_ERROR(sub.AddAction(a.op, map_var(a.source_var),
                                          a.relation, map_var(a.target_var)));
  }
  if (pattern.source_var() < 0 || var_map[pattern.source_var()] < 0) {
    return Status::InvalidArgument(
        "sub-pattern does not reference the source variable");
  }
  WICLEAN_RETURN_IF_ERROR(sub.SetSourceVar(var_map[pattern.source_var()]));
  return sub;
}

Result<std::vector<size_t>> PatternTraversalOrder(const Pattern& pattern) {
  std::vector<size_t> order;
  std::vector<char> used(pattern.num_actions(), 0);
  std::vector<char> known(pattern.num_vars(), 0);
  if (pattern.source_var() < 0) {
    return Status::InvalidArgument("pattern has no source variable");
  }
  known[pattern.source_var()] = 1;
  while (order.size() < pattern.num_actions()) {
    bool advanced = false;
    for (size_t i = 0; i < pattern.num_actions(); ++i) {
      if (used[i]) continue;
      const AbstractAction& a = pattern.actions()[i];
      if (!known[a.source_var]) continue;
      used[i] = 1;
      known[a.target_var] = 1;
      order.push_back(i);
      advanced = true;
    }
    if (!advanced) {
      return Status::InvalidArgument(
          "pattern is not connected from its source variable");
    }
  }
  return order;
}

std::vector<size_t> MostSpecificPatterns(
    const std::vector<const Pattern*>& patterns, const TypeTaxonomy& taxonomy) {
  std::vector<size_t> out;
  for (size_t i = 0; i < patterns.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < patterns.size(); ++j) {
      if (i == j) continue;
      if (IsStrictSpecializationOf(*patterns[j], *patterns[i], taxonomy)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(i);
  }
  return out;
}

}  // namespace wiclean
