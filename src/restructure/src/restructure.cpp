#include "sbmp/restructure/restructure.h"

#include <algorithm>
#include <map>
#include <set>

namespace sbmp {

std::string RestructureNote::to_string() const {
  const char* kind_name = "";
  switch (kind) {
    case Kind::kInductionSubstitution:
      kind_name = "induction-variable substitution";
      break;
    case Kind::kReductionReplacement:
      kind_name = "reduction replacement";
      break;
    case Kind::kScalarExpansion:
      kind_name = "scalar expansion";
      break;
  }
  return std::string(kind_name) + " of '" + scalar + "': " + detail;
}

bool RestructureResult::applied(RestructureNote::Kind kind) const {
  return std::any_of(notes.begin(), notes.end(),
                     [kind](const RestructureNote& n) {
                       return n.kind == kind;
                     });
}

namespace {

/// Replaces every ScalarRef(name) in `e` by `replacement(position_hint)`.
void substitute_scalar(Expr& e, const std::string& name,
                       const Expr& replacement) {
  if (auto* ref = std::get_if<ScalarRef>(&e)) {
    if (ref->name == name) e = replacement;
    return;
  }
  if (auto* bin = std::get_if<BinaryExpr>(&e)) {
    if (bin->lhs) substitute_scalar(*bin->lhs, name, replacement);
    if (bin->rhs) substitute_scalar(*bin->rhs, name, replacement);
  }
}

bool uses_scalar(const Expr& e, const std::string& name) {
  std::vector<ScalarRef> refs;
  collect_scalar_refs(e, refs);
  return std::any_of(refs.begin(), refs.end(), [&](const ScalarRef& r) {
    return r.name == name;
  });
}

int count_scalar_uses(const Expr& e, const std::string& name) {
  std::vector<ScalarRef> refs;
  collect_scalar_refs(e, refs);
  return static_cast<int>(
      std::count_if(refs.begin(), refs.end(), [&](const ScalarRef& r) {
        return r.name == name;
      }));
}

/// Matches `s = s ± c` / `s = c + s` for integer constant c; returns the
/// signed step.
std::optional<std::int64_t> match_induction(const PreStatement& def,
                                            const std::string& scalar) {
  const auto* bin = std::get_if<BinaryExpr>(&def.rhs);
  if (!bin || !bin->lhs || !bin->rhs) return std::nullopt;
  const auto is_self = [&](const Expr& e) {
    const auto* ref = std::get_if<ScalarRef>(&e);
    return ref != nullptr && ref->name == scalar;
  };
  const auto as_const = [](const Expr& e) -> std::optional<std::int64_t> {
    const auto* c = std::get_if<IntConst>(&e);
    if (c == nullptr) return std::nullopt;
    return c->value;
  };
  if (bin->op == BinOp::kAdd) {
    if (is_self(*bin->lhs)) {
      if (const auto c = as_const(*bin->rhs)) return *c;
    }
    if (is_self(*bin->rhs)) {
      if (const auto c = as_const(*bin->lhs)) return *c;
    }
  }
  if (bin->op == BinOp::kSub && is_self(*bin->lhs)) {
    if (const auto c = as_const(*bin->rhs)) return -*c;
  }
  return std::nullopt;
}

/// Matches the reduction shape `s = s ⊕ e` / `s = e + s` (s exactly once
/// on the RHS); returns the expression `e` and the operator.
struct ReductionMatch {
  BinOp op;
  Expr rest;
  bool self_on_left;
};

std::optional<ReductionMatch> match_reduction(const PreStatement& def,
                                              const std::string& scalar) {
  const auto* bin = std::get_if<BinaryExpr>(&def.rhs);
  if (!bin || !bin->lhs || !bin->rhs) return std::nullopt;
  if (count_scalar_uses(def.rhs, scalar) != 1) return std::nullopt;
  const auto* left = std::get_if<ScalarRef>(&*bin->lhs);
  const auto* right = std::get_if<ScalarRef>(&*bin->rhs);
  if (left != nullptr && left->name == scalar &&
      (bin->op == BinOp::kAdd || bin->op == BinOp::kMul ||
       bin->op == BinOp::kSub)) {
    return ReductionMatch{bin->op, *bin->rhs, true};
  }
  if (right != nullptr && right->name == scalar &&
      (bin->op == BinOp::kAdd || bin->op == BinOp::kMul)) {
    return ReductionMatch{bin->op, *bin->lhs, false};
  }
  return std::nullopt;
}

/// Closed form of an induction variable at a use site.
Expr induction_value(const std::string& scalar,
                     const std::optional<std::int64_t>& init,
                     std::int64_t step, std::int64_t lower, int increments) {
  // value = base + step * (I - lower + increments)
  // With a known init the base folds into the constant term.
  Expr scaled = make_bin(
      BinOp::kMul, make_const(step),
      make_bin(BinOp::kAdd, Expr{IterVar{}},
               make_const(-lower + increments)));
  if (init.has_value()) {
    return make_bin(BinOp::kAdd, make_const(*init), std::move(scaled));
  }
  return make_bin(BinOp::kAdd, make_scalar(scalar), std::move(scaled));
}

}  // namespace

RestructureResult restructure_loop(const PreLoop& pre, DiagEngine& diags) {
  RestructureResult result;
  PreLoop work = pre;

  // Scalars defined in the loop, with their definition positions.
  std::map<std::string, std::vector<std::size_t>> defs;
  for (std::size_t p = 0; p < work.body.size(); ++p) {
    if (work.body[p].is_scalar())
      defs[work.body[p].scalar_lhs].push_back(p);
  }

  // Names already taken (for fresh expansion arrays).
  std::set<std::string> taken;
  for (const auto& stmt : work.body) {
    if (!stmt.is_scalar()) taken.insert(stmt.lhs.array);
    std::vector<ArrayRef> refs;
    collect_array_refs(stmt.rhs, refs);
    for (const auto& r : refs) taken.insert(r.array);
  }
  const auto fresh_array = [&](const std::string& scalar) {
    std::string name = scalar + "_x";
    while (taken.count(name)) name += "x";
    taken.insert(name);
    return name;
  };

  // ---- Pass 1: induction-variable substitution ----------------------
  for (auto it = defs.begin(); it != defs.end();) {
    const std::string& scalar = it->first;
    if (it->second.size() != 1) {
      ++it;
      continue;
    }
    const std::size_t def_pos = it->second.front();
    const auto step = match_induction(work.body[def_pos], scalar);
    if (!step) {
      ++it;
      continue;
    }
    std::optional<std::int64_t> init;
    if (const auto init_it = work.scalar_inits.find(scalar);
        init_it != work.scalar_inits.end()) {
      init = init_it->second;
      work.scalar_inits.erase(init_it);
    }
    // Uses textually at or before the definition see `t` increments in
    // iteration lower+t; uses after it see t+1.
    for (std::size_t q = 0; q < work.body.size(); ++q) {
      if (q == def_pos) continue;
      if (!uses_scalar(work.body[q].rhs, scalar)) continue;
      const int increments = q > def_pos ? 1 : 0;
      substitute_scalar(work.body[q].rhs, scalar,
                        induction_value(scalar, init, *step, work.lower,
                                        increments));
    }
    work.body.erase(work.body.begin() +
                    static_cast<std::ptrdiff_t>(def_pos));
    // Reindex remaining definition positions.
    for (auto& [name, positions] : defs) {
      for (auto& p : positions) {
        if (p > def_pos) --p;
      }
    }
    result.notes.push_back(
        {RestructureNote::Kind::kInductionSubstitution, scalar,
         "step " + std::to_string(*step) +
             (init ? ", entry value " + std::to_string(*init)
                   : ", symbolic entry value")});
    it = defs.erase(it);
  }

  // ---- Pass 2: reduction replacement / scalar expansion --------------
  for (auto& [scalar, positions] : defs) {
    const std::string array = fresh_array(scalar);

    // Pure reduction: single definition `s = s ⊕ e`, s unused elsewhere.
    bool is_reduction = false;
    if (positions.size() == 1) {
      const std::size_t def_pos = positions.front();
      if (const auto red = match_reduction(work.body[def_pos], scalar)) {
        bool used_elsewhere = false;
        for (std::size_t q = 0; q < work.body.size(); ++q) {
          if (q != def_pos && uses_scalar(work.body[q].rhs, scalar))
            used_elsewhere = true;
        }
        if (!used_elsewhere) is_reduction = true;
      }
    }

    // Both forms rewrite the same way; the note differs. Uses before the
    // first definition of the iteration (and the self-reference inside a
    // definition) read the previous iteration's value.
    const std::size_t first_def = positions.front();
    const Expr prev_value = make_ref(array, -1);
    const Expr this_value = make_ref(array, 0);
    for (std::size_t q = 0; q < work.body.size(); ++q) {
      auto& stmt = work.body[q];
      const bool is_def = stmt.is_scalar() && stmt.scalar_lhs == scalar;
      if (is_def) {
        // The first definition's self-reference sees the previous
        // iteration's value; later redefinitions see this iteration's.
        substitute_scalar(stmt.rhs, scalar,
                          q == first_def ? prev_value : this_value);
        stmt.scalar_lhs.clear();
        stmt.lhs = ArrayRef{array, {1, 0}};
      } else if (uses_scalar(stmt.rhs, scalar)) {
        substitute_scalar(stmt.rhs, scalar,
                          q < first_def ? prev_value : this_value);
      }
    }
    if (const auto init_it = work.scalar_inits.find(scalar);
        init_it != work.scalar_inits.end()) {
      work.scalar_inits.erase(init_it);
    }
    if (const auto type_it = work.array_types.find(scalar);
        type_it != work.array_types.end()) {
      work.array_types[array] = type_it->second;
    }
    result.notes.push_back(
        {is_reduction ? RestructureNote::Kind::kReductionReplacement
                      : RestructureNote::Kind::kScalarExpansion,
         scalar,
         "expanded into " + array + "[...]; " + array + "[" +
             std::to_string(work.lower - 1) +
             "] carries the entry value" +
             (is_reduction ? "; combine the partial results after the loop"
                           : "")});
  }

  // ---- Finalize -------------------------------------------------------
  // Leftover inits belong to loop parameters that were never defined in
  // the loop; they impose nothing.
  work.scalar_inits.clear();
  auto plain = pre_to_plain(std::move(work));
  if (!plain) {
    diags.error({}, "restructuring left scalar statements behind in loop '" +
                        pre.name + "'");
    return result;
  }
  result.loop = std::move(*plain);
  result.ok = true;
  return result;
}

RestructureResult restructure_or_throw(const PreLoop& pre) {
  DiagEngine diags;
  RestructureResult result = restructure_loop(pre, diags);
  if (!diags.ok())
    throw SbmpError("restructuring failed:\n" + diags.render());
  return result;
}

}  // namespace sbmp
