#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sbmp/ir/expr.h"
#include "sbmp/ir/loop.h"
#include "sbmp/support/source_location.h"

namespace sbmp {

/// A statement of the *pre-restructuring* loop form: the left-hand side
/// may be a scalar. The restructuring passes (scalar expansion,
/// reduction replacement, induction-variable substitution — the three
/// transformations the paper applies to turn DO loops into DOACROSS
/// form) eliminate every scalar definition, producing a plain Loop.
struct PreStatement {
  /// Scalar LHS when non-empty; otherwise `lhs` is the array target.
  std::string scalar_lhs;
  ArrayRef lhs;
  Expr rhs;
  SourceLoc loc;

  [[nodiscard]] bool is_scalar() const { return !scalar_lhs.empty(); }
};

/// A loop before restructuring.
struct PreLoop {
  std::string name;
  std::string iter_var;
  std::int64_t lower = 1;
  std::int64_t upper = 1;
  bool declared_doacross = false;
  std::vector<PreStatement> body;
  std::map<std::string, ElemType> array_types;
  /// Known entry values of scalars (`init k = 3` in LoopLang); needed
  /// when an induction variable feeds a subscript.
  std::map<std::string, std::int64_t> scalar_inits;

  [[nodiscard]] std::int64_t trip_count() const {
    return upper >= lower ? upper - lower + 1 : 0;
  }
  [[nodiscard]] std::string to_string() const;
};

struct PreProgram {
  std::vector<PreLoop> loops;
};

/// Renders one pre-statement, e.g. "sum = (sum+A[I])".
[[nodiscard]] std::string pre_statement_to_string(const PreStatement& s,
                                                  const std::string& iter_var);

/// Converts a scalar-free PreLoop into a plain Loop (assigning statement
/// ids), moving its names and expression trees; returns nullopt when
/// scalar definitions or inits remain. Pass an rvalue to avoid copying
/// the trees.
[[nodiscard]] std::optional<Loop> pre_to_plain(PreLoop pre);

}  // namespace sbmp
