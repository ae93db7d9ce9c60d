#include "sbmp/ir/preloop.h"

#include <utility>

namespace sbmp {

std::string pre_statement_to_string(const PreStatement& s,
                                    const std::string& iter_var) {
  std::string out;
  if (s.is_scalar()) {
    out = s.scalar_lhs;
  } else {
    out = s.lhs.array + "[" + s.lhs.index.to_string(iter_var) + "]";
  }
  out += " = " + expr_to_string(s.rhs, iter_var);
  return out;
}

std::string PreLoop::to_string() const {
  std::string out;
  if (!name.empty()) out += "loop " + name + "\n";
  out += declared_doacross ? "doacross " : "do ";
  out += iter_var + " = " + std::to_string(lower) + ", " +
         std::to_string(upper) + "\n";
  for (const auto& [array, type] : array_types) {
    if (type == ElemType::kInt) out += "  int " + array + "\n";
  }
  for (const auto& [scalar, value] : scalar_inits) {
    out += "  init " + scalar + " = " + std::to_string(value) + "\n";
  }
  for (const auto& s : body) {
    out += "  " + pre_statement_to_string(s, iter_var) + "\n";
  }
  out += "end\n";
  return out;
}

std::optional<Loop> pre_to_plain(PreLoop pre) {
  if (!pre.scalar_inits.empty()) return std::nullopt;
  for (const auto& s : pre.body)
    if (s.is_scalar()) return std::nullopt;
  Loop loop;
  loop.name = std::move(pre.name);
  loop.iter_var = std::move(pre.iter_var);
  loop.lower = pre.lower;
  loop.upper = pre.upper;
  loop.declared_doacross = pre.declared_doacross;
  loop.array_types = std::move(pre.array_types);
  loop.body.reserve(pre.body.size());
  for (auto& s : pre.body) {
    Statement stmt;
    stmt.id = static_cast<int>(loop.body.size()) + 1;
    stmt.lhs = std::move(s.lhs);
    stmt.rhs = std::move(s.rhs);
    stmt.loc = s.loc;
    loop.body.push_back(std::move(stmt));
  }
  return loop;
}

}  // namespace sbmp
