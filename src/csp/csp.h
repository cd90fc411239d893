// Constraint satisfaction problems (Definition 5) and their constraint
// hypergraphs (Definition 7).

#ifndef HYPERTREE_CSP_CSP_H_
#define HYPERTREE_CSP_CSP_H_

#include <string>
#include <vector>

#include "csp/relation.h"
#include "hypergraph/hypergraph.h"

namespace hypertree {

/// A constraint: a scope plus the relation of allowed value combinations.
struct Constraint {
  std::vector<int> scope;  // variable ids (the relation's schema)
  Relation relation;
  std::string name;
};

/// A CSP <X, D, C> with integer domains {0, ..., domain_size[x]-1}.
class Csp {
 public:
  Csp() = default;

  /// Creates a CSP with `num_variables` variables of the given uniform
  /// domain size.
  Csp(int num_variables, int domain_size)
      : domain_sizes_(num_variables, domain_size) {}

  int NumVariables() const { return static_cast<int>(domain_sizes_.size()); }
  int NumConstraints() const { return static_cast<int>(constraints_.size()); }
  int DomainSize(int var) const { return domain_sizes_[var]; }
  void SetDomainSize(int var, int size) { domain_sizes_[var] = size; }

  /// The unary relation {0, ..., DomainSize(var)-1} over `var`.
  Relation DomainRelation(int var) const {
    Relation r({var});
    for (int val = 0; val < DomainSize(var); ++val) r.AddRow(&val);
    return r;
  }

  /// Adds a constraint; the relation's schema must equal `scope`.
  void AddConstraint(std::vector<int> scope, Relation relation,
                     std::string name = "");

  const Constraint& GetConstraint(int c) const { return constraints_[c]; }
  const std::vector<Constraint>& constraints() const { return constraints_; }

  /// The constraint hypergraph: one vertex per variable, one hyperedge per
  /// constraint scope. Variables in no constraint get a unary hyperedge so
  /// the hypergraph covers all variables.
  Hypergraph ConstraintHypergraph() const;

  /// True if the complete assignment satisfies every constraint.
  bool IsSolution(const std::vector<int>& assignment) const;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  std::vector<int> domain_sizes_;
  std::vector<Constraint> constraints_;
  std::string name_;
};

}  // namespace hypertree

#endif  // HYPERTREE_CSP_CSP_H_
