#ifndef XBENCH_XQUERY_AST_H_
#define XBENCH_XQUERY_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace xbench::xquery {

enum class ExprKind {
  kStringLiteral,
  kNumberLiteral,
  kVariable,
  kContextItem,   // .
  kSequence,      // e1, e2, ...
  kPath,          // root expr + steps
  kComparison,    // = != < <= > >=
  kArithmetic,    // + - * div mod
  kLogical,       // and / or
  kFunctionCall,
  kFlwor,
  kQuantified,    // some/every $v in e satisfies e
  kIfThenElse,
  kConstructor,   // direct element constructor
  kFilter,        // primary-expression predicates: $x[...]  (FilterExpr)
  kRange,         // e1 to e2 (integer range)
  kUnion,         // e1 | e2 (node-sequence union in document order)
};

enum class Axis {
  kChild,
  kDescendant,
  kDescendantOrSelf,
  kAttribute,
  kSelf,
  kParent,
  kFollowingSibling,
  kPrecedingSibling,
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv, kMod };
enum class LogicalOp { kAnd, kOr };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// One step of a path expression: axis + name test + predicates.
struct Step {
  Axis axis = Axis::kChild;
  /// Element/attribute name, or "*" for a wildcard.
  std::string name_test;
  std::vector<ExprPtr> predicates;
};

struct ForClause {
  std::string variable;
  std::string position_variable;  // `at $i`, empty when absent
  ExprPtr input;
};

struct LetClause {
  std::string variable;
  ExprPtr value;
};

struct OrderSpec {
  ExprPtr key;
  bool ascending = true;
  bool numeric = false;  // key wrapped in number()/xs:double cast
};

/// Content piece of a direct element constructor.
struct ConstructorContent {
  enum Kind { kText, kExpr, kChild } kind = kText;
  std::string text;          // kText
  ExprPtr expr;              // kExpr (enclosed { ... })
  ExprPtr child;             // kChild (nested constructor)
};

struct ConstructorAttr {
  std::string name;
  /// Literal + embedded expressions, concatenated at evaluation time.
  std::vector<ConstructorContent> value_parts;
};

/// A node of the expression tree. One struct with per-kind fields keeps
/// the evaluator a simple switch (the guide discourages RTTI/dynamic_cast
/// trees for closed shapes like this).
struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}

  ExprKind kind;

  // kStringLiteral / kNumberLiteral
  std::string string_value;
  double number_value = 0;

  // kVariable
  std::string variable;

  // kSequence: items in `children`
  std::vector<ExprPtr> children;

  // kPath
  ExprPtr path_root;  // nullptr = start from context item / document root
  bool path_from_root = false;  // query began with '/' or '//'
  std::vector<Step> steps;

  // kComparison / kArithmetic / kLogical
  CompareOp compare_op = CompareOp::kEq;
  ArithOp arith_op = ArithOp::kAdd;
  LogicalOp logical_op = LogicalOp::kAnd;
  ExprPtr lhs;
  ExprPtr rhs;

  // kFunctionCall: name + `children` as arguments
  std::string function_name;

  // kFlwor
  std::vector<ForClause> for_clauses;   // interleaved via clause_order
  std::vector<LetClause> let_clauses;
  /// Order in which for/let clauses appear: 'f' or 'l' per clause.
  std::string clause_order;
  ExprPtr where;
  std::vector<OrderSpec> order_by;
  ExprPtr return_expr;

  // kQuantified
  bool quantifier_every = false;
  std::string quant_variable;
  ExprPtr quant_input;
  ExprPtr quant_satisfies;

  // kIfThenElse: lhs = condition, then/else:
  ExprPtr then_branch;
  ExprPtr else_branch;

  // kFilter: lhs = base expression, `children` = predicates in order.

  // kConstructor
  std::string element_name;
  std::vector<ConstructorAttr> constructor_attrs;
  std::vector<ConstructorContent> constructor_content;
};

/// Renders the AST for debugging/tests.
std::string ToDebugString(const Expr& expr);

/// Renders the AST back to XQuery text that ParseQuery accepts, such that
/// rendering is a fixed point: for any `e` obtained from ParseQuery,
/// ParseQuery(ToQueryString(e)) succeeds and renders to the same text.
/// Binary operators and sequences are always parenthesized (the parser
/// collapses redundant parens, so reparse reproduces the same tree), and
/// constructors are wrapped in parens so `<` lexes as a constructor at any
/// expression position. Fails for literals the lexer cannot spell: a
/// string containing both quote characters, a NaN number literal, or
/// constructor text containing markup characters.
Result<std::string> ToQueryString(const Expr& expr);

}  // namespace xbench::xquery

#endif  // XBENCH_XQUERY_AST_H_
