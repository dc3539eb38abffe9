#include "expr/expr.h"

#include <utility>

#include "base/logging.h"
#include "base/string_util.h"

namespace tmdb {

namespace internal_expr {
struct ExprNode {
  ExprKind kind;
  Type type;

  // kLiteral
  Value literal;
  // kVarRef / kFieldAccess field / kQuantifier var
  std::string name;
  // kBinary / kUnary ops
  BinaryOp binary_op = BinaryOp::kEq;
  UnaryOp unary_op = UnaryOp::kNot;
  // kQuantifier
  QuantKind quant_kind = QuantKind::kExists;
  // kAggregate
  AggFunc agg_func = AggFunc::kCount;
  // children: meaning depends on kind —
  //   kFieldAccess: [base]
  //   kBinary: [lhs, rhs]
  //   kUnary / kAggregate: [operand]
  //   kQuantifier: [collection, pred]
  //   kTupleCtor / kSetCtor: elements
  std::vector<Expr> children;
  // kTupleCtor: built once, shared by every tuple the constructor yields.
  TupleNames ctor_names;
  // kSubplan
  std::shared_ptr<const SubplanBase> subplan;

  ExprNode(ExprKind k, Type t) : kind(k), type(std::move(t)) {}
};
}  // namespace internal_expr

using internal_expr::ExprNode;

namespace {

Status BinaryTypeError(BinaryOp op, const Type& l, const Type& r) {
  return Status::TypeError(StrCat("operator ", BinaryOpSymbol(op),
                                  " not applicable to ", l.ToString(), " and ",
                                  r.ToString()));
}

}  // namespace

Expr::Expr() : node_(nullptr) { *this = Literal(Value::Bool(true)); }

Expr Expr::Literal(Value v) {
  Type t = TypeOf(v);
  auto node = std::make_shared<ExprNode>(ExprKind::kLiteral, std::move(t));
  node->literal = std::move(v);
  return Expr(std::move(node));
}

Expr Expr::Var(std::string name, Type type) {
  auto node = std::make_shared<ExprNode>(ExprKind::kVarRef, std::move(type));
  node->name = std::move(name);
  return Expr(std::move(node));
}

Result<Expr> Expr::Field(Expr base, std::string field) {
  // Projection of a tuple constructor collapses to the named element —
  // keeps rewritten plans (which rebind variables to constructed tuples)
  // free of indirection.
  if (base.is_tuple_ctor()) {
    for (size_t i = 0; i < base.ctor_names().size(); ++i) {
      if (base.ctor_names()[i] == field) return base.ctor_elements()[i];
    }
  }
  TMDB_ASSIGN_OR_RETURN(Type t, base.type().FieldType(field));
  auto node = std::make_shared<ExprNode>(ExprKind::kFieldAccess, std::move(t));
  node->name = std::move(field);
  node->children.push_back(std::move(base));
  return Expr(std::move(node));
}

Result<Expr> Expr::Binary(BinaryOp op, Expr lhs, Expr rhs) {
  const Type& l = lhs.type();
  const Type& r = rhs.type();
  Type out;
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      const bool l_num = l.is_numeric() || l.is_any();
      const bool r_num = r.is_numeric() || r.is_any();
      if (!l_num || !r_num) return BinaryTypeError(op, l, r);
      out = (l.is_int() && r.is_int()) ? Type::Int() : Type::Real();
      if (l.is_any() || r.is_any()) out = Type::Any();
      break;
    }
    case BinaryOp::kEq:
    case BinaryOp::kNe: {
      if (!l.CoercesTo(r) && !r.CoercesTo(l)) return BinaryTypeError(op, l, r);
      out = Type::Bool();
      break;
    }
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      const bool numeric = (l.is_numeric() || l.is_any()) &&
                           (r.is_numeric() || r.is_any());
      const bool stringy =
          (l.is_string() || l.is_any()) && (r.is_string() || r.is_any());
      if (!numeric && !stringy) return BinaryTypeError(op, l, r);
      out = Type::Bool();
      break;
    }
    case BinaryOp::kAnd:
    case BinaryOp::kOr: {
      if ((!l.is_bool() && !l.is_any()) || (!r.is_bool() && !r.is_any())) {
        return BinaryTypeError(op, l, r);
      }
      out = Type::Bool();
      break;
    }
    case BinaryOp::kIn:
    case BinaryOp::kNotIn: {
      if (!r.is_collection() && !r.is_any()) return BinaryTypeError(op, l, r);
      if (r.is_collection() && !l.CoercesTo(r.element()) &&
          !r.element().CoercesTo(l)) {
        return BinaryTypeError(op, l, r);
      }
      out = Type::Bool();
      break;
    }
    case BinaryOp::kUnion:
    case BinaryOp::kIntersect:
    case BinaryOp::kDifference: {
      if ((!l.is_set() && !l.is_any()) || (!r.is_set() && !r.is_any())) {
        return BinaryTypeError(op, l, r);
      }
      if (l.is_set() && r.is_set()) {
        TMDB_ASSIGN_OR_RETURN(Type elem,
                              UnifyTypes(l.element(), r.element()));
        out = Type::Set(std::move(elem));
      } else {
        out = l.is_set() ? l : r;
      }
      break;
    }
    case BinaryOp::kSubsetEq:
    case BinaryOp::kSubset:
    case BinaryOp::kSupersetEq:
    case BinaryOp::kSuperset: {
      if ((!l.is_set() && !l.is_any()) || (!r.is_set() && !r.is_any())) {
        return BinaryTypeError(op, l, r);
      }
      if (l.is_set() && r.is_set()) {
        // Unification failure means the sets can never share elements; the
        // comparison is still well-defined but suspicious — report it.
        auto unified = UnifyTypes(l.element(), r.element());
        if (!unified.ok()) return BinaryTypeError(op, l, r);
      }
      out = Type::Bool();
      break;
    }
  }
  auto node = std::make_shared<ExprNode>(ExprKind::kBinary, std::move(out));
  node->binary_op = op;
  node->children.push_back(std::move(lhs));
  node->children.push_back(std::move(rhs));
  return Expr(std::move(node));
}

Result<Expr> Expr::Unary(UnaryOp op, Expr e) {
  Type out;
  switch (op) {
    case UnaryOp::kNot:
      if (!e.type().is_bool() && !e.type().is_any()) {
        return Status::TypeError(
            StrCat("NOT requires a boolean operand, got ",
                   e.type().ToString()));
      }
      out = Type::Bool();
      break;
    case UnaryOp::kNeg:
      if (!e.type().is_numeric() && !e.type().is_any()) {
        return Status::TypeError(
            StrCat("negation requires a numeric operand, got ",
                   e.type().ToString()));
      }
      out = e.type();
      break;
    case UnaryOp::kIsNull:
      out = Type::Bool();
      break;
    case UnaryOp::kUnnest:
      if (e.type().is_any()) {
        out = Type::Any();
      } else if (e.type().is_set() && (e.type().element().is_set() ||
                                       e.type().element().is_any())) {
        out = e.type().element().is_any() ? Type::Set(Type::Any())
                                          : e.type().element();
      } else {
        return Status::TypeError(
            StrCat("UNNEST requires a set of sets, got ",
                   e.type().ToString()));
      }
      break;
  }
  auto node = std::make_shared<ExprNode>(ExprKind::kUnary, std::move(out));
  node->unary_op = op;
  node->children.push_back(std::move(e));
  return Expr(std::move(node));
}

Result<Expr> Expr::Quantifier(QuantKind kind, std::string var, Expr collection,
                              Expr pred) {
  if (!collection.type().is_collection() && !collection.type().is_any()) {
    return Status::TypeError(
        StrCat("quantifier range must be a set or list, got ",
               collection.type().ToString()));
  }
  if (!pred.type().is_bool() && !pred.type().is_any()) {
    return Status::TypeError(
        StrCat("quantifier body must be boolean, got ",
               pred.type().ToString()));
  }
  auto node = std::make_shared<ExprNode>(ExprKind::kQuantifier, Type::Bool());
  node->quant_kind = kind;
  node->name = std::move(var);
  node->children.push_back(std::move(collection));
  node->children.push_back(std::move(pred));
  return Expr(std::move(node));
}

Result<Expr> Expr::Aggregate(AggFunc func, Expr collection) {
  const Type& t = collection.type();
  if (!t.is_collection() && !t.is_any()) {
    return Status::TypeError(StrCat(AggFuncName(func),
                                    " requires a set or list argument, got ",
                                    t.ToString()));
  }
  Type elem = t.is_collection() ? t.element() : Type::Any();
  Type out;
  switch (func) {
    case AggFunc::kCount:
      out = Type::Int();
      break;
    case AggFunc::kSum:
      if (!elem.is_numeric() && !elem.is_any()) {
        return Status::TypeError(
            StrCat("sum requires numeric elements, got ", elem.ToString()));
      }
      out = elem.is_real() ? Type::Real() : Type::Int();
      break;
    case AggFunc::kAvg:
      if (!elem.is_numeric() && !elem.is_any()) {
        return Status::TypeError(
            StrCat("avg requires numeric elements, got ", elem.ToString()));
      }
      out = Type::Real();
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      if (!elem.is_numeric() && !elem.is_string() && !elem.is_any()) {
        return Status::TypeError(StrCat(AggFuncName(func),
                                        " requires numeric or string "
                                        "elements, got ",
                                        elem.ToString()));
      }
      out = elem;
      break;
  }
  auto node = std::make_shared<ExprNode>(ExprKind::kAggregate, std::move(out));
  node->agg_func = func;
  node->children.push_back(std::move(collection));
  return Expr(std::move(node));
}

Result<Expr> Expr::MakeTuple(std::vector<std::string> names,
                             std::vector<Expr> elements) {
  if (names.size() != elements.size()) {
    return Status::InvalidArgument(
        "tuple constructor: names/elements size mismatch");
  }
  std::vector<::tmdb::Field> fields;
  fields.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (names[i] == names[j]) {
        return Status::TypeError(
            StrCat("duplicate attribute '", names[i],
                   "' in tuple constructor"));
      }
    }
    fields.push_back({names[i], elements[i].type()});
  }
  auto node = std::make_shared<ExprNode>(ExprKind::kTupleCtor,
                                         Type::Tuple(std::move(fields)));
  node->ctor_names = TupleNames(std::move(names));
  node->children = std::move(elements);
  return Expr(std::move(node));
}

Result<Expr> Expr::MakeSet(std::vector<Expr> elements, Type element_type) {
  Type elem = std::move(element_type);
  for (const Expr& e : elements) {
    TMDB_ASSIGN_OR_RETURN(elem, UnifyTypes(elem, e.type()));
  }
  auto node = std::make_shared<ExprNode>(ExprKind::kSetCtor,
                                         Type::Set(std::move(elem)));
  node->children = std::move(elements);
  return Expr(std::move(node));
}

Expr Expr::Subplan(std::shared_ptr<const SubplanBase> plan, Type type) {
  TMDB_CHECK(plan != nullptr);
  auto node = std::make_shared<ExprNode>(ExprKind::kSubplan, std::move(type));
  node->subplan = std::move(plan);
  return Expr(std::move(node));
}

Expr Expr::Must(Result<Expr> r) {
  TMDB_CHECK_MSG(r.ok(), r.status().ToString());
  return std::move(r).value();
}

Expr Expr::And(Expr a, Expr b) {
  if (a.is_literal() && a.literal_value().is_bool()) {
    return a.literal_value().AsBool() ? b : a;
  }
  if (b.is_literal() && b.literal_value().is_bool()) {
    return b.literal_value().AsBool() ? a : b;
  }
  return Must(Binary(BinaryOp::kAnd, std::move(a), std::move(b)));
}

Expr Expr::AndAll(std::vector<Expr> conjuncts) {
  Expr acc = True();
  for (Expr& c : conjuncts) {
    acc = And(std::move(acc), std::move(c));
  }
  return acc;
}

ExprKind Expr::expr_kind() const { return node_->kind; }
const Type& Expr::type() const { return node_->type; }

const Value& Expr::literal_value() const {
  TMDB_CHECK(is_literal());
  return node_->literal;
}

const std::string& Expr::var_name() const {
  TMDB_CHECK(is_var());
  return node_->name;
}

const Expr& Expr::field_base() const {
  TMDB_CHECK(is_field_access());
  return node_->children[0];
}

const std::string& Expr::field_name() const {
  TMDB_CHECK(is_field_access());
  return node_->name;
}

BinaryOp Expr::binary_op() const {
  TMDB_CHECK(is_binary());
  return node_->binary_op;
}

const Expr& Expr::lhs() const {
  TMDB_CHECK(is_binary());
  return node_->children[0];
}

const Expr& Expr::rhs() const {
  TMDB_CHECK(is_binary());
  return node_->children[1];
}

UnaryOp Expr::unary_op() const {
  TMDB_CHECK(is_unary());
  return node_->unary_op;
}

const Expr& Expr::operand() const {
  TMDB_CHECK(is_unary());
  return node_->children[0];
}

QuantKind Expr::quant_kind() const {
  TMDB_CHECK(is_quantifier());
  return node_->quant_kind;
}

const std::string& Expr::quant_var() const {
  TMDB_CHECK(is_quantifier());
  return node_->name;
}

const Expr& Expr::quant_collection() const {
  TMDB_CHECK(is_quantifier());
  return node_->children[0];
}

const Expr& Expr::quant_pred() const {
  TMDB_CHECK(is_quantifier());
  return node_->children[1];
}

AggFunc Expr::agg_func() const {
  TMDB_CHECK(is_aggregate());
  return node_->agg_func;
}

const Expr& Expr::agg_arg() const {
  TMDB_CHECK(is_aggregate());
  return node_->children[0];
}

const std::vector<std::string>& Expr::ctor_names() const {
  TMDB_CHECK(is_tuple_ctor());
  return node_->ctor_names.names();
}

const TupleNames& Expr::ctor_tuple_names() const {
  TMDB_CHECK(is_tuple_ctor());
  return node_->ctor_names;
}

const std::vector<Expr>& Expr::ctor_elements() const {
  TMDB_CHECK(is_tuple_ctor() || is_set_ctor());
  return node_->children;
}

const SubplanBase& Expr::subplan() const {
  TMDB_CHECK(is_subplan());
  return *node_->subplan;
}

std::shared_ptr<const SubplanBase> Expr::subplan_ptr() const {
  TMDB_CHECK(is_subplan());
  return node_->subplan;
}

bool Expr::Equals(const Expr& other) const {
  if (node_ == other.node_) return true;
  if (expr_kind() != other.expr_kind()) return false;
  if (!type().Equals(other.type())) return false;
  const ExprNode& a = *node_;
  const ExprNode& b = *other.node_;
  switch (expr_kind()) {
    case ExprKind::kLiteral:
      return a.literal.Equals(b.literal);
    case ExprKind::kVarRef:
      return a.name == b.name;
    case ExprKind::kFieldAccess:
      if (a.name != b.name) return false;
      break;
    case ExprKind::kBinary:
      if (a.binary_op != b.binary_op) return false;
      break;
    case ExprKind::kUnary:
      if (a.unary_op != b.unary_op) return false;
      break;
    case ExprKind::kQuantifier:
      if (a.quant_kind != b.quant_kind || a.name != b.name) return false;
      break;
    case ExprKind::kAggregate:
      if (a.agg_func != b.agg_func) return false;
      break;
    case ExprKind::kTupleCtor:
      if (a.ctor_names != b.ctor_names) return false;
      break;
    case ExprKind::kSetCtor:
      break;
    case ExprKind::kSubplan:
      return a.subplan == b.subplan;  // identity: plans are not compared
  }
  if (a.children.size() != b.children.size()) return false;
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!a.children[i].Equals(b.children[i])) return false;
  }
  return true;
}

namespace {

void CollectFreeVars(const Expr& e, std::set<std::string>* bound,
                     std::set<std::string>* out) {
  switch (e.expr_kind()) {
    case ExprKind::kLiteral:
      return;
    case ExprKind::kVarRef:
      if (bound->count(e.var_name()) == 0) out->insert(e.var_name());
      return;
    case ExprKind::kFieldAccess:
      CollectFreeVars(e.field_base(), bound, out);
      return;
    case ExprKind::kBinary:
      CollectFreeVars(e.lhs(), bound, out);
      CollectFreeVars(e.rhs(), bound, out);
      return;
    case ExprKind::kUnary:
      CollectFreeVars(e.operand(), bound, out);
      return;
    case ExprKind::kQuantifier: {
      CollectFreeVars(e.quant_collection(), bound, out);
      const bool was_bound = bound->count(e.quant_var()) > 0;
      bound->insert(e.quant_var());
      CollectFreeVars(e.quant_pred(), bound, out);
      if (!was_bound) bound->erase(e.quant_var());
      return;
    }
    case ExprKind::kAggregate:
      CollectFreeVars(e.agg_arg(), bound, out);
      return;
    case ExprKind::kTupleCtor:
    case ExprKind::kSetCtor:
      for (const Expr& c : e.ctor_elements()) {
        CollectFreeVars(c, bound, out);
      }
      return;
    case ExprKind::kSubplan:
      for (const std::string& v : e.subplan().free_vars()) {
        if (bound->count(v) == 0) out->insert(v);
      }
      return;
  }
}

}  // namespace

std::set<std::string> Expr::FreeVars() const {
  std::set<std::string> bound;
  std::set<std::string> out;
  CollectFreeVars(*this, &bound, &out);
  return out;
}

bool Expr::References(const std::string& name) const {
  return FreeVars().count(name) > 0;
}

Result<Expr> Expr::Substitute(const std::string& name,
                              const Expr& replacement) const {
  switch (expr_kind()) {
    case ExprKind::kLiteral:
      return *this;
    case ExprKind::kVarRef:
      return var_name() == name ? replacement : *this;
    case ExprKind::kFieldAccess: {
      TMDB_ASSIGN_OR_RETURN(Expr base, field_base().Substitute(name, replacement));
      return Field(std::move(base), field_name());
    }
    case ExprKind::kBinary: {
      TMDB_ASSIGN_OR_RETURN(Expr l, lhs().Substitute(name, replacement));
      TMDB_ASSIGN_OR_RETURN(Expr r, rhs().Substitute(name, replacement));
      return Binary(binary_op(), std::move(l), std::move(r));
    }
    case ExprKind::kUnary: {
      TMDB_ASSIGN_OR_RETURN(Expr e, operand().Substitute(name, replacement));
      return Unary(unary_op(), std::move(e));
    }
    case ExprKind::kQuantifier: {
      TMDB_ASSIGN_OR_RETURN(Expr coll,
                            quant_collection().Substitute(name, replacement));
      if (quant_var() == name) {
        // Inner binder shadows the name: body untouched.
        return Quantifier(quant_kind(), quant_var(), std::move(coll),
                          quant_pred());
      }
      TMDB_ASSIGN_OR_RETURN(Expr pred,
                            quant_pred().Substitute(name, replacement));
      return Quantifier(quant_kind(), quant_var(), std::move(coll),
                        std::move(pred));
    }
    case ExprKind::kAggregate: {
      TMDB_ASSIGN_OR_RETURN(Expr arg, agg_arg().Substitute(name, replacement));
      return Aggregate(agg_func(), std::move(arg));
    }
    case ExprKind::kTupleCtor: {
      std::vector<Expr> elems;
      elems.reserve(ctor_elements().size());
      for (const Expr& c : ctor_elements()) {
        TMDB_ASSIGN_OR_RETURN(Expr e, c.Substitute(name, replacement));
        elems.push_back(std::move(e));
      }
      return MakeTuple(ctor_names(), std::move(elems));
    }
    case ExprKind::kSetCtor: {
      std::vector<Expr> elems;
      elems.reserve(ctor_elements().size());
      for (const Expr& c : ctor_elements()) {
        TMDB_ASSIGN_OR_RETURN(Expr e, c.Substitute(name, replacement));
        elems.push_back(std::move(e));
      }
      Type elem_type = type().element();
      return MakeSet(std::move(elems), std::move(elem_type));
    }
    case ExprKind::kSubplan:
      if (subplan().free_vars().count(name) > 0) {
        return Status::Unsupported(
            StrCat("cannot substitute variable '", name,
                   "' referenced inside a subplan"));
      }
      return *this;
  }
  return Status::Internal("unhandled expression kind in Substitute");
}

std::string Expr::ToString() const {
  switch (expr_kind()) {
    case ExprKind::kLiteral:
      return literal_value().ToString();
    case ExprKind::kVarRef:
      return var_name();
    case ExprKind::kFieldAccess:
      return field_base().ToString() + "." + field_name();
    case ExprKind::kBinary:
      return StrCat("(", lhs().ToString(), " ", BinaryOpSymbol(binary_op()),
                    " ", rhs().ToString(), ")");
    case ExprKind::kUnary:
      switch (unary_op()) {
        case UnaryOp::kNot:
          return "NOT " + operand().ToString();
        case UnaryOp::kNeg:
          return "-" + operand().ToString();
        case UnaryOp::kIsNull:
          return operand().ToString() + " IS NULL";
        case UnaryOp::kUnnest:
          return "UNNEST(" + operand().ToString() + ")";
      }
      return "?";
    case ExprKind::kQuantifier:
      return StrCat(quant_kind() == QuantKind::kExists ? "EXISTS " : "FORALL ",
                    quant_var(), " IN ", quant_collection().ToString(), " (",
                    quant_pred().ToString(), ")");
    case ExprKind::kAggregate:
      return StrCat(AggFuncName(agg_func()), "(", agg_arg().ToString(), ")");
    case ExprKind::kTupleCtor: {
      std::vector<std::string> parts;
      parts.reserve(ctor_names().size());
      for (size_t i = 0; i < ctor_names().size(); ++i) {
        parts.push_back(ctor_names()[i] + " = " +
                        ctor_elements()[i].ToString());
      }
      return "<" + Join(parts, ", ") + ">";
    }
    case ExprKind::kSetCtor: {
      std::vector<std::string> parts;
      parts.reserve(ctor_elements().size());
      for (const Expr& e : ctor_elements()) {
        parts.push_back(e.ToString());
      }
      return "{" + Join(parts, ", ") + "}";
    }
    case ExprKind::kSubplan:
      return subplan().ToString();
  }
  return "?";
}

std::string BinaryOpSymbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kIn:
      return "IN";
    case BinaryOp::kNotIn:
      return "NOT IN";
    case BinaryOp::kUnion:
      return "UNION";
    case BinaryOp::kIntersect:
      return "INTERSECT";
    case BinaryOp::kDifference:
      return "DIFF";
    case BinaryOp::kSubsetEq:
      return "SUBSETEQ";
    case BinaryOp::kSubset:
      return "SUBSET";
    case BinaryOp::kSupersetEq:
      return "SUPSETEQ";
    case BinaryOp::kSuperset:
      return "SUPSET";
  }
  return "?";
}

std::string AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

}  // namespace tmdb
