package repro.prolog

/** Terms of the Prolog dialect used by Kaskade's view enumeration.
  *
  * The dialect is the ISO-ish subset that the paper's listings (Lst. 2, 3, 5,
  * 6) use: atoms, integers, variables, compound terms, and lists (encoded as
  * `'.'/2` cells terminated by `'[]'`, as in classic Prolog).
  */
sealed trait Term {

  /** Pretty-print in standard Prolog surface syntax. */
  def show: String = this match {
    case Var(n)        => n
    case r: Ref        => r.name
    case Atom(n)       => if (Term.isPlainAtom(n)) n else s"'${n.replace("'", "\\'")}'"
    case Num(v)        => v.toString
    case s @ Struct(f, args) =>
      Term.asListOption(s) match {
        case Some(items) => items.map(_.show).mkString("[", ",", "]")
        case None if args.size == 2 && Term.infixOps(f) =>
          s"(${args(0).show} $f ${args(1).show})" // parenthesized: always re-parses
        case None =>
          s"${Atom(f).show}(${args.map(_.show).mkString(",")})"
      }
  }
}

/** Logic variable, as written in source text and in the solver's answers. */
final case class Var(name: String) extends Term

/** Constant symbol, e.g. `'Job'` or `schemaEdge`. */
final case class Atom(name: String) extends Term

/** Integer constant (the paper's rules only need integer arithmetic). */
final case class Num(value: Long) extends Term

/** A solver variable: a cell that a derivation binds at most once and that
  * backtracking unbinds again. Unbound, it prints and sorts as `name`: the
  * goal variable's own name, or `_G<id>` for a variable the solver made.
  * Terms the solver returns hold [[Var]]s instead.
  */
private[prolog] final class Ref(id: Long, label: String = null) extends Term {
  var value: Term = null
  def name: String = if (label != null) label else s"_G$id"
}

/** Compound term `functor(args...)`. Lists are `Struct(".", Vector(h, t))`. */
final case class Struct(functor: String, args: Vector[Term]) extends Term {
  def arity: Int = args.size
}

object Term {
  val EmptyList: Atom = Atom("[]")

  /** Binary operators printed infix by [[Term.show]] (must match the parser). */
  val infixOps: Set[String] = Set(
    ":-", ";", "->", ",", "=", "\\=", "==", "\\==", "is",
    "=:=", "=\\=", "<", ">", "=<", ">=", "+", "-", "*", "/", "mod")

  /** Build a proper Prolog list term from a Scala sequence. */
  def mkList(items: Seq[Term], tail: Term = EmptyList): Term =
    items.foldRight(tail)((h, t) => Struct(".", Vector(h, t)))

  /** Decompose a proper list term; None for partial/improper lists. */
  def asListOption(t: Term): Option[List[Term]] = t match {
    case `EmptyList`              => Some(Nil)
    case Struct(".", Vector(h, tl)) => asListOption(tl).map(h :: _)
    case _                        => None
  }

  /** True iff `name` prints as an unquoted atom. */
  def isPlainAtom(name: String): Boolean =
    name.nonEmpty && name.head.isLower && name.forall(c => c.isLetterOrDigit || c == '_')

  /** All variables occurring in a term, left-to-right, deduplicated. */
  def variables(t: Term): Vector[Var] = {
    val out = Vector.newBuilder[Var]
    val seen = collection.mutable.Set.empty[String]
    def go(x: Term): Unit = x match {
      case v @ Var(n)     => if (seen.add(n)) out += v
      case Struct(_, as)  => as.foreach(go)
      case _              => ()
    }
    go(t)
    out.result()
  }
}

/** A program clause `head :- body` (facts have an empty body). */
final case class Clause(head: Struct, body: List[Term]) {
  def show: String =
    if (body.isEmpty) s"${head.show}."
    else s"${head.show} :- ${body.map(_.show).mkString(", ")}."
}
