package repro.prolog

import java.util.concurrent.{Callable, ExecutionException, Executors}

// The solver as it stood before the trail-and-choicepoint engine: a lazy
// stream of immutable substitutions, with clauses renamed apart through
// string-named variables. Tests run both engines and compare answers and work
// counts. Only the class name differs from that solver, and it still has the
// defect of naming its fresh variables `_G<n>`, so that a goal variable
// spelled that way is the same variable as a fresh one.
/** SLD-resolution solver with backtracking (as a lazy solution stream),
  * negation-as-failure, if-then-else, arithmetic, and the builtins used by
  * Kaskade's constraint-mining rules and view templates (`between/3`,
  * `findall/3`, `setof/3`, `call/N`, `once/1`, `sort/2`, `length/2`, …).
  *
  * Semantics follow SWI-Prolog for the supported subset; clause selection is
  * source order, conjunctions solve left-to-right.
  *
  * The solver counts its own work as it goes: the database clauses it tries
  * (each is renamed apart and unified with the goal) and the deepest goal it
  * reaches. The counts cover every goal this instance has solved and never
  * reset.
  */
final class ReferenceSolver(db: Database, maxDepth: Int = 4000) {
  import Solver.PrologError

  private var freshCounter = 0L
  private var tried = 0L
  private var deepest = 0L

  /** Database clauses renamed and unified with a goal. */
  def clausesTried: Long = tried

  /** The greatest goal depth reached. */
  def maxDepthReached: Long = deepest

  private def renameClause(c: Clause): Clause = {
    val mapping = collection.mutable.Map.empty[String, Var]
    def fresh(n: String): Var =
      mapping.getOrElseUpdate(n, { freshCounter += 1; Var(s"_G$freshCounter") })
    def go(t: Term): Term = t match {
      case Var(n)        => fresh(n)
      case Struct(f, as) => Struct(f, as.map(go))
      case other         => other
    }
    Clause(go(c.head).asInstanceOf[Struct], c.body.map(go))
  }

  /** All solutions of a goal conjunction, lazily. */
  def solve(goals: List[Term], s: Subst = Subst.empty): LazyList[Subst] =
    solveAll(goals, s, 0)

  /** Convenience: solve goals given as source text, e.g. `"member(X,[1,2])"`. */
  def solve(goalSource: String): LazyList[Subst] =
    solve(Parser.parseGoals(goalSource))

  /** Resolved bindings of the named variables for every solution of a query. */
  def query(goalSource: String, vars: String*): LazyList[Map[String, Term]] = {
    val goals = Parser.parseGoals(goalSource)
    val names =
      if (vars.nonEmpty) vars
      else goals.flatMap(Term.variables).map(_.name).distinct
    solve(goals).map(s => names.map(v => v -> s.resolve(Var(v))).toMap)
  }

  def succeeds(goalSource: String): Boolean = solve(goalSource).nonEmpty

  // -------------------------------------------------------------------------

  private def solveAll(goals: List[Term], s: Subst, depth: Int): LazyList[Subst] =
    goals match {
      case Nil          => LazyList(s)
      case goal :: rest =>
        solveGoal(goal, s, depth).flatMap(s2 => solveAll(rest, s2, depth))
    }

  private def solveGoal(goal: Term, s: Subst, depth: Int): LazyList[Subst] = {
    if (depth > maxDepth)
      throw PrologError(s"depth limit $maxDepth exceeded at goal ${s.resolve(goal).show}")
    if (depth > deepest) deepest = depth
    s.walk(goal) match {
      case Atom(name)        => dispatch(Struct(name, Vector.empty), s, depth)
      case st: Struct        => dispatch(st, s, depth)
      case v: Var            => throw PrologError(s"unbound goal ${v.show}")
      case other             => throw PrologError(s"non-callable goal ${other.show}")
    }
  }

  private def dispatch(g: Struct, s: Subst, depth: Int): LazyList[Subst] =
    (g.functor, g.arity) match {
      case ("true", 0)           => LazyList(s)
      case ("fail", 0) | ("false", 0) => LazyList.empty

      case (",", 2)  => solveAll(List(g.args(0), g.args(1)), s, depth + 1)

      case (";", 2) =>
        g.args(0) match {
          // if-then-else commits to the first solution of the condition.
          case ite @ Struct("->", Vector(_, _)) =>
            val cond = s.walk(ite).asInstanceOf[Struct]
            solveGoal(cond.args(0), s, depth + 1).headOption match {
              case Some(s2) => solveGoal(cond.args(1), s2, depth + 1)
              case None     => solveGoal(g.args(1), s, depth + 1)
            }
          case a =>
            solveGoal(a, s, depth + 1) #::: solveGoal(g.args(1), s, depth + 1)
        }

      case ("->", 2) =>
        solveGoal(g.args(0), s, depth + 1).headOption match {
          case Some(s2) => solveGoal(g.args(1), s2, depth + 1)
          case None     => LazyList.empty
        }

      // once/1 commits to the first solution of its goal, keeping its bindings.
      case ("once", 1) => solveGoal(g.args(0), s, depth + 1).take(1)

      case ("not", 1) | ("\\+", 1) =>
        if (solveGoal(g.args(0), s, depth + 1).isEmpty) LazyList(s) else LazyList.empty

      case ("=", 2)  => LazyList.from(Unify.unify(g.args(0), g.args(1), s))
      case ("\\=", 2) =>
        if (Unify.unify(g.args(0), g.args(1), s).isEmpty) LazyList(s) else LazyList.empty
      case ("==", 2) =>
        if (s.resolve(g.args(0)) == s.resolve(g.args(1))) LazyList(s) else LazyList.empty
      case ("\\==", 2) =>
        if (s.resolve(g.args(0)) != s.resolve(g.args(1))) LazyList(s) else LazyList.empty

      case ("is", 2) =>
        LazyList.from(Unify.unify(g.args(0), Num(eval(g.args(1), s)), s))

      case ("<", 2)   => arith(g, s)(_ < _)
      case (">", 2)   => arith(g, s)(_ > _)
      case ("=<", 2)  => arith(g, s)(_ <= _)
      case (">=", 2)  => arith(g, s)(_ >= _)
      case ("=:=", 2) => arith(g, s)(_ == _)
      case ("=\\=", 2) => arith(g, s)(_ != _)

      case ("between", 3) =>
        val lo = eval(g.args(0), s)
        val hi = eval(g.args(1), s)
        s.walk(g.args(2)) match {
          case Num(v) => if (v >= lo && v <= hi) LazyList(s) else LazyList.empty
          case v: Var => LazyList.range(lo, hi + 1).map(k => s.bind(v.name, Num(k)))
          case other  => throw PrologError(s"between/3: bad third argument ${other.show}")
        }

      case ("findall", 3) =>
        val results = solveGoal(g.args(1), s, depth + 1).map(s2 => s2.resolve(g.args(0)))
        LazyList.from(Unify.unify(g.args(2), Term.mkList(results.toList), s))

      case ("setof", 3) =>
        // Simplified setof/3: sorted, deduplicated findall; fails when empty.
        val results = solveGoal(g.args(1), s, depth + 1).map(s2 => s2.resolve(g.args(0)))
        val sorted = results.toList.distinct.sorted(TermOrdering)
        if (sorted.isEmpty) LazyList.empty
        else LazyList.from(Unify.unify(g.args(2), Term.mkList(sorted), s))

      case ("sort", 2) =>
        val items = resolveList(g.args(0), s, "sort/2")
        LazyList.from(Unify.unify(g.args(1), Term.mkList(items.distinct.sorted(TermOrdering)), s))

      case ("msort", 2) =>
        val items = resolveList(g.args(0), s, "msort/2")
        LazyList.from(Unify.unify(g.args(1), Term.mkList(items.sorted(TermOrdering)), s))

      case ("length", 2) =>
        s.walk(g.args(0)) match {
          case lst if Term.asListOption(s.resolve(lst)).isDefined =>
            val n = Term.asListOption(s.resolve(lst)).get.size.toLong
            LazyList.from(Unify.unify(g.args(1), Num(n), s))
          case v: Var =>
            s.walk(g.args(1)) match {
              case Num(n) =>
                val vars = (1L to n).map { _ => freshCounter += 1; Var(s"_G$freshCounter"): Term }
                LazyList.from(Unify.unify(v, Term.mkList(vars), s))
              case _ => throw PrologError("length/2: insufficiently instantiated")
            }
          case other => throw PrologError(s"length/2: bad argument ${other.show}")
        }

      case ("call", n) if n >= 1 =>
        val target = s.walk(g.args(0)) match {
          case Atom(f)        => Struct(f, g.args.drop(1))
          case Struct(f, as)  => Struct(f, as ++ g.args.drop(1))
          case other          => throw PrologError(s"call/$n: non-callable ${other.show}")
        }
        solveGoal(target, s, depth + 1)

      case ("atom", 1)    => typeCheck(g, s) { case Atom(_) => true; case _ => false }
      case ("integer", 1) => typeCheck(g, s) { case Num(_) => true; case _ => false }
      case ("var", 1)     => typeCheck(g, s) { case Var(_) => true; case _ => false }
      case ("nonvar", 1)  => typeCheck(g, s) { case Var(_) => false; case _ => true }

      case (functor, arity) =>
        val clauses = db.clausesFor(functor, arity)
        if (clauses.isEmpty && !db.contains(functor, arity))
          throw PrologError(s"unknown predicate $functor/$arity")
        LazyList.from(clauses).flatMap { c =>
          tried += 1
          val rc = renameClause(c)
          Unify.unify(g, rc.head, s) match {
            case Some(s2) => solveAll(rc.body, s2, depth + 1)
            case None     => LazyList.empty
          }
        }
    }

  private def typeCheck(g: Struct, s: Subst)(pred: Term => Boolean): LazyList[Subst] =
    if (pred(s.walk(g.args(0)))) LazyList(s) else LazyList.empty

  private def arith(g: Struct, s: Subst)(cmp: (Long, Long) => Boolean): LazyList[Subst] =
    if (cmp(eval(g.args(0), s), eval(g.args(1), s))) LazyList(s) else LazyList.empty

  private def resolveList(t: Term, s: Subst, who: String): List[Term] =
    Term.asListOption(s.resolve(t)).getOrElse(throw PrologError(s"$who: not a proper list"))

  /** Integer arithmetic evaluation for `is/2` and comparisons. */
  private def eval(t: Term, s: Subst): Long = s.walk(t) match {
    case Num(v) => v
    case Struct("+", Vector(a, b))   => eval(a, s) + eval(b, s)
    case Struct("-", Vector(a, b))   => eval(a, s) - eval(b, s)
    case Struct("*", Vector(a, b))   => eval(a, s) * eval(b, s)
    case Struct("/", Vector(a, b))   => eval(a, s) / divisor(b, s, "/")
    case Struct("mod", Vector(a, b)) => eval(a, s) % divisor(b, s, "mod")
    case Struct("-", Vector(a))      => -eval(a, s)
    case Struct("min", Vector(a, b)) => math.min(eval(a, s), eval(b, s))
    case Struct("max", Vector(a, b)) => math.max(eval(a, s), eval(b, s))
    case Struct("abs", Vector(a))    => math.abs(eval(a, s))
    case v: Var                      => throw PrologError(s"arguments not sufficiently instantiated: ${v.show}")
    case other                       => throw PrologError(s"not an arithmetic expression: ${other.show}")
  }

  private def divisor(t: Term, s: Subst, op: String): Long = {
    val d = eval(t, s)
    if (d == 0) throw PrologError(s"evaluation error: zero_divisor in $op")
    d
  }
}

object ReferenceSolver {

  private lazy val deepStack = Executors.newSingleThreadExecutor { r =>
    val t = new Thread(null, r, "reference-solver", 64L << 20)
    t.setDaemon(true)
    t
  }

  /** Runs `f` on a thread with a 64 MB stack: the reference recurses a few
    * JVM frames deeper for every goal of a derivation, and the 4000-goal depth
    * limit needs about that much.
    */
  def onDeepStack[A](f: => A): A =
    try deepStack.submit(new Callable[A] { def call(): A = f }).get()
    catch { case e: ExecutionException => throw e.getCause }
}

/** An idempotent substitution: variable name -> term binding. */
final case class Subst(bindings: Map[String, Term]) {

  /** Follow variable bindings one step at the root. */
  @annotation.tailrec
  def walk(t: Term): Term = t match {
    case Var(n) =>
      bindings.get(n) match {
        case Some(b) => walk(b)
        case None    => t
      }
    case _ => t
  }

  /** Fully resolve a term: substitute bindings recursively. */
  def resolve(t: Term): Term = walk(t) match {
    case s @ Struct(f, as) =>
      val rs = as.map(resolve)
      // Avoid reallocating when nothing changed (deep terms are common here).
      if (rs.indices.forall(i => rs(i) eq as(i))) s else Struct(f, rs)
    case other => other
  }

  def bind(name: String, t: Term): Subst = Subst(bindings + (name -> t))
}

object Subst {
  val empty: Subst = Subst(Map.empty)
}
