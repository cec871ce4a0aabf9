package repro.prolog

import scala.collection.mutable

/** SLD-resolution solver with backtracking (answers as a lazy stream),
  * negation-as-failure, if-then-else, arithmetic, and the builtins used by
  * Kaskade's constraint-mining rules and view templates (`between/3`,
  * `findall/3`, `setof/3`, `call/N`, `once/1`, `sort/2`, `length/2`, …).
  *
  * Semantics follow SWI-Prolog for the supported subset; clause selection is
  * source order, conjunctions solve left-to-right.
  *
  * The machine is iterative, after Warren's (Aït-Kaci, *Warren's Abstract
  * Machine: A Tutorial Reconstruction*, 1991). Variables are mutable cells
  * ([[Ref]]) bound through a trail; a choicepoint records the trail's height,
  * and backtracking unbinds everything bound above it. A clause is renamed
  * apart by giving its compiled template (see [[Database]]) an array of fresh
  * cells. Resolution runs from an explicit goal list, each goal carrying its
  * depth, and a choicepoint stack. `once/1`, `\+`, `->`, `findall/3` and
  * `setof/3` run a nested machine over the same trail and stack, so the JVM
  * stack grows with how deeply those constructs nest, not with how deep the
  * derivation goes.
  *
  * The solver counts its own work as it goes: the database clauses it tries
  * (each is renamed apart and unified with the goal), the deepest goal it
  * reaches and the choicepoints it resumes. The counts cover every goal this
  * instance has solved and never reset.
  */
final class Solver(db: Database, maxDepth: Int = 4000) {
  import Solver._

  private var freshCounter = 0L
  private var tried = 0L
  private var deepest = 0L
  private var resumed = 0L

  /** Database clauses renamed and unified with a goal. */
  def clausesTried: Long = tried

  /** The greatest goal depth reached. */
  def maxDepthReached: Long = deepest

  /** Choicepoints resumed: the times a failure made the search take an
    * alternative it had not tried yet (the next clause of a predicate, the
    * right branch of a disjunction, the next value of `between/3`).
    */
  def backtracks: Long = resumed

  /** Every solution of a goal conjunction, lazily: each binds every variable
    * of the goals to its value at that solution, with unbound variables as
    * [[Var]]s.
    */
  def solve(goals: List[Term]): LazyList[Map[String, Term]] = solutions(goals, variableNames(goals))

  /** Convenience: solve goals given as source text, e.g. `"member(X,[1,2])"`. */
  def solve(goalSource: String): LazyList[Map[String, Term]] = solve(Parser.parseGoals(goalSource))

  /** Resolved bindings of the named variables for every solution of a query. */
  def query(goalSource: String, vars: String*): LazyList[Map[String, Term]] = {
    val goals = Parser.parseGoals(goalSource)
    solutions(goals, if (vars.nonEmpty) vars else variableNames(goals))
  }

  def succeeds(goalSource: String): Boolean = solutions(Parser.parseGoals(goalSource), Nil).nonEmpty

  private def variableNames(goals: List[Term]): Seq[String] = goals.flatMap(Term.variables).map(_.name).distinct

  private def solutions(goals: List[Term], names: Seq[String]): LazyList[Map[String, Term]] = {
    val vars = mutable.HashMap.empty[String, Ref]
    def load(t: Term): Term = t match {
      case Var(n)        => vars.getOrElseUpdate(n, new Ref(0, n))
      case Struct(f, as) => Struct(f, as.map(load))
      case other         => other
    }
    val start = goals.map(load).foldRight(Done)(new Goals(_, 0, _))
    val m = new Machine
    LazyList.unfold(start) { from =>
      if (m.run(from, 0)) Some((names.map(n => n -> vars.get(n).fold[Term](Var(n))(m.answer)).toMap, null))
      else None
    }
  }

  /** One query's trail and choicepoint stack. */
  private final class Machine {
    private val trail = mutable.ArrayBuffer.empty[Ref]
    private val choices = mutable.ArrayBuffer.empty[Choice]

    /** Runs `start`, or when it is null resumes the newest choicepoint, until
      * the goal list is empty (true) or no choicepoint above `base` is left
      * (false). Choicepoints above `base` may remain after a solution.
      */
    def run(start: Goals, base: Int): Boolean = {
      var goals = start
      while (goals ne Done) {
        if (goals eq null) {
          if (choices.length == base) return false
          goals = resume()
        } else goals = step(goals)
      }
      true
    }

    /** A term as an answer: bindings substituted, unbound cells as [[Var]]s. */
    def answer(t: Term): Term = deref(t) match {
      case r: Ref        => Var(r.name)
      case Struct(f, as) => Struct(f, as.map(answer))
      case other         => other
    }

    // ----- trail and choicepoints ------------------------------------------

    private def bind(r: Ref, t: Term): Unit = {
      r.value = t
      trail += r
    }

    private def undo(mark: Int): Unit =
      while (trail.length > mark) trail.remove(trail.length - 1).value = null

    /** Drops the choicepoints above `base`: commits to the bindings made. */
    private def cut(base: Int): Unit = choices.dropRightInPlace(choices.length - base)

    private def resume(): Goals = {
      val c = choices.remove(choices.length - 1)
      undo(c.mark)
      resumed += 1
      c match {
        case c: ClauseChoice => tryClauses(c.args, c.clauses, c.next, c.depth, c.cont)
        case c: Alternative  => new Goals(c.goal, c.depth, c.cont)
        case c: BetweenChoice =>
          if (c.next < c.hi) choices += new BetweenChoice(c.mark, c.v, c.next + 1, c.hi, c.cont)
          bind(c.v, Num(c.next))
          c.cont
      }
    }

    // ----- resolution -------------------------------------------------------

    /** Solves the first goal of `g`: the goals that remain, or null on failure. */
    private def step(g: Goals): Goals = {
      if (g.depth > maxDepth)
        throw PrologError(s"depth limit $maxDepth exceeded at goal ${answer(g.goal).show}")
      if (g.depth > deepest) deepest = g.depth
      deref(g.goal) match {
        case s: Struct => call(s.functor, s.args, g.depth, g.next)
        case Atom(f)   => call(f, NoArgs, g.depth, g.next)
        case r: Ref    => throw PrologError(s"unbound goal ${r.show}")
        case other     => throw PrologError(s"non-callable goal ${other.show}")
      }
    }

    private def call(f: String, args: Vector[Term], depth: Int, cont: Goals): Goals =
      if (BuiltinNames(f)) builtin(f, args, depth + 1, cont) else callClauses(f, args, depth, cont)

    private def callClauses(f: String, args: Vector[Term], depth: Int, cont: Goals): Goals = {
      val clauses = db.compiledFor(f, args.size)
      if (clauses == null) throw PrologError(s"unknown predicate $f/${args.size}")
      tryClauses(args, clauses, 0, depth, cont)
    }

    /** Tries `clauses` from `from` on, in order: the first whose head unifies
      * with `args` leaves a choicepoint for the rest and returns its body.
      * A head that fails resumes the next clause as that choicepoint would.
      */
    private def tryClauses(args: Vector[Term], clauses: Vector[Compiled], from: Int, depth: Int,
        cont: Goals): Goals = {
      val mark = trail.length
      var i = from
      while (i < clauses.size) {
        val c = clauses(i)
        i += 1
        tried += 1
        val fresh = freshCounter
        freshCounter += c.slots
        val cells = new Array[Term](c.slots)
        if (unifyHead(args, c.head, cells, fresh)) {
          if (i < clauses.size) choices += new ClauseChoice(mark, args, clauses, i, depth, cont)
          var goals = cont
          var k = c.body.length - 1
          while (k >= 0) {
            goals = new Goals(build(c.body(k), cells, fresh), depth + 1, goals)
            k -= 1
          }
          return goals
        }
        undo(mark)
        if (i < clauses.size) resumed += 1
      }
      null
    }

    /** Solves a builtin whose subgoals run at depth `d`; a builtin's functor
      * at another arity names a database predicate.
      */
    private def builtin(f: String, args: Vector[Term], d: Int, cont: Goals): Goals = (f, args.size) match {
      case ("true", 0) => cont
      case ("fail", 0) | ("false", 0) => null
      case (",", 2) => new Goals(args(0), d, new Goals(args(1), d, cont))
      case (";", 2) =>
        args(0) match {
          // if-then-else commits to the first solution of the condition.
          case Struct("->", Vector(cond, thenGoal)) =>
            val mark = trail.length
            val base = choices.length
            if (run(new Goals(cond, d, Done), base)) { cut(base); new Goals(thenGoal, d, cont) }
            else { undo(mark); new Goals(args(1), d, cont) }
          case left =>
            choices += new Alternative(trail.length, args(1), d, cont)
            new Goals(left, d, cont)
        }
      case ("->", 2) =>
        val base = choices.length
        if (run(new Goals(args(0), d, Done), base)) { cut(base); new Goals(args(1), d, cont) } else null
      // once/1 commits to the first solution of its goal, keeping its bindings.
      case ("once", 1) =>
        val base = choices.length
        if (run(new Goals(args(0), d, Done), base)) { cut(base); cont } else null
      case ("not", 1) | ("\\+", 1) =>
        val mark = trail.length
        val base = choices.length
        val proved = run(new Goals(args(0), d, Done), base)
        cut(base)
        undo(mark)
        if (proved) null else cont
      case ("=", 2) => if (unify(args(0), args(1))) cont else null
      case ("\\=", 2) =>
        val mark = trail.length
        val unified = unify(args(0), args(1))
        undo(mark)
        if (unified) null else cont
      case ("==", 2) => if (resolve(args(0)) == resolve(args(1))) cont else null
      case ("\\==", 2) => if (resolve(args(0)) == resolve(args(1))) null else cont
      case ("is", 2) => if (unify(args(0), Num(eval(args(1))))) cont else null
      case ("<", 2) => if (eval(args(0)) < eval(args(1))) cont else null
      case (">", 2) => if (eval(args(0)) > eval(args(1))) cont else null
      case ("=<", 2) => if (eval(args(0)) <= eval(args(1))) cont else null
      case (">=", 2) => if (eval(args(0)) >= eval(args(1))) cont else null
      case ("=:=", 2) => if (eval(args(0)) == eval(args(1))) cont else null
      case ("=\\=", 2) => if (eval(args(0)) != eval(args(1))) cont else null
      case ("between", 3) =>
        val lo = eval(args(0))
        val hi = eval(args(1))
        deref(args(2)) match {
          case Num(v) => if (v >= lo && v <= hi) cont else null
          case r: Ref =>
            if (lo > hi) null
            else {
              if (lo < hi) choices += new BetweenChoice(trail.length, r, lo + 1, hi, cont)
              bind(r, Num(lo))
              cont
            }
          case other => throw PrologError(s"between/3: bad third argument ${other.show}")
        }
      case ("findall", 3) => if (unify(args(2), Term.mkList(findall(args(0), args(1), d)))) cont else null
      case ("setof", 3) =>
        // Simplified setof/3: sorted, deduplicated findall; fails when empty.
        val sorted = findall(args(0), args(1), d).distinct.sorted(TermOrdering)
        if (sorted.nonEmpty && unify(args(2), Term.mkList(sorted))) cont else null
      case ("sort", 2) =>
        val items = resolveList(args(0), "sort/2")
        if (unify(args(1), Term.mkList(items.distinct.sorted(TermOrdering)))) cont else null
      case ("msort", 2) =>
        val items = resolveList(args(0), "msort/2")
        if (unify(args(1), Term.mkList(items.sorted(TermOrdering)))) cont else null
      case ("length", 2) =>
        val list = deref(args(0))
        (Term.asListOption(resolve(list)), list) match {
          case (Some(items), _) => if (unify(args(1), Num(items.size.toLong))) cont else null
          case (None, v: Ref) =>
            deref(args(1)) match {
              case Num(n) =>
                val vars = (1L to n).map { _ => freshCounter += 1; new Ref(freshCounter): Term }
                if (unify(v, Term.mkList(vars))) cont else null
              case _ => throw PrologError("length/2: insufficiently instantiated")
            }
          case (None, other) => throw PrologError(s"length/2: bad argument ${other.show}")
        }
      case ("call", n) if n >= 1 =>
        val target = deref(args(0)) match {
          case Atom(g)       => Struct(g, args.drop(1))
          case Struct(g, as) => Struct(g, as ++ args.drop(1))
          case other         => throw PrologError(s"call/$n: non-callable ${other.show}")
        }
        new Goals(target, d, cont)
      case ("atom", 1) => if (deref(args(0)).isInstanceOf[Atom]) cont else null
      case ("integer", 1) => if (deref(args(0)).isInstanceOf[Num]) cont else null
      case ("var", 1) => if (deref(args(0)).isInstanceOf[Ref]) cont else null
      case ("nonvar", 1) => if (deref(args(0)).isInstanceOf[Ref]) null else cont
      case _ => callClauses(f, args, d - 1, cont)
    }

    /** `template` resolved at every solution of `goal`, with the bindings
      * of `goal` undone afterwards.
      */
    private def findall(template: Term, goal: Term, d: Int): List[Term] = {
      val mark = trail.length
      val base = choices.length
      val out = List.newBuilder[Term]
      var found = run(new Goals(goal, d, Done), base)
      while (found) {
        out += resolve(template)
        found = run(null, base)
      }
      undo(mark)
      out.result()
    }

    private def resolveList(t: Term, who: String): List[Term] =
      Term.asListOption(resolve(t)).getOrElse(throw PrologError(s"$who: not a proper list"))

    // ----- terms ------------------------------------------------------------

    private def deref(t: Term): Term = {
      var cur = t
      while (cur.isInstanceOf[Ref] && (cur.asInstanceOf[Ref].value ne null)) cur = cur.asInstanceOf[Ref].value
      cur
    }

    /** A term with bindings substituted; unbound cells stay cells. */
    private def resolve(t: Term): Term = deref(t) match {
      case Struct(f, as) => Struct(f, as.map(resolve))
      case other         => other
    }

    /** A slot's cell, made fresh (`_G<fresh + slot + 1>`) on first use. */
    private def cell(cells: Array[Term], slot: Int, fresh: Long): Term = {
      if (cells(slot) eq null) cells(slot) = new Ref(fresh + slot + 1)
      cells(slot)
    }

    /** A copy of a clause template over `cells`. */
    private def build(t: Template, cells: Array[Term], fresh: Long): Term = t match {
      case Ground(g)       => g
      case Slot(i)         => cell(cells, i, fresh)
      case Compound(f, ts) => Struct(f, ts.map(build(_, cells, fresh)))
    }

    private def unifyHead(args: Vector[Term], head: Vector[Template], cells: Array[Term], fresh: Long): Boolean = {
      var i = 0
      while (i < args.size && unifyTemplate(args(i), head(i), cells, fresh)) i += 1
      i == args.size
    }

    /** Unifies a goal term with a clause template without copying the
      * template: a slot's first occurrence takes the goal's value.
      */
    private def unifyTemplate(a: Term, t: Template, cells: Array[Term], fresh: Long): Boolean = t match {
      case Ground(g) => unify(a, g)
      case Slot(i) =>
        if (cells(i) ne null) unify(a, cells(i))
        else {
          deref(a) match {
            case r: Ref => bind(r, cell(cells, i, fresh))
            case v      => cells(i) = v
          }
          true
        }
      case Compound(f, ts) =>
        deref(a) match {
          case r: Ref => bind(r, build(t, cells, fresh)); true
          case Struct(g, as) if g == f && as.size == ts.size =>
            var i = 0
            while (i < as.size && unifyTemplate(as(i), ts(i), cells, fresh)) i += 1
            i == as.size
          case _ => false
        }
    }

    /** Syntactic unification, no occurs check (SWI-Prolog's default). An
      * unbound left side is bound to the right one.
      */
    private def unify(x: Term, y: Term): Boolean = {
      val a = deref(x)
      val b = deref(y)
      a match {
        case r: Ref => if (r ne b) bind(r, b); true
        case _ =>
          b match {
            case r: Ref => bind(r, a); true
            case sb: Struct =>
              a match {
                case sa: Struct if sa.functor == sb.functor && sa.args.size == sb.args.size =>
                  var i = 0
                  while (i < sa.args.size && unify(sa.args(i), sb.args(i))) i += 1
                  i == sa.args.size
                case _ => false
              }
            case _ => a == b
          }
      }
    }

    /** Integer arithmetic evaluation for `is/2` and comparisons. */
    private def eval(t: Term): Long = deref(t) match {
      case Num(v) => v
      case Struct("+", Vector(a, b))   => eval(a) + eval(b)
      case Struct("-", Vector(a, b))   => eval(a) - eval(b)
      case Struct("*", Vector(a, b))   => eval(a) * eval(b)
      case Struct("/", Vector(a, b))   => eval(a) / divisor(b, "/")
      case Struct("mod", Vector(a, b)) => eval(a) % divisor(b, "mod")
      case Struct("-", Vector(a))      => -eval(a)
      case Struct("min", Vector(a, b)) => math.min(eval(a), eval(b))
      case Struct("max", Vector(a, b)) => math.max(eval(a), eval(b))
      case Struct("abs", Vector(a))    => math.abs(eval(a))
      case r: Ref                      => throw PrologError(s"arguments not sufficiently instantiated: ${r.show}")
      case other                       => throw PrologError(s"not an arithmetic expression: ${other.show}")
    }

    private def divisor(t: Term, op: String): Long = {
      val d = eval(t)
      if (d == 0) throw PrologError(s"evaluation error: zero_divisor in $op")
      d
    }
  }
}

object Solver {
  /** Evaluation error: unknown predicate, bad arithmetic, depth limit, … */
  final case class PrologError(message: String) extends RuntimeException(message)

  /** A goal to solve at a depth, then the goals after it. */
  private final class Goals(val goal: Term, val depth: Int, val next: Goals)

  /** The empty goal list: the goals it ends are solved. */
  private val Done = new Goals(null, 0, null)

  private val NoArgs = Vector.empty[Term]

  /** A point to backtrack to: the trail height to undo to, and what to try next. */
  private sealed abstract class Choice(val mark: Int)
  private final class ClauseChoice(mark: Int, val args: Vector[Term], val clauses: Vector[Compiled], val next: Int,
      val depth: Int, val cont: Goals) extends Choice(mark)
  private final class Alternative(mark: Int, val goal: Term, val depth: Int, val cont: Goals) extends Choice(mark)
  private final class BetweenChoice(mark: Int, val v: Ref, val next: Long, val hi: Long, val cont: Goals)
      extends Choice(mark)

  /** Functors of the builtins. A builtin shadows a database predicate of
    * the same name and arity. Looking the functor up here first keeps the
    * path to a database predicate clear of the builtins' string matches.
    */
  private val BuiltinNames: Set[String] = Set("true", "fail", "false", ",", ";", "->", "once", "not", "\\+",
    "=", "\\=", "==", "\\==", "is", "<", ">", "=<", ">=", "=:=", "=\\=", "between", "findall", "setof",
    "sort", "msort", "length", "call", "atom", "integer", "var", "nonvar")
}

/** ISO-ish standard order of terms: Var < Num < Atom < Struct. */
object TermOrdering extends Ordering[Term] {
  private def rank(t: Term): Int = t match {
    case _: Var    => 0
    case _: Ref    => 0
    case _: Num    => 1
    case _: Atom   => 2
    case _: Struct => 3
  }
  override def compare(a: Term, b: Term): Int = (a, b) match {
    case (Num(x), Num(y))   => java.lang.Long.compare(x, y)
    case (Atom(x), Atom(y)) => x.compareTo(y)
    case (Var(x), Var(y))   => x.compareTo(y)
    case (x: Ref, y: Ref)   => x.name.compareTo(y.name)
    case (Struct(f, as), Struct(g, bs)) =>
      val byArity = Integer.compare(as.size, bs.size)
      if (byArity != 0) byArity
      else {
        val byName = f.compareTo(g)
        if (byName != 0) byName
        else as.zip(bs).iterator.map { case (x, y) => compare(x, y) }.find(_ != 0).getOrElse(0)
      }
    case _ => Integer.compare(rank(a), rank(b))
  }
}
