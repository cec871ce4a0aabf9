package repro.prolog

import org.scalatest.funsuite.AnyFunSuite
import scala.util.{Success, Try}

class SolverSpec extends AnyFunSuite {

  /** A solver over `program`. Each goal is also run, on the side, by a second
    * [[Solver]] and by the [[ReferenceSolver]] over the same database: both
    * must give the same answers in the same order (up to [[AnswersCompared]]),
    * or the same error, and the same work counts.
    */
  private final class Checked(program: String) {
    private val db = Database.withPrelude()
    db.consult(program)
    private val solver = new Solver(db)
    private val engine = new Solver(db)
    private val reference = new ReferenceSolver(db)

    private def compare(goal: String, vars: Seq[String]): Unit = {
      def answers(q: => LazyList[Map[String, Term]]) = Try(q.take(AnswersCompared).toList)
      val expected = ReferenceSolver.onDeepStack(answers(reference.query(goal, vars: _*)))
      assert(answers(engine.query(goal, vars: _*)) == expected, goal)
      assert((engine.clausesTried, engine.maxDepthReached) == (reference.clausesTried, reference.maxDepthReached), goal)
    }

    def query(goal: String, vars: String*): LazyList[Map[String, Term]] = {
      compare(goal, vars)
      solver.query(goal, vars: _*)
    }

    def succeeds(goal: String): Boolean = {
      compare(goal, Nil)
      solver.succeeds(goal)
    }

    def clausesTried: Long = solver.clausesTried
    def maxDepthReached: Long = solver.maxDepthReached
    def backtracks: Long = solver.backtracks
  }

  private val AnswersCompared = 50

  private def solverWith(program: String): Checked = new Checked(program)

  private def plainSolver(program: String): Solver = {
    val db = Database.withPrelude()
    db.consult(program)
    new Solver(db)
  }

  private val family = solverWith(
    """parent(tom, bob). parent(tom, liz).
      |parent(bob, ann). parent(bob, pat).
      |parent(pat, jim).
      |ancestor(X, Y) :- parent(X, Y).
      |ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
      |""".stripMargin)

  test("fact lookup succeeds") {
    assert(family.succeeds("parent(tom, bob)"))
  }

  test("fact lookup fails for absent fact") {
    assert(!family.succeeds("parent(bob, tom)"))
  }

  test("enumerates all bindings in source order") {
    val kids = family.query("parent(tom, X)", "X").map(_("X")).toList
    assert(kids == List(Atom("bob"), Atom("liz")))
  }

  test("recursive rules find transitive ancestors") {
    val anc = family.query("ancestor(X, jim)", "X").map(_("X")).toSet
    assert(anc == Set(Atom("tom"), Atom("bob"), Atom("pat")))
  }

  test("conjunction binds across goals") {
    val res = family.query("parent(X, Y), parent(Y, Z)", "X", "Z").toList
    assert(res.contains(Map("X" -> Atom("tom"), "Z" -> Atom("ann"))))
    assert(res.forall(m => m("X") != Atom("pat"))) // jim has no children
  }

  test("negation as failure") {
    assert(family.succeeds("not(parent(jim, _))"))
    assert(!family.succeeds("not(parent(tom, bob))"))
    assert(family.succeeds("\\+ parent(liz, _)"))
  }

  test("unification builtin = and \\=") {
    assert(family.succeeds("X = f(Y), Y = 1, X = f(1)"))
    assert(!family.succeeds("f(a) = f(b)"))
    assert(family.succeeds("f(a) \\= f(b)"))
  }

  test("structural equality == does not bind") {
    assert(!family.succeeds("X == 1"))
    assert(family.succeeds("X = 1, X == 1"))
  }

  test("is/2 evaluates arithmetic") {
    val r = family.query("X is 2 + 3 * 4", "X").head
    assert(r("X") == Num(14))
    assert(family.succeeds("X is 10 - 2 - 3, X =:= 5"))
    assert(family.succeeds("X is 7 mod 3, X =:= 1"))
    assert(family.succeeds("X is min(3, 5), X =:= 3"))
  }

  test("division by zero raises an evaluation error") {
    val ex = intercept[Solver.PrologError](family.succeeds("X is 1 / 0"))
    assert(ex.getMessage.contains("evaluation error"))
  }

  test("mod by zero raises an evaluation error") {
    val ex = intercept[Solver.PrologError](family.succeeds("X is 7 mod (2 - 2)"))
    assert(ex.getMessage.contains("evaluation error"))
  }

  test("comparison operators") {
    assert(family.succeeds("1 < 2"))
    assert(!family.succeeds("2 < 1"))
    assert(family.succeeds("2 =< 2"))
    assert(family.succeeds("3 >= 2"))
    assert(family.succeeds("1 + 1 =:= 2"))
    assert(family.succeeds("1 =\\= 2"))
  }

  test("between/3 enumerates when unbound") {
    val ks = family.query("between(2, 5, K)", "K").map(_("K")).toList
    assert(ks == List(Num(2), Num(3), Num(4), Num(5)))
  }

  test("between/3 checks when bound") {
    assert(family.succeeds("between(0, 8, 4)"))
    assert(!family.succeeds("between(0, 8, 9)"))
  }

  test("between/3 with empty range fails") {
    assert(!family.succeeds("between(3, 2, _)"))
  }

  test("member/2 from prelude") {
    assert(family.succeeds("member(b, [a,b,c])"))
    assert(!family.succeeds("member(d, [a,b,c])"))
    val xs = family.query("member(X, [1,2,3])", "X").map(_("X")).toList
    assert(xs == List(Num(1), Num(2), Num(3)))
  }

  test("append/3 from prelude, including splitting mode") {
    assert(family.succeeds("append([1,2], [3], [1,2,3])"))
    val splits = family.query("append(A, B, [1,2])", "A", "B").toList
    assert(splits.size == 3)
  }

  test("reverse/2 from prelude") {
    val r = family.query("reverse([1,2,3], R)", "R").head
    assert(r("R") == Term.mkList(Seq(Num(3), Num(2), Num(1))))
  }

  test("findall/3 collects all solutions") {
    val r = family.query("findall(X, parent(tom, X), L)", "L").head
    assert(r("L") == Term.mkList(Seq(Atom("bob"), Atom("liz"))))
  }

  test("findall/3 with no solutions yields empty list") {
    val r = family.query("findall(X, parent(jim, X), L)", "L").head
    assert(r("L") == Term.EmptyList)
  }

  test("setof/3 sorts and deduplicates; fails on empty") {
    val s = solverWith("p(2). p(1). p(2).")
    val r = s.query("setof(X, p(X), L)", "L").head
    assert(r("L") == Term.mkList(Seq(Num(1), Num(2))))
    assert(!s.succeeds("setof(X, p(3), _)"))
  }

  test("sort/2 and msort/2") {
    assert(family.succeeds("sort([3,1,2,1], [1,2,3])"))
    assert(family.succeeds("msort([3,1,2,1], [1,1,2,3])"))
  }

  test("length/2 both modes") {
    assert(family.succeeds("length([a,b,c], 3)"))
    val r = family.query("length(L, 2)", "L").head
    assert(Term.asListOption(r("L")).exists(_.size == 2))
  }

  test("call/N appends arguments") {
    val s = solverWith("add(X, Y, Z) :- Z is X + Y.")
    assert(s.succeeds("call(add, 1, 2, 3)"))
    assert(s.succeeds("G = add(10), call(G, 5, 15)"))
  }

  test("foldl/4 with user aggregate (paper Lst. 5 sum)") {
    val s = solverWith("sum(X, Y, R) :- R is X + Y.")
    val r = s.query("foldl(sum, [1,2,3,4], 0, R)", "R").head
    assert(r("R") == Num(10))
  }

  test("convlist/3 filters unmapped elements") {
    val s = solverWith("half(X, Y) :- 0 is X mod 2, Y is X / 2.")
    val r = s.query("convlist(half, [1,2,3,4], L)", "L").head
    assert(r("L") == Term.mkList(Seq(Num(1), Num(2))))
  }

  test("disjunction explores both branches") {
    val xs = family.query("(X = 1 ; X = 2)", "X").map(_("X")).toList
    assert(xs == List(Num(1), Num(2)))
  }

  test("if-then-else commits to condition") {
    assert(family.succeeds("(1 < 2 -> true ; fail)"))
    assert(family.succeeds("(2 < 1 -> fail ; true)"))
    val xs = family.query("(member(X,[1,2]) -> Y = X ; Y = none)", "Y").map(_("Y")).toList
    assert(xs == List(Num(1))) // commits to first solution of the condition
  }

  test("once/1 returns only the first solution") {
    val kids = family.query("once(parent(tom, X))", "X").map(_("X")).toList
    assert(kids == List(Atom("bob")))
  }

  test("once/1 fails when its goal fails") {
    assert(!family.succeeds("once(parent(jim, _))"))
    assert(family.query("once(member(X, []))", "X").isEmpty)
  }

  test("once/1 keeps the bindings of the solution it commits to") {
    val r = family.query("once(parent(X, Y)), Z = X", "X", "Y", "Z").toList
    assert(r == List(Map("X" -> Atom("tom"), "Y" -> Atom("bob"), "Z" -> Atom("tom"))))
  }

  test("once/1 inside negation, findall/3 and call/N") {
    assert(family.succeeds("\\+ once(parent(jim, _))"))
    assert(!family.succeeds("\\+ once(parent(tom, _))"))
    val all = family.query("findall(X, once(parent(tom, X)), L)", "L").head
    assert(all("L") == Term.mkList(Seq(Atom("bob"))))
    val perParent = family.query("findall(X, (member(P, [tom, bob]), once(parent(P, X))), L)", "L").head
    assert(perParent("L") == Term.mkList(Seq(Atom("bob"), Atom("ann"))))
    assert(family.query("call(once, parent(bob, X))", "X").map(_("X")).toList == List(Atom("ann")))
    assert(family.query("G = parent(bob), once(call(G, X))", "X").map(_("X")).toList == List(Atom("ann")))
  }

  test("work counters: clauses tried, deepest goal") {
    val s = solverWith("p(a). p(b). p(c). q(X) :- p(X).")
    assert((s.clausesTried, s.maxDepthReached) == (0L, 0L))
    assert(s.succeeds("q(c)"))
    // q/1's one clause, then p/1's three facts; p(c) is solved at depth 1.
    assert((s.clausesTried, s.maxDepthReached) == (4L, 1L))
    assert(s.succeeds("once(q(a))"))
    assert((s.clausesTried, s.maxDepthReached) == (6L, 2L))
  }

  test("backtracks count the choicepoints resumed") {
    val s = solverWith("p(a). p(b). p(c). q(X) :- p(X), X == b.")
    assert(s.backtracks == 0L)
    // p(X) binds a, fails X == b, resumes p/1 once and binds b.
    assert(s.succeeds("q(Y)"))
    assert(s.backtracks == 1L)
    // A head that fails to unify counts as one more: p(c) skips p(a) and p(b).
    assert(s.succeeds("p(c)"))
    assert(s.backtracks == 3L)
    // Each disjunct and between/3 value after the first is one resumption.
    assert(s.query("(X = 1 ; X = 2), between(1, 3, Y)", "X", "Y").size == 6)
    assert(s.backtracks == 8L)
    // once/1 drops the choicepoints it leaves instead of resuming them.
    assert(s.succeeds("once(p(_))"))
    assert(s.backtracks == 8L)
  }

  test("type-check builtins") {
    assert(family.succeeds("atom(foo)"))
    assert(!family.succeeds("atom(1)"))
    assert(family.succeeds("integer(3)"))
    assert(family.succeeds("var(_X)"))
    assert(family.succeeds("X = 1, nonvar(X)"))
  }

  test("unknown predicate raises an error") {
    val ex = intercept[RuntimeException](family.succeeds("noSuchPredicate(x)"))
    assert(ex.getMessage.contains("unknown predicate"))
  }

  test("depth limit stops runaway recursion") {
    val s = solverWith("loop :- loop.")
    assertThrows[RuntimeException](s.succeeds("loop"))
  }

  test("solutions are lazy: first solution of infinite enumeration") {
    val s = solverWith("nat(0).\nnat(N) :- nat(M), N is M + 1.")
    val first = s.query("nat(X)", "X").take(5).map(_("X")).toList
    assert(first == List(Num(0), Num(1), Num(2), Num(3), Num(4)))
  }

  test("variables are renamed apart between clause uses") {
    val s = solverWith("p(X, X).\nq(A, B) :- p(A, c), p(B, d).")
    val r = s.query("q(A, B)", "A", "B").head
    assert(r == Map("A" -> Atom("c"), "B" -> Atom("d")))
  }

  test("query with shared variable is a constraint") {
    val r = family.query("parent(X, ann), parent(X, pat)", "X").map(_("X")).toList
    assert(r == List(Atom("bob")))
  }

  test("deep arithmetic recursion: factorial") {
    val s = solverWith(
      """fact(0, 1).
        |fact(N, F) :- N > 0, N1 is N - 1, fact(N1, F1), F is N * F1.
        |""".stripMargin)
    assert(s.query("fact(10, F)", "F").head.apply("F") == Num(3628800))
  }

  test("deep recursion runs on a 512 KB stack: resolution does not recurse on the JVM stack") {
    val s = plainSolver("count(0). count(N) :- N > 0, N1 is N - 1, count(N1).")
    var proved: Try[Boolean] = null
    val t = new Thread(null, () => proved = Try(s.succeeds("count(3000)")), "small-stack", 512L * 1024)
    t.start()
    t.join()
    assert(proved == Success(true))
    assert(s.maxDepthReached == 3000L)
  }

  test("a goal variable spelled like a fresh variable stays apart from it") {
    // The reference names a clause's fresh variables _G1, _G2, … and so binds
    // the goal's _G1 when it renames p/1's X; the solver is not compared here.
    val s = plainSolver("p(X) :- X = b.")
    assert(s.query("_G1 = a, p(Y)", "Y").map(_("Y")).toList == List(Atom("b")))
    assert(s.query("A = a, p(Y)", "Y").map(_("Y")).toList == List(Atom("b")))
  }
}
