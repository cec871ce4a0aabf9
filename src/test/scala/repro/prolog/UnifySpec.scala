package repro.prolog

import org.scalatest.funsuite.AnyFunSuite
import repro.PropSampling

/** Unification, through the solver's `=/2`. */
class UnifySpec extends AnyFunSuite {

  private val solver = new Solver(new Database)

  /** The answer to `a = b`, if they unify: every variable's value. */
  private def u(a: Term, b: Term): Option[Map[String, Term]] =
    solver.solve(List(Struct("=", Vector(a, b)))).headOption

  private def parse(src: String): Term = Parser.parseTermOnly(src)

  test("atom unifies with itself") {
    assert(u(Atom("a"), Atom("a")).isDefined)
  }

  test("distinct atoms do not unify") {
    assert(u(Atom("a"), Atom("b")).isEmpty)
  }

  test("numbers unify by value") {
    assert(u(Num(3), Num(3)).isDefined)
    assert(u(Num(3), Num(4)).isEmpty)
  }

  test("atom and number do not unify") {
    assert(u(Atom("3"), Num(3)).isEmpty)
  }

  test("variable binds to atom") {
    assert(u(Var("X"), Atom("a")).get("X") == Atom("a"))
  }

  test("binding is symmetric") {
    assert(u(Atom("a"), Var("X")).get("X") == Atom("a"))
  }

  test("same variable unifies trivially without binding") {
    assert(u(Var("X"), Var("X")).get == Map("X" -> Var("X")))
  }

  test("two variables alias") {
    val s = solver.solve("X = Y, X = 7").head
    assert(s("Y") == Num(7))
  }

  test("structs unify componentwise") {
    val s = u(Struct("f", Vector(Var("X"), Num(2))), Struct("f", Vector(Num(1), Var("Y")))).get
    assert(s("X") == Num(1))
    assert(s("Y") == Num(2))
  }

  test("different functors fail") {
    assert(u(Struct("f", Vector(Num(1))), Struct("g", Vector(Num(1)))).isEmpty)
  }

  test("different arities fail") {
    assert(u(Struct("f", Vector(Num(1))), Struct("f", Vector(Num(1), Num(2)))).isEmpty)
  }

  test("conflicting bindings fail") {
    assert(u(Struct("f", Vector(Var("X"), Var("X"))), Struct("f", Vector(Num(1), Num(2)))).isEmpty)
  }

  test("consistent repeated variable succeeds") {
    assert(u(Struct("f", Vector(Var("X"), Var("X"))), Struct("f", Vector(Num(1), Num(1)))).isDefined)
  }

  test("nested structure unification") {
    val s = u(parse("kHopConnector(X, Y, 'Job', 'Job', K)"), parse("kHopConnector(q_j1, q_j2, T, T, 2)")).get
    assert(s("X") == Atom("q_j1"))
    assert(s("K") == Num(2))
    assert(s("T") == Atom("Job"))
  }

  test("list unification binds tail") {
    val s = u(parse("[1,2|T]"), parse("[1,2,3,4]")).get
    assert(s("T") == Term.mkList(Seq(Num(3), Num(4))))
  }

  test("resolve is idempotent after full binding") {
    val s = solver.solve("R = f(X, g(Y)), f(X, g(Y)) = f(1, g(h(2)))").head
    assert(s("R") == parse("f(1, g(h(2)))"))
    assert(u(Var("R"), s("R")).get == Map("R" -> s("R")))
  }
}

/** Property tests: unification laws over randomly generated terms. */
class UnifyPropSpec extends AnyFunSuite with PropSampling {
  import org.scalacheck.Gen

  private val solver = new Solver(new Database)

  // Through source text: `succeeds` resolves no answer, so a cyclic binding
  // such as X = f(X) (there is no occurs check) is never printed.
  private def unifies(a: Term, b: Term): Boolean = solver.succeeds(s"${a.show} = ${b.show}")

  private val genTerm: Gen[Term] = {
    val leaf = Gen.oneOf(
      Gen.oneOf("a", "b", "c").map(Atom(_)),
      Gen.choose(0L, 5L).map(Num(_)),
      Gen.oneOf("X", "Y", "Z").map(Var(_)))
    def sized(depth: Int): Gen[Term] =
      if (depth <= 0) leaf
      else Gen.frequency(
        3 -> leaf,
        1 -> (for {
          f <- Gen.oneOf("f", "g")
          n <- Gen.choose(1, 3)
          as <- Gen.listOfN(n, sized(depth - 1))
        } yield Struct(f, as.toVector)))
    sized(3)
  }

  test("unification is symmetric in success") {
    forAll(genTerm, genTerm) { (a, b) =>
      assert(unifies(a, b) == unifies(b, a))
    }
  }

  test("every term unifies with itself") {
    forAll(genTerm) { t =>
      assert(unifies(t, t))
    }
  }

  test("ground terms unify iff equal") {
    val ground = genTerm.map { t =>
      def g(x: Term): Term = x match {
        case Var(_)        => Atom("v")
        case Struct(f, as) => Struct(f, as.map(g))
        case other         => other
      }
      g(t)
    }
    forAll(ground, ground) { (a, b) =>
      assert(unifies(a, b) == (a == b))
    }
  }

  test("a fresh variable unifies with any term, resolving to it") {
    forAll(genTerm) { t =>
      val s = solver.solve(List(Struct("=", Vector(Var("Fresh"), t)))).headOption
      assert(s.isDefined)
      def resolved(x: Term): Term = x match {
        case Var(n)        => s.get(n)
        case Struct(f, as) => Struct(f, as.map(resolved))
        case other         => other
      }
      assert(s.get("Fresh") == resolved(t))
    }
  }
}
